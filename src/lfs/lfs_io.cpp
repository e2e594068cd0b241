// File maps, data read/write paths, and the write-behind flush machinery.
//
// Dirty file blocks accumulate in memory (the paper's file-cache write
// buffering, Section 2.1) and are written in large sequential batches:
// dirlog records first, then data blocks, then the indirect blocks and
// inodes that point at them. That ordering is what makes roll-forward sound:
// an inode found in the log always describes data already in the log.
//
// Mutations stage under the shared lock + per-inode stripes inside a
// group-commit transaction and leave flushing to the batch committer
// (CommitBatch); see the threading-model note in lfs.h.

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>

#include "src/lfs/lfs.h"
#include "src/util/codec.h"

namespace lfs {

namespace {
// FileMap entries kept before a commit starts evicting clean ones.
constexpr size_t kFileCacheCap = 16384;
// Worst-case log reservation of a truncate: the boundary block plus the
// indirect/inode touch-up.
constexpr uint64_t kTruncateReserve = 4;
}  // namespace

Status LfsFileSystem::VerifyLogBlockCrcs(BlockNo addr, uint64_t count) const {
  SegNo seg = sb_.SegOf(addr);
  if (seg == kNilSeg) {
    return OkStatus();  // fixed-area blocks carry their own CRCs
  }
  // Walk the partial-write chain until it covers [addr, addr + count),
  // checking the payload CRC of every partial that overlaps the range. If
  // the chain ends before reaching the target, nothing can be proven here —
  // the caller's own read will surface any I/O error.
  SegmentChain chain = Chain(seg, 0, SegmentStopOffset(seg));
  std::vector<uint8_t> payload;
  while (chain.Next() && chain.payload_addr() < addr + count) {
    if (chain.payload_addr() + chain.payload_blocks() > addr) {
      Status st = chain.ReadPayload(&payload);
      if (st.code() == StatusCode::kCorruption) {
        stats_.read_crc_failures++;
      }
      LFS_RETURN_IF_ERROR(st);
    }
  }
  return OkStatus();
}

Status LfsFileSystem::ReadLogRun(BlockNo addr, uint64_t count, std::span<uint8_t> out) const {
  const uint32_t bs = sb_.block_size;
  // Only segment blocks are cached (kNilSeg: never), each tagged with its
  // segment's write sequence number at the time of the lookup or fill.
  auto cache_seg = [&](BlockNo b) { return read_cache_ ? sb_.SegOf(b) : kNilSeg; };
  uint64_t i = 0;
  while (i < count) {
    // Serve writer-buffered and cached blocks individually; everything
    // between them is fetched in one device read per contiguous stretch.
    uint64_t j = i;
    while (j < count) {
      std::span<uint8_t> block = out.subspan(j * bs, bs);
      if (writer_.ReadBuffered(addr + j, block)) {
        break;  // block j is already filled
      }
      SegNo seg = cache_seg(addr + j);
      if (seg != kNilSeg && read_cache_->Get(addr + j, block, usage_.write_seq(seg))) {
        break;
      }
      j++;
    }
    if (j > i) {
      if (cfg_.verify_read_crcs) {
        LFS_RETURN_IF_ERROR(VerifyLogBlockCrcs(addr + i, j - i));
      }
      LFS_RETURN_IF_ERROR(DeviceRead(addr + i, j - i, out.subspan(i * bs, (j - i) * bs)));
      for (uint64_t k = i; k < j; k++) {
        if (SegNo seg = cache_seg(addr + k); seg != kNilSeg) {
          read_cache_->PutClean(addr + k, out.subspan(k * bs, bs), usage_.write_seq(seg));
        }
      }
    }
    i = j < count ? j + 1 : j;
  }
  return OkStatus();
}

Result<Inode> LfsFileSystem::ReadInodeFromDisk(InodeNum ino) const {
  ImapEntry e = imap_.Get(ino);
  if (!e.allocated()) {
    return NotFoundError("inode " + std::to_string(ino) + " not allocated");
  }
  std::vector<uint8_t> block(sb_.block_size);
  LFS_RETURN_IF_ERROR(ReadLogRun(e.inode_block, 1, block));
  LFS_ASSIGN_OR_RETURN(Inode inode, Inode::DecodeSlot(block, e.slot));
  if (inode.ino != ino) {
    return CorruptionError("inode block slot holds inode " + std::to_string(inode.ino) +
                           ", expected " + std::to_string(ino));
  }
  return inode;
}

// --- sharded in-memory tables --------------------------------------------------

LfsFileSystem::FileMap* LfsFileSystem::FindFileMap(InodeNum ino) {
  InodeTableShard& shard = TableShard(ino);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.files.find(ino);
  return it == shard.files.end() ? nullptr : &it->second;
}

void LfsFileSystem::EraseInodeState(InodeNum ino) {
  InodeTableShard& shard = TableShard(ino);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.files.erase(ino);
  shard.dirs.erase(ino);
}

void LfsFileSystem::ClearInodeTables() {
  for (InodeTableShard& shard : itable_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.files.clear();
    shard.dirs.clear();
  }
}

size_t LfsFileSystem::LoadedFileMapCount() const {
  size_t total = 0;
  for (const InodeTableShard& shard : itable_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.files.size();
  }
  return total;
}

bool LfsFileSystem::HaveDirtyBlock(InodeNum ino, uint64_t fbn) const {
  if (dirty_count_.load() == 0) {
    return false;  // nothing staged anywhere
  }
  const DirtyShard& shard = dirty_shards_[ShardOf(ino)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.blocks.count({ino, fbn}) != 0;
}

bool LfsFileSystem::CopyDirtyBlock(InodeNum ino, uint64_t fbn, std::span<uint8_t> out) const {
  if (dirty_count_.load() == 0) {
    return false;
  }
  const DirtyShard& shard = dirty_shards_[ShardOf(ino)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.blocks.find({ino, fbn});
  if (it == shard.blocks.end()) {
    return false;
  }
  std::memcpy(out.data(), it->second.data(), out.size());
  return true;
}

void LfsFileSystem::EraseDirtyBlock(InodeNum ino, uint64_t fbn) {
  DirtyShard& shard = dirty_shards_[ShardOf(ino)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.blocks.erase({ino, fbn}) != 0) {
    dirty_count_--;
  }
}

void LfsFileSystem::StoreDirtyBlock(InodeNum ino, uint64_t fbn, std::vector<uint8_t> data) {
  assert(data.size() == sb_.block_size);
  DirtyShard& shard = dirty_shards_[ShardOf(ino)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.blocks.find({ino, fbn});
  if (it == shard.blocks.end()) {
    shard.blocks.emplace(std::make_pair(ino, fbn), std::move(data));
    dirty_count_++;
  } else {
    it->second = std::move(data);
  }
}

std::map<std::pair<InodeNum, uint64_t>, std::vector<uint8_t>>
LfsFileSystem::TakeDirtyBatch() {
  // Merging the per-shard maps into one std::map restores the exact global
  // (ino, fbn) iteration order the unsharded buffer used to flush in, so the
  // log layout (and the paper's temporal locality) is unchanged by sharding.
  std::map<std::pair<InodeNum, uint64_t>, std::vector<uint8_t>> out;
  for (DirtyShard& shard : dirty_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (out.empty()) {
      out = std::move(shard.blocks);
    } else {
      out.merge(shard.blocks);
    }
    shard.blocks.clear();
  }
  dirty_count_.store(0);
  return out;
}

void LfsFileSystem::MarkInodeDirty(InodeNum ino) {
  std::lock_guard<std::mutex> lock(dirty_inodes_mu_);
  dirty_inodes_.insert(ino);
}

std::set<InodeNum> LfsFileSystem::TakeDirtyInodes() {
  std::lock_guard<std::mutex> lock(dirty_inodes_mu_);
  std::set<InodeNum> out;
  out.swap(dirty_inodes_);
  return out;
}

Result<LfsFileSystem::FileMap*> LfsFileSystem::GetFileMap(InodeNum ino) {
  // May run under the shared fs lock (ReadAt, Stat, lookups), so structural
  // access to the shard map is serialized by the shard mutex; std::map node
  // stability keeps the returned pointer valid after the mutex drops. Two
  // shared holders may both load the map from disk; emplace keeps the first.
  InodeTableShard& shard = TableShard(ino);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.files.find(ino);
    if (it != shard.files.end()) {
      return &it->second;
    }
  }
  LFS_ASSIGN_OR_RETURN(Inode inode, ReadInodeFromDisk(ino));
  LFS_ASSIGN_OR_RETURN(FileMap fm, LoadFileMap(inode));
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [pos, inserted] = shard.files.emplace(ino, std::move(fm));
  (void)inserted;
  return &pos->second;
}

Result<LfsFileSystem::FileMap> LfsFileSystem::LoadFileMap(const Inode& inode) const {
  if (inode.size > sb_.max_file_bytes()) {
    return CorruptionError("inode " + std::to_string(inode.ino) + " size " +
                           std::to_string(inode.size) + " exceeds what its block tree addresses");
  }
  FileMap fm;
  fm.inode = inode;
  uint64_t nblocks = BlockCountFor(inode.size);
  fm.blocks.assign(nblocks, kNilBlock);
  for (uint64_t i = 0; i < std::min<uint64_t>(kNumDirect, nblocks); i++) {
    fm.blocks[i] = inode.direct[i];
  }
  if (nblocks > kNumDirect) {
    const uint32_t ppb = sb_.pointers_per_block();
    uint64_t ind_count = (nblocks - kNumDirect + ppb - 1) / ppb;
    fm.ind_addrs.assign(ind_count, kNilBlock);
    fm.ind_addrs[0] = inode.single_indirect;
    std::vector<uint8_t> block(sb_.block_size);
    if (ind_count > 1) {
      fm.dind_addr = inode.double_indirect;
      if (fm.dind_addr != kNilBlock) {
        LFS_RETURN_IF_ERROR(ReadLogRun(fm.dind_addr, 1, block));
        Decoder dec(block);
        for (uint64_t j = 1; j < ind_count; j++) {
          fm.ind_addrs[j] = dec.GetU64();
        }
      }
    }
    for (uint64_t i = 0; i < ind_count; i++) {
      if (fm.ind_addrs[i] == kNilBlock) {
        continue;  // a hole spanning a whole indirect range
      }
      LFS_RETURN_IF_ERROR(ReadLogRun(fm.ind_addrs[i], 1, block));
      Decoder dec(block);
      for (uint32_t j = 0; j < ppb; j++) {
        uint64_t fbn = kNumDirect + i * ppb + j;
        BlockNo addr = dec.GetU64();
        if (fbn < nblocks) {
          fm.blocks[fbn] = addr;
        }
      }
    }
  }
  return fm;
}

void LfsFileSystem::MarkIndirectDirty(FileMap* fm, uint64_t fbn) {
  if (fbn < kNumDirect) {
    fm->inode_dirty = true;  // direct pointers live in the inode itself
    return;
  }
  uint32_t ind = static_cast<uint32_t>((fbn - kNumDirect) / sb_.pointers_per_block());
  fm->dirty_ind.insert(ind);
  if (ind >= 1) {
    fm->dind_dirty = true;  // the double-indirect root must name the new copy
  }
  fm->inode_dirty = true;
}

Status LfsFileSystem::GrowFileMap(FileMap* fm, uint64_t new_block_count) {
  if (new_block_count <= fm->blocks.size()) {
    return OkStatus();
  }
  fm->blocks.resize(new_block_count, kNilBlock);
  if (new_block_count > kNumDirect) {
    const uint32_t ppb = sb_.pointers_per_block();
    uint64_t ind_count = (new_block_count - kNumDirect + ppb - 1) / ppb;
    if (ind_count > fm->ind_addrs.size()) {
      fm->ind_addrs.resize(ind_count, kNilBlock);
    }
  }
  return OkStatus();
}

Status LfsFileSystem::ShrinkFileMap(InodeNum ino, FileMap* fm, uint64_t new_block_count) {
  const uint32_t bs = sb_.block_size;
  for (uint64_t fbn = new_block_count; fbn < fm->blocks.size(); fbn++) {
    BlockNo addr = fm->blocks[fbn];
    SegNo seg = sb_.SegOf(addr);
    if (addr != kNilBlock && seg != kNilSeg) {
      usage_.SubLive(seg, bs);
    }
    EraseDirtyBlock(ino, fbn);
  }
  fm->blocks.resize(new_block_count);

  const uint32_t ppb = sb_.pointers_per_block();
  uint64_t new_ind =
      new_block_count > kNumDirect ? (new_block_count - kNumDirect + ppb - 1) / ppb : 0;
  for (uint64_t i = new_ind; i < fm->ind_addrs.size(); i++) {
    BlockNo addr = fm->ind_addrs[i];
    SegNo seg = sb_.SegOf(addr);
    if (addr != kNilBlock && seg != kNilSeg) {
      usage_.SubLive(seg, bs);
    }
    fm->dirty_ind.erase(static_cast<uint32_t>(i));
  }
  fm->ind_addrs.resize(new_ind, kNilBlock);
  if (new_ind <= 1 && fm->dind_addr != kNilBlock) {
    SegNo seg = sb_.SegOf(fm->dind_addr);
    if (seg != kNilSeg) {
      usage_.SubLive(seg, bs);
    }
    fm->dind_addr = kNilBlock;
    fm->dind_dirty = false;
  } else if (new_ind > 1) {
    fm->dind_dirty = true;
  }
  if (new_ind > 0) {
    fm->dirty_ind.insert(static_cast<uint32_t>(new_ind - 1));  // boundary re-serialize
  }
  fm->inode_dirty = true;
  return OkStatus();
}

Status LfsFileSystem::ReadFileBlock(FileMap* fm, InodeNum ino, uint64_t fbn,
                                    std::span<uint8_t> out) {
  if (CopyDirtyBlock(ino, fbn, out)) {
    return OkStatus();
  }
  if (fbn >= fm->blocks.size() || fm->blocks[fbn] == kNilBlock) {
    std::memset(out.data(), 0, out.size());  // hole
    return OkStatus();
  }
  return ReadLogRun(fm->blocks[fbn], 1, out);
}

Status LfsFileSystem::EnsureSpaceForWrite(uint64_t new_blocks) {
  // The log needs clean segments to make progress; refuse growth that would
  // leave the cleaner unable to regenerate them. This is the LFS analogue of
  // FFS's 90%-capacity limit (Section 3.5's cost/performance tradeoff): past
  // ~80% utilization with little variance, a cleaning pass's fixed overhead
  // (summaries, rewritten inodes and indirect blocks, the interleaved write
  // buffer) can exceed what it reclaims, so allocation stops before the
  // cleaner's profitable regime ends. The paper's production systems ran at
  // 11-75% utilization.
  uint64_t usable_segments = sb_.nsegments > cfg_.reserve_segments + 2
                                 ? sb_.nsegments - cfg_.reserve_segments - 2
                                 : 0;
  usable_segments = std::min<uint64_t>(usable_segments, sb_.nsegments * 4 / 5);
  uint64_t usable_bytes = usable_segments * uint64_t{sb_.segment_bytes()};
  uint64_t committed = usage_.TotalLiveBytes() +
                       (dirty_count_.load() + new_blocks) * uint64_t{sb_.block_size};
  if (committed > usable_bytes) {
    return NoSpaceError("filesystem full: " + std::to_string(committed) + " of " +
                        std::to_string(usable_bytes) + " usable bytes committed");
  }
  return OkStatus();
}

Status LfsFileSystem::CheckWritable() const {
  if (degraded_) {
    return ReadOnlyError(
        "filesystem is in degraded read-only mode (checkpoint media failure)");
  }
  if (read_only_) {
    return ReadOnlyError("filesystem is mounted read-only");
  }
  return OkStatus();
}

Status LfsFileSystem::WriteAt(InodeNum ino, uint64_t offset, std::span<const uint8_t> data) {
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kWrite, device_, &clock_, ino);
  if (data.empty()) {
    txn_.WaitNotCommitting();
    std::shared_lock<std::shared_mutex> lock(fs_mu_);
    return CheckWritable();
  }
  const uint64_t max_bytes = sb_.max_file_bytes();
  if (offset > max_bytes || data.size() > max_bytes - offset) {
    return OutOfRangeError("write past the largest file the block tree addresses (" +
                           std::to_string(max_bytes) + " bytes)");
  }
  // The write streams through the buffer one slice per transaction op: a
  // slice ends on the block that fills the buffer, and its EndOp commits
  // the batch, so a huge write goes out in segment-sized batches (and the
  // cleaner can keep pace) instead of accumulating in memory.
  const uint64_t end = offset + data.size();
  const uint64_t max_slice = std::max<uint64_t>(cfg_.write_buffer_blocks, 1);
  uint64_t pos = offset;
  while (pos < end) {
    // Worst-case log reservation: the slice's data blocks plus the indirect/
    // inode touch-up the flush will add for them.
    uint64_t reserve = std::min(BlockCountFor(end) - pos / sb_.block_size, max_slice) + 2;
    bool first = pos == offset;
    LFS_RETURN_IF_ERROR(RunMutation(reserve, [&] {
      InodeLockSet il(ilocks_, {ino}, /*exclusive=*/true);
      return WriteAtSlice(ino, offset, data, first, &pos);
    }));
  }
  return OkStatus();
}

Status LfsFileSystem::WriteAtSlice(InodeNum ino, uint64_t offset, std::span<const uint8_t> data,
                                   bool first, uint64_t* pos) {
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (fm->inode.type == FileType::kDirectory) {
    return IsADirectoryError("cannot write directly to a directory");
  }
  const uint32_t bs = sb_.block_size;
  const uint64_t end = offset + data.size();
  uint64_t old_blocks = fm->blocks.size();
  uint64_t new_blocks_total = std::max(old_blocks, BlockCountFor(end));
  if (first) {
    LFS_RETURN_IF_ERROR(EnsureSpaceForWrite(new_blocks_total - old_blocks));
    fm->inode.mtime = clock_.Tick();
  }
  // Every slice (re)grows the map: between slices a commit may have evicted
  // and reloaded it, or a truncate shrunk it.
  LFS_RETURN_IF_ERROR(GrowFileMap(fm, new_blocks_total));
  fm->inode_dirty = true;
  MarkInodeDirty(ino);

  uint64_t staged = 0;
  while (*pos < end) {
    uint64_t fbn = *pos / bs;
    uint32_t in_block = static_cast<uint32_t>(*pos % bs);
    uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(bs - in_block, end - *pos));
    std::vector<uint8_t> block(bs);
    if (chunk != bs) {
      // Partial-block write: read-modify-write against cache or disk.
      LFS_RETURN_IF_ERROR(ReadFileBlock(fm, ino, fbn, block));
    }
    std::memcpy(block.data() + in_block, data.data() + (*pos - offset), chunk);
    StoreDirtyBlock(ino, fbn, std::move(block));
    *pos += chunk;
    fm->inode.size = std::max(fm->inode.size, *pos);
    // A slice stages at most a buffer's worth (its reservation) and ends on
    // the block that fills the buffer, whose EndOp then commits the batch.
    if (++staged >= cfg_.write_buffer_blocks ||
        dirty_count_.load() >= cfg_.write_buffer_blocks) {
      break;
    }
  }
  return OkStatus();
}

Result<uint64_t> LfsFileSystem::ReadAt(InodeNum ino, uint64_t offset, std::span<uint8_t> out) {
  // Lock-free committer gate: keeps a continuous reader stream from
  // starving a committer's exclusive acquisition.
  txn_.WaitNotCommitting();
  std::shared_lock<std::shared_mutex> lock(fs_mu_);
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kRead, device_, &clock_, ino);
  InodeLockSet il(ilocks_, {ino}, /*exclusive=*/false);
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (offset >= fm->inode.size || out.empty()) {
    return uint64_t{0};
  }
  const uint32_t bs = sb_.block_size;
  uint64_t want = std::min<uint64_t>(out.size(), fm->inode.size - offset);

  // Fast path for block-aligned bulk reads: coalesce runs of consecutively
  // placed blocks into single sequential device I/Os. Files written
  // sequentially sit contiguously in the log, so this is where LFS gets its
  // FFS-matching sequential read bandwidth (Figure 9).
  uint64_t done = 0;
  while (done < want) {
    uint64_t pos = offset + done;
    uint64_t fbn = pos / bs;
    uint32_t in_block = static_cast<uint32_t>(pos % bs);
    uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(bs - in_block, want - done));
    bool plain_disk_block = in_block == 0 && chunk == bs && !HaveDirtyBlock(ino, fbn) &&
                            fbn < fm->blocks.size() && fm->blocks[fbn] != kNilBlock;
    if (plain_disk_block) {
      // Extend the run of contiguous disk blocks.
      uint64_t run = 1;
      while (done + run * bs + bs <= want) {
        uint64_t next_fbn = fbn + run;
        if (next_fbn >= fm->blocks.size() || fm->blocks[next_fbn] != fm->blocks[fbn] + run ||
            HaveDirtyBlock(ino, next_fbn)) {
          break;
        }
        run++;
      }
      // One coalesced fetch for the whole run; blocks still sitting in the
      // writer buffer or the read cache are served in place, so the device
      // sees only the uncached stretches (each as a single sequential read).
      LFS_RETURN_IF_ERROR(ReadLogRun(fm->blocks[fbn], run, out.subspan(done, run * bs)));
      done += run * bs;
      continue;
    }
    std::vector<uint8_t> block(bs);
    LFS_RETURN_IF_ERROR(ReadFileBlock(fm, ino, fbn, block));
    std::memcpy(out.data() + done, block.data() + in_block, chunk);
    done += chunk;
  }
  imap_.SetAtime(ino, clock_.Tick());
  return want;
}

Status LfsFileSystem::TruncateLocked(InodeNum ino, uint64_t new_size) {
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (fm->inode.type == FileType::kDirectory) {
    return IsADirectoryError("cannot truncate a directory");
  }
  if (new_size == fm->inode.size) {
    return OkStatus();
  }
  const uint32_t bs = sb_.block_size;
  if (new_size < fm->inode.size) {
    LFS_RETURN_IF_ERROR(ShrinkFileMap(ino, fm, BlockCountFor(new_size)));
    if (new_size % bs != 0) {
      // Zero the tail of the boundary block so later extensions read zeros.
      uint64_t fbn = new_size / bs;
      std::vector<uint8_t> block(bs);
      LFS_RETURN_IF_ERROR(ReadFileBlock(fm, ino, fbn, block));
      std::memset(block.data() + new_size % bs, 0, bs - new_size % bs);
      StoreDirtyBlock(ino, fbn, std::move(block));
    }
    if (new_size == 0) {
      // Truncation to zero bumps the file version (Section 3.3): all old log
      // blocks of this file become recognizably dead to the cleaner.
      imap_.Restore(ino, [&] {
        ImapEntry e = imap_.Get(ino);
        e.version++;
        return e;
      }());
      fm->inode.version = imap_.Get(ino).version;
    }
  } else {
    if (new_size > sb_.max_file_bytes()) {
      return OutOfRangeError("truncate past the largest file the block tree addresses (" +
                             std::to_string(sb_.max_file_bytes()) + " bytes)");
    }
    LFS_RETURN_IF_ERROR(EnsureSpaceForWrite(0));
    LFS_RETURN_IF_ERROR(GrowFileMap(fm, BlockCountFor(new_size)));  // a hole
  }
  fm->inode.size = new_size;
  fm->inode.mtime = clock_.Tick();
  fm->inode_dirty = true;
  MarkInodeDirty(ino);
  return OkStatus();
}

Status LfsFileSystem::Truncate(InodeNum ino, uint64_t new_size) {
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kTruncate, device_, &clock_, ino);
  return RunMutation(kTruncateReserve, [&] {
    InodeLockSet il(ilocks_, {ino}, /*exclusive=*/true);
    return TruncateLocked(ino, new_size);
  });
}

// --- flush machinery -----------------------------------------------------------

Status LfsFileSystem::FlushDirLog() {
  std::vector<DirLogRecord> records;
  {
    std::lock_guard<std::mutex> lk(dirlog_mu_);
    records.swap(pending_dirlog_);
  }
  if (records.empty()) {
    return OkStatus();
  }
  const uint32_t bs = sb_.block_size;
  const size_t header = 6;  // magic + count
  std::vector<DirLogRecord> batch;
  size_t batch_bytes = header;
  auto emit = [&]() -> Status {
    if (batch.empty()) {
      return OkStatus();
    }
    std::vector<uint8_t> block = EncodeDirLogBlock(batch, bs);
    SummaryEntry entry{BlockKind::kDirLog, kNilInode, 0, 0};
    // Dirlog blocks are never live for the cleaner: they only matter during
    // roll-forward over the post-checkpoint log tail.
    LFS_RETURN_IF_ERROR(writer_.Append(entry, std::move(block), clock_.Now(),
                                       /*live_bytes=*/0).status());
    batch.clear();
    batch_bytes = header;
    return OkStatus();
  };
  for (DirLogRecord& rec : records) {
    size_t rs = DirLogRecordEncodedSize(rec);
    if (batch_bytes + rs > bs) {
      LFS_RETURN_IF_ERROR(emit());
    }
    batch_bytes += rs;
    batch.push_back(std::move(rec));
  }
  return emit();
}

Status LfsFileSystem::FlushFileMetadata() {
  const uint32_t bs = sb_.block_size;
  const uint32_t ppb = sb_.pointers_per_block();
  const std::set<InodeNum> dirty = TakeDirtyInodes();

  // Pass 1: indirect blocks (and double-indirect roots), so the inodes
  // written in pass 2 carry final pointers.
  for (InodeNum ino : dirty) {
    FileMap* fmp = FindFileMap(ino);
    if (fmp == nullptr) {
      continue;  // deleted before the flush
    }
    FileMap& fm = *fmp;
    for (uint32_t ind : fm.dirty_ind) {
      std::vector<uint8_t> block;
      block.reserve(bs);
      Encoder enc(&block);
      for (uint32_t j = 0; j < ppb; j++) {
        uint64_t fbn = kNumDirect + uint64_t{ind} * ppb + j;
        enc.PutU64(fbn < fm.blocks.size() ? fm.blocks[fbn] : kNilBlock);
      }
      SummaryEntry entry{BlockKind::kIndirect, ino, ind, fm.inode.version};
      LFS_ASSIGN_OR_RETURN(BlockNo addr,
                           writer_.Append(entry, std::move(block), fm.inode.mtime, bs));
      BlockNo old = fm.ind_addrs[ind];
      SegNo old_seg = sb_.SegOf(old);
      if (old != kNilBlock && old_seg != kNilSeg) {
        usage_.SubLive(old_seg, bs);
      }
      fm.ind_addrs[ind] = addr;
    }
    fm.dirty_ind.clear();
    if (fm.dind_dirty && fm.ind_addrs.size() > 1) {
      std::vector<uint8_t> block;
      block.reserve(bs);
      Encoder enc(&block);
      for (uint32_t j = 0; j < ppb; j++) {
        uint64_t idx = uint64_t{j} + 1;
        enc.PutU64(idx < fm.ind_addrs.size() ? fm.ind_addrs[idx] : kNilBlock);
      }
      SummaryEntry entry{BlockKind::kDoubleIndirect, ino, 0, fm.inode.version};
      LFS_ASSIGN_OR_RETURN(BlockNo addr,
                           writer_.Append(entry, std::move(block), fm.inode.mtime, bs));
      BlockNo old = fm.dind_addr;
      SegNo old_seg = sb_.SegOf(old);
      if (old != kNilBlock && old_seg != kNilSeg) {
        usage_.SubLive(old_seg, bs);
      }
      fm.dind_addr = addr;
    }
    fm.dind_dirty = false;
    // Final pointers into the inode.
    for (uint32_t i = 0; i < kNumDirect; i++) {
      fm.inode.direct[i] = i < fm.blocks.size() ? fm.blocks[i] : kNilBlock;
    }
    fm.inode.single_indirect = fm.ind_addrs.empty() ? kNilBlock : fm.ind_addrs[0];
    fm.inode.double_indirect = fm.dind_addr;
  }

  // Pass 2: pack dirty inodes into inode blocks (several per block; Figure 1
  // shows inodes written adjacent to the data they describe).
  std::vector<InodeNum> todo;
  todo.reserve(dirty.size());
  for (InodeNum ino : dirty) {
    if (FindFileMap(ino) != nullptr) {
      todo.push_back(ino);
    }
  }
  const uint32_t per_block = sb_.inodes_per_block();
  for (size_t i = 0; i < todo.size(); i += per_block) {
    size_t group = std::min<size_t>(per_block, todo.size() - i);
    std::vector<uint8_t> block(bs, 0);
    uint64_t mtime = 0;
    for (size_t s = 0; s < group; s++) {
      FileMap& fm = *FindFileMap(todo[i + s]);
      fm.inode.EncodeTo(std::span<uint8_t>(block).subspan(s * kInodeSlotSize, kInodeSlotSize));
      mtime = std::max(mtime, fm.inode.mtime);
    }
    SummaryEntry entry{BlockKind::kInodeBlock, todo[i], 0, 0};
    LFS_ASSIGN_OR_RETURN(
        BlockNo addr,
        writer_.Append(entry, std::move(block), mtime,
                       static_cast<uint32_t>(group * kInodeSlotSize)));
    for (size_t s = 0; s < group; s++) {
      InodeNum ino = todo[i + s];
      ImapEntry old = imap_.Get(ino);
      SegNo old_seg = sb_.SegOf(old.inode_block);
      if (old.allocated() && old_seg != kNilSeg) {
        usage_.SubLive(old_seg, kInodeSlotSize);
      }
      imap_.SetLocation(ino, addr, static_cast<uint16_t>(s));
      FindFileMap(ino)->inode_dirty = false;
    }
  }
  return OkStatus();
}

Status LfsFileSystem::FlushDirtyData() {
  LFS_RETURN_IF_ERROR(MaybeClean());
  return FlushDirtyDataInner();
}

Status LfsFileSystem::FlushDirtyDataInner() {
  // Directory-operation-log records must reach the log before the directory
  // blocks and inodes they describe (Section 4.2).
  LFS_RETURN_IF_ERROR(FlushDirLog());

  const uint32_t bs = sb_.block_size;
  uint64_t flushed = 0;
  // Snapshot the batch so nothing that re-enters (checkpoints, cleaning) can
  // invalidate the iteration.
  auto batch = TakeDirtyBatch();
  // std::map ordering gives (ino, fbn) order: blocks of a file, and files
  // created together, land adjacently in the log — the paper's temporal
  // locality.
  for (auto& [key, data] : batch) {
    auto [ino, fbn] = key;
    LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
    SummaryEntry entry{BlockKind::kData, ino, fbn, fm->inode.version};
    LFS_ASSIGN_OR_RETURN(BlockNo addr,
                         writer_.Append(entry, std::move(data), fm->inode.mtime, bs));
    BlockNo old = fbn < fm->blocks.size() ? fm->blocks[fbn] : kNilBlock;
    SegNo old_seg = sb_.SegOf(old);
    if (old != kNilBlock && old_seg != kNilSeg) {
      usage_.SubLive(old_seg, bs);
    }
    fm->blocks[fbn] = addr;
    MarkIndirectDirty(fm, fbn);
    MarkInodeDirty(ino);
    flushed++;
  }
  LFS_RETURN_IF_ERROR(FlushFileMetadata());
  LFS_RETURN_IF_ERROR(writer_.Flush());
  bytes_since_checkpoint_ += flushed * bs;
  return OkStatus();
}

void LfsFileSystem::TrimFileCache() {
  // Trim clean cached file maps and directories; dirty state always stays.
  // Candidates are visited in ascending inode order across shards, so what
  // is evicted does not depend on the shard count. Caller holds fs_mu_
  // exclusive.
  size_t total = LoadedFileMapCount();
  if (total <= kFileCacheCap) {
    return;
  }
  std::vector<InodeNum> inos;
  inos.reserve(total);
  for (InodeTableShard& shard : itable_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [ino, fm] : shard.files) {
      inos.push_back(ino);
    }
  }
  std::sort(inos.begin(), inos.end());
  for (InodeNum ino : inos) {
    InodeTableShard& shard = TableShard(ino);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.files.find(ino);
    if (it == shard.files.end()) {
      continue;
    }
    const FileMap& fm = it->second;
    bool clean = !fm.inode_dirty && fm.dirty_ind.empty() && !fm.dind_dirty &&
                 dirty_inodes_.count(ino) == 0 && ino != kRootInode &&
                 shard.dirs.find(ino) == shard.dirs.end();
    if (clean) {
      shard.files.erase(it);
      total--;
    }
    if (total <= kFileCacheCap / 2) {
      break;
    }
  }
}

Status LfsFileSystem::CommitBatch() {
  // Caller holds the committer token (txn_.EndOp returned true, or an
  // equivalent external BeginCommit): new BeginOp/reader arrivals are gated,
  // so the exclusive acquisition below only waits for in-flight shared
  // holders to drain.
  Status st;
  {
    std::unique_lock<std::shared_mutex> lock(fs_mu_);
    st = FlushDirtyData();
    if (st.ok()) {
      st = MaybeAutoCheckpoint();
    }
    TrimFileCache();
  }
  txn_.EndCommit();
  return st;
}

Status LfsFileSystem::EndMutation(uint64_t reserved, Status st) {
  // The commit trigger is the staged-block count reaching the write-buffer
  // size; EndOp also latches a commit when a shared transaction's space
  // budget is exhausted.
  if (txn_.EndOp(reserved, dirty_count_.load() >= cfg_.write_buffer_blocks)) {
    Status cst = CommitBatch();
    if (st.ok()) {
      st = cst;
    }
  }
  MaybeKickCleaner();
  return st;
}

void LfsFileSystem::MaybeKickCleaner() {
  if (!cleaner_running_.load()) {
    return;
  }
  // Lock-free peek at the clean-segment count; the cleaner thread re-checks
  // thresholds under the exclusive lock, so a stale read only costs a kick.
  if (usage_.clean_count() < EffectiveCleanLo()) {
    KickCleaner();
  }
}

Status LfsFileSystem::MaybeAutoCheckpoint() {
  if (cfg_.checkpoint_interval_bytes == 0 ||
      bytes_since_checkpoint_ < cfg_.checkpoint_interval_bytes) {
    return OkStatus();
  }
  return CheckpointImpl(/*flush_buffered=*/true);
}

}  // namespace lfs
