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
#include <iterator>
#include <string>
#include <utility>

#include "src/lfs/lfs.h"

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
      payload.resize(size_t{chain.payload_blocks()} * sb_.block_size);
      Status st = chain.ReadPayload(payload);
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

// --- the inode table ------------------------------------------------------------

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
}

void LfsFileSystem::ClearInodeTables() {
  for (InodeTableShard& shard : itable_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.files.clear();
  }
}

void LfsFileSystem::MarkInodeDirty(InodeNum ino) {
  std::lock_guard<std::mutex> lock(dirty_inodes_mu_);
  dirty_inodes_.insert(ino);
}

const Frame* LfsFileSystem::FileMap::FindStaged(uint64_t fbn) const {
  auto it = std::ranges::lower_bound(staged, fbn, {}, &StagedBlock::first);
  return it != staged.end() && it->first == fbn ? &it->second : nullptr;
}

void LfsFileSystem::StageBlock(InodeNum ino, FileMap* fm, uint64_t fbn,
                               std::span<const uint8_t> block) {
  assert(block.size() == sb_.block_size);
  // The flush finds staged blocks through dirty_inodes_. An inode leaves the
  // set only once the flush has taken its staged blocks or its map is
  // erased, so a map that already holds a staged block is in the set.
  if (fm->staged.empty()) {
    MarkInodeDirty(ino);
  }
  // A block already staged is overwritten in place.
  auto it = std::ranges::lower_bound(fm->staged, fbn, {}, &StagedBlock::first);
  if (it == fm->staged.end() || it->first != fbn) {
    it = fm->staged.emplace(it, fbn, writer_.TakeFrame());
    dirty_count_++;
  }
  std::memcpy(it->second.span().data(), block.data(), block.size());
}

Result<LfsFileSystem::FileMap*> LfsFileSystem::GetFileMap(InodeNum ino) {
  // May run under the shared fs lock (ReadAt, Stat, lookups), so structural
  // access to the shard map is serialized by the shard mutex; its node
  // stability keeps the returned pointer valid after the mutex drops. Two
  // shared holders may both load the map from disk; try_emplace keeps the
  // first.
  InodeTableShard& shard = TableShard(ino);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.files.find(ino);
    if (it != shard.files.end()) {
      return &it->second;
    }
  }
  LFS_ASSIGN_OR_RETURN(Inode inode, ReadInodeFromDisk(ino));
  LFS_ASSIGN_OR_RETURN(BlockTree tree, LoadTree(inode));
  std::lock_guard<std::mutex> lock(shard.mu);
  return &shard.files.try_emplace(ino, inode, std::move(tree)).first->second;
}

void LfsFileSystem::NewFileMap(InodeNum ino, FileType type) {
  FileMap fm(Inode{}, BlockTree(sb_.block_size));
  fm.inode.ino = ino;
  fm.inode.type = type;
  fm.inode.nlink = 1;
  fm.inode.version = imap_.Get(ino).version;
  fm.inode.mtime = clock_.Tick();
  if (type == FileType::kDirectory) {
    fm.dir = std::make_unique<Directory>(sb_.block_size);
  }
  {
    InodeTableShard& shard = TableShard(ino);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.files.insert_or_assign(ino, std::move(fm));
  }
  MarkInodeDirty(ino);
}

Result<BlockTree> LfsFileSystem::LoadTree(const Inode& inode) const {
  return BlockTree::Load(sb_.block_size, inode.size, inode.direct, inode.single_indirect,
                         inode.double_indirect, [this](BlockNo addr, std::span<uint8_t> out) {
                           return ReadLogRun(addr, 1, out);
                         });
}

void LfsFileSystem::DebitLogBlock(BlockNo addr) {
  if (SegNo seg = sb_.SegOf(addr); seg != kNilSeg) {
    usage_.SubLive(seg, sb_.block_size);
  }
}

void LfsFileSystem::ShrinkFileMap(FileMap* fm, uint64_t new_block_count) {
  auto cut = std::ranges::lower_bound(fm->staged, new_block_count, {}, &StagedBlock::first);
  dirty_count_ -= static_cast<uint64_t>(std::distance(cut, fm->staged.end()));
  fm->staged.erase(cut, fm->staged.end());  // the frames go back to the pool
  fm->tree.Shrink(new_block_count, [this](BlockNo addr) { DebitLogBlock(addr); });
}

Status LfsFileSystem::ReadFileBlock(const FileMap* fm, uint64_t fbn,
                                    std::span<uint8_t> out) const {
  if (const Frame* staged = fm->FindStaged(fbn); staged != nullptr) {
    std::memcpy(out.data(), staged->span().data(), out.size());
    return OkStatus();
  }
  const std::vector<BlockNo>& blocks = fm->tree.blocks;
  if (fbn >= blocks.size() || blocks[fbn] == kNilBlock) {
    std::memset(out.data(), 0, out.size());  // hole
    return OkStatus();
  }
  return ReadLogRun(blocks[fbn], 1, out);
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
  uint64_t old_blocks = fm->tree.blocks.size();
  uint64_t new_blocks_total = std::max(old_blocks, BlockCountFor(end));
  if (first) {
    LFS_RETURN_IF_ERROR(EnsureSpaceForWrite(new_blocks_total - old_blocks));
    fm->inode.mtime = clock_.Tick();
  }
  // Every slice (re)grows the map: between slices a commit may have evicted
  // and reloaded it, or a truncate shrunk it. Staging a block marks the
  // inode dirty.
  fm->tree.Grow(new_blocks_total);

  uint64_t staged = 0;
  std::vector<uint8_t> patched;
  while (*pos < end) {
    uint64_t fbn = *pos / bs;
    uint32_t in_block = static_cast<uint32_t>(*pos % bs);
    uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(bs - in_block, end - *pos));
    std::span<const uint8_t> block = data.subspan(*pos - offset, chunk);
    if (chunk != bs) {
      // Partial-block write: read-modify-write against cache or disk.
      patched.resize(bs);
      LFS_RETURN_IF_ERROR(ReadFileBlock(fm, fbn, patched));
      std::memcpy(patched.data() + in_block, block.data(), chunk);
      block = patched;
    }
    StageBlock(ino, fm, fbn, block);
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
  const std::vector<BlockNo>& blocks = fm->tree.blocks;

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
    bool plain_disk_block = in_block == 0 && chunk == bs && fm->FindStaged(fbn) == nullptr &&
                            fbn < blocks.size() && blocks[fbn] != kNilBlock;
    if (plain_disk_block) {
      // Extend the run of contiguous disk blocks.
      uint64_t run = 1;
      while (done + run * bs + bs <= want) {
        uint64_t next_fbn = fbn + run;
        if (next_fbn >= blocks.size() || blocks[next_fbn] != blocks[fbn] + run ||
            fm->FindStaged(next_fbn) != nullptr) {
          break;
        }
        run++;
      }
      // One coalesced fetch for the whole run; blocks still sitting in the
      // writer buffer or the read cache are served in place, so the device
      // sees only the uncached stretches (each as a single sequential read).
      LFS_RETURN_IF_ERROR(ReadLogRun(blocks[fbn], run, out.subspan(done, run * bs)));
      done += run * bs;
      continue;
    }
    std::vector<uint8_t> block(bs);
    LFS_RETURN_IF_ERROR(ReadFileBlock(fm, fbn, block));
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
    // Zero the tail of the boundary block so later extensions read zeros.
    // It is read before the tree is cut, so a failed read leaves the file
    // whole.
    std::vector<uint8_t> boundary;
    if (new_size % bs != 0) {
      boundary.resize(bs);
      LFS_RETURN_IF_ERROR(ReadFileBlock(fm, new_size / bs, boundary));
      std::memset(boundary.data() + new_size % bs, 0, bs - new_size % bs);
    }
    ShrinkFileMap(fm, BlockCountFor(new_size));
    if (!boundary.empty()) {
      StageBlock(ino, fm, new_size / bs, boundary);
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
    fm->tree.Grow(BlockCountFor(new_size));  // a hole
  }
  fm->inode.size = new_size;
  fm->inode.mtime = clock_.Tick();
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
  // The caller holds fs_mu_ exclusive, so no record is queued while this
  // runs. Records leave the queue only once the block holding them is
  // appended; after a failed append the rest stay queued for the next flush.
  if (pending_dirlog_.empty()) {
    return OkStatus();
  }
  const std::span<const DirLogRecord> queue(pending_dirlog_);
  size_t taken = 0;
  Status st;
  while (taken < queue.size()) {
    Frame block = writer_.TakeFrame();
    size_t n = EncodeDirLogBlock(queue.subspan(taken), block.span());
    if (n == 0) {
      // No block can hold this record, so no later flush could log it
      // either: it is dropped, and the commit fails without appending a
      // truncated block. (RenameLocked refuses such a record up front; this
      // stays as a guard.)
      taken++;
      st = InvalidArgumentError("a directory-log record does not fit in one block");
      break;
    }
    // Dirlog blocks are never live for the cleaner: they only matter during
    // roll-forward over the post-checkpoint log tail.
    SummaryEntry entry{BlockKind::kDirLog, kNilInode, 0, 0};
    st = writer_.Append(entry, block, clock_.Now(), /*live_bytes=*/0).status();
    if (!st.ok()) {
      break;
    }
    taken += n;
  }
  pending_dirlog_.erase(pending_dirlog_.begin(), pending_dirlog_.begin() + taken);
  return st;
}

Status LfsFileSystem::FlushFileMetadata(const std::vector<FileMap*>& maps) {
  const uint32_t bs = sb_.block_size;
  // The caller holds fs_mu_ exclusive, so nothing marks an inode dirty while
  // this runs. dirty_inodes_ is emptied only once every inode in it is
  // written: an inode a failed flush left behind stays dirty, and its map
  // stays loaded.

  // Pass 1: indirect blocks (and double-indirect roots), so the inodes
  // written in pass 2 carry final pointers.
  for (FileMap* fm : maps) {
    BlockTree& tree = fm->tree;
    // Appends `block` as a fresh copy of a pointer block and debits the old
    // one.
    auto append = [&](BlockKind kind, uint64_t index, Frame& block, BlockNo* addr) -> Status {
      SummaryEntry entry{kind, fm->inode.ino, index, fm->inode.version};
      LFS_ASSIGN_OR_RETURN(BlockNo fresh, writer_.Append(entry, block, fm->inode.mtime, bs));
      DebitLogBlock(*addr);
      *addr = fresh;
      return OkStatus();
    };
    for (uint64_t ind : tree.dirty_ind) {
      Frame block = writer_.TakeFrame();
      tree.EncodeIndirect(ind, block.span());
      LFS_RETURN_IF_ERROR(append(BlockKind::kIndirect, ind, block, &tree.ind_addrs[ind]));
    }
    tree.dirty_ind.clear();
    if (tree.dind_dirty && tree.ind_addrs.size() > 1) {
      Frame block = writer_.TakeFrame();
      tree.EncodeRoot(block.span());
      LFS_RETURN_IF_ERROR(append(BlockKind::kDoubleIndirect, 0, block, &tree.dind_addr));
    }
    tree.dind_dirty = false;
    tree.StorePointers(fm->inode.direct, &fm->inode.single_indirect, &fm->inode.double_indirect);
  }

  // Pass 2: pack dirty inodes into inode blocks (several per block; Figure 1
  // shows inodes written adjacent to the data they describe).
  const uint32_t per_block = sb_.inodes_per_block();
  for (size_t i = 0; i < maps.size(); i += per_block) {
    size_t group = std::min<size_t>(per_block, maps.size() - i);
    uint64_t mtime = 0;
    Frame block = writer_.TakeFrame();
    for (size_t s = 0; s < group; s++) {
      const Inode& inode = maps[i + s]->inode;
      inode.EncodeTo(block.span().subspan(s * kInodeSlotSize, kInodeSlotSize));
      mtime = std::max(mtime, inode.mtime);
    }
    std::ranges::fill(block.span().subspan(group * kInodeSlotSize), uint8_t{0});
    SummaryEntry entry{BlockKind::kInodeBlock, maps[i]->inode.ino, 0, 0};
    LFS_ASSIGN_OR_RETURN(
        BlockNo addr,
        writer_.Append(entry, block, mtime, static_cast<uint32_t>(group * kInodeSlotSize)));
    for (size_t s = 0; s < group; s++) {
      InodeNum ino = maps[i + s]->inode.ino;
      ImapEntry old = imap_.Get(ino);
      SegNo old_seg = sb_.SegOf(old.inode_block);
      if (old.allocated() && old_seg != kNilSeg) {
        usage_.SubLive(old_seg, kInodeSlotSize);
      }
      imap_.SetLocation(ino, addr, static_cast<uint16_t>(s));
    }
  }
  dirty_inodes_.clear();
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

  // dirty_inodes_ holds every inode with a staged block, in ascending order,
  // and each map holds its blocks in fbn order: blocks of a file, and files
  // created together, land adjacently in the log — the paper's temporal
  // locality. The caller holds fs_mu_ exclusive. A staged block leaves its
  // map only once Append has taken its frame, so after a failed append the
  // rest stay staged for the next flush.
  std::vector<FileMap*> maps;
  maps.reserve(dirty_inodes_.size());
  for (InodeNum ino : dirty_inodes_) {
    if (FileMap* fm = FindFileMap(ino); fm != nullptr) {
      maps.push_back(fm);
    }
  }
  const uint32_t bs = sb_.block_size;
  for (FileMap* fm : maps) {
    size_t taken = 0;
    Status st;
    for (auto& [fbn, frame] : fm->staged) {
      SummaryEntry entry{BlockKind::kData, fm->inode.ino, fbn, fm->inode.version};
      Result<BlockNo> addr = writer_.Append(entry, frame, fm->inode.mtime, bs);
      if (!addr.ok()) {
        st = addr.status();
        break;
      }
      taken++;
      DebitLogBlock(fm->tree.blocks[fbn]);
      fm->tree.blocks[fbn] = *addr;
      fm->tree.MarkDirty(fbn);
    }
    fm->staged.erase(fm->staged.begin(), fm->staged.begin() + taken);
    dirty_count_ -= taken;
    bytes_since_checkpoint_ += taken * bs;
    LFS_RETURN_IF_ERROR(st);
  }
  LFS_RETURN_IF_ERROR(FlushFileMetadata(maps));
  return writer_.Flush();
}

void LfsFileSystem::TrimFileCache() {
  // Trim clean file maps; a dirty one, the root and a loaded directory always
  // stay. Candidates are visited in ascending inode order across shards, so
  // what is evicted does not depend on the shard count. Caller holds fs_mu_
  // exclusive.
  size_t total = 0;
  for (InodeTableShard& shard : itable_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.files.size();
  }
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
    if (dirty_inodes_.count(ino) == 0 && ino != kRootInode && it->second.dir == nullptr) {
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
