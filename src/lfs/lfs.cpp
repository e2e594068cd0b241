// Construction, mkfs/mount, and checkpointing (Section 4.1).

#include "src/lfs/lfs.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace lfs {

namespace {
// Read-cache shards under cfg.concurrent (a power of two).
constexpr uint32_t kReadCacheShards = 16;
}  // namespace

LfsFileSystem::LfsFileSystem(BlockDevice* device, const LfsConfig& cfg, const Superblock& sb)
    : device_(device),
      cfg_(cfg),
      sb_(sb),
      imap_(sb.max_inodes, sb.imap_entries_per_chunk()),
      usage_(sb.nsegments, sb.segment_bytes(), sb.usage_entries_per_chunk()),
      writer_(device, &sb_, &usage_, &stats_, cfg.reserve_segments, &clock_,
              retry_policy_, &obs_, cfg.num_logs),
      // A transaction may reserve four write buffers' worth of worst-case
      // log blocks before further mutators wait for its commit.
      txn_(4 * uint64_t{cfg.write_buffer_blocks}),
      ilocks_(cfg.inode_shards) {
  // The in-memory tables shard like the inode lock stripes.
  shard_mask_ = ilocks_.nstripes() - 1;
  itable_ = std::vector<InodeTableShard>(ilocks_.nstripes());
  dirty_shards_ = std::vector<DirtyShard>(ilocks_.nstripes());
  if (cfg_.read_cache_blocks > 0) {
    read_cache_ = std::make_unique<cache::BlockCache>(
        cache::BlockCacheConfig{.capacity_blocks = cfg_.read_cache_blocks,
                                .shards = cfg_.concurrent ? kReadCacheShards : 1,
                                .block_size = sb_.block_size},
        nullptr);
  }
  governor_.Configure(cfg_);
  qos_.Configure(cfg_.cleaner_qos_bytes_per_sec, cfg_.cleaner_qos_burst_sec);
}

LfsFileSystem::~LfsFileSystem() { StopCleanerThread(); }

Status LfsFileSystem::DeviceRead(BlockNo block, uint64_t count,
                                 std::span<uint8_t> out) const {
  RelaxedDelta<uint64_t> retries(stats_.io_retries);
  Status st = RetryWithBackoff(retry_policy_, &clock_, &stats_.io_retries,
                               [&] { return device_->Read(block, count, out); });
  if (retries.changed()) {
    LFS_TRACE(obs_.tracer(), obs::TraceEventType::kIoRetry, obs::OpType::kNone,
              clock_.Now(), block, retries.delta(), device_->ModeledTime());
  }
  if (!st.ok() && st.code() == StatusCode::kIoError) {
    stats_.io_retry_failures++;
    LFS_TRACE(obs_.tracer(), obs::TraceEventType::kMediaFault, obs::OpType::kNone,
              clock_.Now(), block, static_cast<uint64_t>(st.code()),
              device_->ModeledTime());
  }
  return st;
}

Status LfsFileSystem::DeviceWrite(BlockNo block, uint64_t count,
                                  std::span<const uint8_t> data) {
  RelaxedDelta<uint64_t> retries(stats_.io_retries);
  Status st = RetryWithBackoff(retry_policy_, &clock_, &stats_.io_retries,
                               [&] { return device_->Write(block, count, data); });
  if (retries.changed()) {
    LFS_TRACE(obs_.tracer(), obs::TraceEventType::kIoRetry, obs::OpType::kNone,
              clock_.Now(), block, retries.delta(), device_->ModeledTime());
  }
  if (!st.ok() && st.code() == StatusCode::kIoError) {
    stats_.io_retry_failures++;
    LFS_TRACE(obs_.tracer(), obs::TraceEventType::kMediaFault, obs::OpType::kNone,
              clock_.Now(), block, static_cast<uint64_t>(st.code()),
              device_->ModeledTime());
  }
  return st;
}

void LfsFileSystem::EnterDegradedReadOnly(const char* why) {
  if (degraded_) {
    return;
  }
  degraded_ = true;
  read_only_ = true;
  stats_.degraded_entries++;
  LFS_TRACE(obs_.tracer(), obs::TraceEventType::kDegraded, obs::OpType::kNone,
            clock_.Now(), 0, 0, device_->ModeledTime());
  if (getenv("LFS_DEBUG_FAULTS") != nullptr) {
    std::fprintf(stderr, "lfs: entering degraded read-only mode: %s\n", why);
  }
}

LfsStatFs LfsFileSystem::StatFs() const {
  txn_.WaitNotCommitting();
  std::shared_lock<std::shared_mutex> lock(fs_mu_);
  LfsStatFs out;
  out.total_bytes = uint64_t{sb_.nsegments} * sb_.segment_bytes();
  out.live_bytes = usage_.TotalLiveBytes();
  out.nsegments = sb_.nsegments;
  out.clean_segments = usage_.clean_count();
  out.quarantined_segments = usage_.quarantined_count();
  out.state = mount_state();
  return out;
}

Result<std::unique_ptr<LfsFileSystem>> LfsFileSystem::Mkfs(BlockDevice* device,
                                                           const LfsConfig& cfg) {
  LFS_ASSIGN_OR_RETURN(
      Superblock sb,
      Superblock::Compute(cfg.block_size, device->block_count(), cfg.segment_blocks,
                          cfg.max_inodes));
  if (device->block_size() != cfg.block_size) {
    return InvalidArgumentError("device block size does not match config block size");
  }
  if (sb.nsegments <= cfg.reserve_segments + 2) {
    return InvalidArgumentError("device too small for the configured segment reserve");
  }

  std::vector<uint8_t> block(sb.block_size);
  sb.EncodeTo(block);
  LFS_RETURN_IF_ERROR(device->WriteBlock(0, block));
  // Redundant copy at the last device block (reserved by Compute); mount
  // falls back to it when the primary is unreadable or fails its CRC.
  LFS_RETURN_IF_ERROR(device->WriteBlock(device->block_count() - 1, block));

  auto fs = std::unique_ptr<LfsFileSystem>(new LfsFileSystem(device, cfg, sb));
  // Open the log at segment 0.
  fs->usage_.SetState(0, SegState::kActive);
  fs->writer_.Init(0, 0, /*next_seq=*/1);
  fs->writer_.set_timestamp(fs->clock_.Now());

  // Root directory: empty, no data blocks yet.
  LFS_ASSIGN_OR_RETURN(InodeNum root, fs->imap_.Allocate());
  if (root != kRootInode) {
    return InternalError("mkfs: root inode did not get number 1");
  }
  FileMap root_fm;
  root_fm.inode.ino = kRootInode;
  root_fm.inode.type = FileType::kDirectory;
  root_fm.inode.nlink = 1;
  root_fm.inode.version = fs->imap_.Get(kRootInode).version;
  root_fm.inode.mtime = fs->clock_.Tick();
  root_fm.inode_dirty = true;
  InodeTableShard& root_shard = fs->TableShard(kRootInode);
  root_shard.files[kRootInode] = std::move(root_fm);
  root_shard.dirs.insert_or_assign(kRootInode, Directory(fs->sb_.block_size));
  fs->MarkInodeDirty(kRootInode);

  // Every usage chunk must exist on disk so the checkpoint region is fully
  // populated from the start.
  for (uint32_t c = 0; c < fs->usage_.chunk_count(); c++) {
    fs->usage_.MarkChunkDirty(c);
  }
  LFS_RETURN_IF_ERROR(fs->CheckpointImpl(/*flush_buffered=*/true));
  if (cfg.concurrent) {
    fs->StartCleanerThread();
  }
  return fs;
}

Result<std::unique_ptr<LfsFileSystem>> LfsFileSystem::Mount(BlockDevice* device,
                                                            const LfsConfig& cfg,
                                                            const MountOptions& opts) {
  Status primary_superblock;
  LFS_ASSIGN_OR_RETURN(Superblock sb, ReadSuperblock(device, &primary_superblock));
  // The newest valid checkpoint region wins (Section 4.1).
  CheckpointRegions cr = ReadCheckpointRegions(device, sb);
  if (cr.newest < 0) {
    return CorruptionError("no valid checkpoint region; not an LFS filesystem?");
  }
  const Checkpoint& ck = *cr.regions[cr.newest];

  auto fs = std::unique_ptr<LfsFileSystem>(new LfsFileSystem(device, cfg, sb));
  if (!primary_superblock.ok()) {
    fs->stats_.superblock_fallbacks++;
  }
  fs->cr_next_ = 1 - cr.newest;  // alternate away from the surviving region
  for (int i = 0; i < 2; i++) {
    if (cr.regions[i].ok()) {
      fs->cr_hosts_[i] = cr.regions[i]->ChunkHosts(sb);
    }
  }
  LFS_RETURN_IF_ERROR(fs->LoadFromCheckpoint(ck));

  fs->read_only_ = opts.read_only;
  if (opts.roll_forward) {
    LFS_RETURN_IF_ERROR(fs->RollForward(ck));
  }

  // The persisted usage count for the active segment can be slightly stale:
  // the usage chunks were serialized while the checkpoint itself was still
  // appending to it. Recompute it exactly by scanning. (Older chunk-host
  // segments can at worst UNDERcount their own chunk blocks, which is safe:
  // they are in the protected-segment set, so neither the zero-live sweep nor
  // segment reuse can touch them, and the cleaner verifies liveness block by
  // block anyway.)
  for (uint32_t log = 0; log < fs->writer_.num_logs(); log++) {
    SegNo seg = fs->writer_.log_segment(log);
    if (seg == kNilSeg) {
      continue;
    }
    LFS_RETURN_IF_ERROR(fs->RecomputeSegmentUsage(seg, fs->writer_.log_offset(log)));
  }
  if (cfg.concurrent && !fs->read_only_) {
    fs->StartCleanerThread();
  }
  return fs;
}

Status LfsFileSystem::LoadFromCheckpoint(const Checkpoint& ck) {
  LFS_RETURN_IF_ERROR(ck.ValidateAgainst(sb_));
  LFS_RETURN_IF_ERROR(ck.ValidateSummarySeq());
  clock_.AdvanceTo(ck.clock);
  ckpt_seq_ = ck.ckpt_seq;
  ckpt_boundary_seq_ = ck.next_summary_seq;

  std::vector<uint8_t> block(sb_.block_size);
  // Segment usage table first (needed before any liveness reasoning).
  if (ck.usage_chunk_addr.size() != usage_.chunk_count()) {
    return CorruptionError("checkpoint: wrong usage chunk count");
  }
  for (uint32_t c = 0; c < usage_.chunk_count(); c++) {
    BlockNo addr = ck.usage_chunk_addr[c];
    if (addr == kNilBlock) {
      return CorruptionError("checkpoint: missing usage chunk " + std::to_string(c));
    }
    LFS_RETURN_IF_ERROR(DeviceRead(addr, 1, block));
    usage_.LoadChunk(c, block);
    usage_.set_chunk_addr(c, addr);
  }
  usage_.RecountClean();
  usage_.ClearDirty();

  // Inode map chunks covering the allocated range.
  if (ck.imap_chunk_addr.size() != imap_.chunk_count()) {
    return CorruptionError("checkpoint: wrong imap chunk count");
  }
  uint32_t epc = sb_.imap_entries_per_chunk();
  for (uint32_t c = 0; c < imap_.chunk_count(); c++) {
    BlockNo addr = ck.imap_chunk_addr[c];
    if (uint64_t{c} * epc >= ck.ninodes) {
      break;  // beyond the high-water mark; chunks do not exist yet
    }
    if (addr == kNilBlock) {
      return CorruptionError("checkpoint: missing imap chunk " + std::to_string(c));
    }
    LFS_RETURN_IF_ERROR(DeviceRead(addr, 1, block));
    imap_.LoadChunk(c, block, ck.ninodes);
    imap_.set_chunk_addr(c, addr);
  }
  imap_.RebuildFreeList();
  imap_.ClearDirty();

  if (ck.cur_segment >= sb_.nsegments || ck.cur_offset > sb_.segment_blocks) {
    return CorruptionError("checkpoint: log tail out of range");
  }
  writer_.Init(ck.cur_segment, ck.cur_offset, ck.next_summary_seq);
  writer_.set_timestamp(clock_.Now());
  if (usage_.Get(ck.cur_segment).state != SegState::kActive) {
    usage_.SetState(ck.cur_segment, SegState::kActive);
  }
  // Extra append points (multi-log checkpoints). Entry i belongs to log i+1.
  // Entries beyond the mounted num_logs — or recorded as nil — have no
  // writer position; if the usage table still calls such a segment active
  // (it was an append point when the checkpoint was taken), demote it to
  // dirty so the cleaner can eventually reclaim it.
  for (size_t i = 0; i < ck.extra_logs.size(); i++) {
    auto [seg, off] = ck.extra_logs[i];
    uint32_t log = static_cast<uint32_t>(i) + 1;
    if (seg == kNilSeg || seg >= sb_.nsegments) {
      continue;
    }
    if (off > sb_.segment_blocks) {
      return CorruptionError("checkpoint: log tail out of range");
    }
    if (log < writer_.num_logs()) {
      writer_.InitLog(log, seg, off);
      if (usage_.Get(seg).state != SegState::kActive) {
        usage_.SetState(seg, SegState::kActive);
      }
    } else if (usage_.Get(seg).state == SegState::kActive) {
      usage_.SetState(seg, SegState::kDirty);
    }
  }
  return OkStatus();
}

Status LfsFileSystem::FlushMetadataChunks() {
  std::vector<uint8_t> block(sb_.block_size);

  // Inode map chunks (Table 1 "Inode map"; Table 4 shows these dominate
  // metadata log bandwidth).
  std::vector<uint32_t> imap_dirty = imap_.dirty_chunks();
  for (uint32_t c : imap_dirty) {
    BlockNo old = imap_.chunk_addr(c);
    imap_.EncodeChunk(c, block);
    SummaryEntry entry{BlockKind::kImapChunk, kNilInode, c, 0};
    LFS_ASSIGN_OR_RETURN(BlockNo addr,
                         writer_.Append(entry, std::vector<uint8_t>(block), clock_.Now(),
                                        sb_.block_size));
    SegNo old_seg = sb_.SegOf(old);
    if (old != kNilBlock && old_seg != kNilSeg) {
      usage_.SubLive(old_seg, sb_.block_size);
    }
    imap_.set_chunk_addr(c, addr);
    imap_.ClearDirtyChunk(c);
  }

  // Segment usage chunks. Writing a chunk changes usage (the old chunk's
  // segment loses live bytes, the active segment gains them), so first
  // settle all old-address decrements to a fixpoint, then serialize. The
  // residual imprecision (the active segment's own count growing while its
  // chunk is serialized) is repaired at mount by RecomputeSegmentUsage.
  for (uint32_t log = 0; log < writer_.num_logs(); log++) {
    SegNo seg = writer_.log_segment(log);
    if (seg != kNilSeg) {
      usage_.MarkChunkDirty(usage_.chunk_of(seg));
    }
  }

  // States each usage chunk's latest serialized copy recorded this flush.
  // Empty = not serialized this flush. Such a chunk was necessarily clean
  // when the dirty set was harvested (every chunk dirty at that point gets
  // encoded), so its on-disk copy records exactly the states captured in
  // start_state below — any later transition would have dirtied it.
  std::vector<std::vector<SegState>> enc_state(usage_.chunk_count());
  std::vector<SegState> start_state(sb_.nsegments);
  for (uint32_t s = 0; s < sb_.nsegments; s++) {
    start_state[s] = usage_.Get(s).state;
  }

  auto serialize_dirty = [&]() -> Status {
    std::set<uint32_t> subbed;
    for (;;) {
      bool progress = false;
      std::vector<uint32_t> dirty(usage_.dirty_chunks().begin(), usage_.dirty_chunks().end());
      for (uint32_t c : dirty) {
        if (subbed.count(c) != 0) {
          continue;
        }
        subbed.insert(c);
        progress = true;
        BlockNo old = usage_.chunk_addr(c);
        SegNo old_seg = sb_.SegOf(old);
        if (old != kNilBlock && old_seg != kNilSeg) {
          usage_.SubLive(old_seg, sb_.block_size);
        }
      }
      if (!progress) {
        break;
      }
    }
    // Serialize the chunk covering the active segment last so its contents
    // are as fresh as possible.
    std::vector<uint32_t> order(usage_.dirty_chunks().begin(), usage_.dirty_chunks().end());
    uint32_t active_chunk = usage_.chunk_of(writer_.current_segment());
    std::stable_partition(order.begin(), order.end(),
                          [active_chunk](uint32_t c) { return c != active_chunk; });
    for (uint32_t c : order) {
      // Pre-account the chunk block itself at its (reserved) destination, so
      // the serialized contents already include it — without this, the chunk
      // covering the active segment would always under-report by its own
      // pending append and the on-disk count could never converge.
      LFS_RETURN_IF_ERROR(writer_.PrepareAppend());
      usage_.AddLive(writer_.current_segment(), sb_.block_size, clock_.Now());
      // Clear the flag before serializing: dirtiness created after this point
      // (by later chunks' appends) must survive into the next checkpoint.
      usage_.ClearDirtyChunk(c);
      usage_.EncodeChunk(c, block);
      uint32_t lo = c * usage_.entries_per_chunk();
      uint32_t hi = std::min<uint32_t>(lo + usage_.entries_per_chunk(), sb_.nsegments);
      enc_state[c].resize(hi - lo);
      for (uint32_t s = lo; s < hi; s++) {
        enc_state[c][s - lo] = usage_.Get(s).state;
      }
      SummaryEntry entry{BlockKind::kUsageChunk, kNilInode, c, 0};
      LFS_ASSIGN_OR_RETURN(BlockNo addr,
                           writer_.Append(entry, std::vector<uint8_t>(block), clock_.Now(),
                                          /*live_bytes=*/0));
      usage_.set_chunk_addr(c, addr);
    }
    return OkStatus();
  };
  LFS_RETURN_IF_ERROR(serialize_dirty());

  // A serialization append can cross into a fresh segment AFTER that
  // segment's covering chunk was already encoded. The persisted table would
  // then call a chunk-hosting (or log-head) segment clean — mount trusts
  // clean states enough never to repair them (RecomputeSegmentUsage skips
  // clean segments), a later allocation could overwrite the live chunks, and
  // the offline checker rightly calls the image corrupt. Detect exactly that
  // staleness and re-serialize the affected chunks; a round whose appends
  // stay within the active segment leaves nothing stale, so this converges
  // in one or two extra rounds (each a handful of blocks) in the rare
  // checkpoints that straddle a segment boundary.
  for (int round = 0; round < 8; round++) {
    std::vector<SegNo> hosts;
    for (uint32_t c = 0; c < imap_.chunk_count(); c++) {
      if (imap_.chunk_addr(c) != kNilBlock) {
        hosts.push_back(sb_.SegOf(imap_.chunk_addr(c)));
      }
    }
    for (uint32_t c = 0; c < usage_.chunk_count(); c++) {
      if (usage_.chunk_addr(c) != kNilBlock) {
        hosts.push_back(sb_.SegOf(usage_.chunk_addr(c)));
      }
    }
    for (uint32_t log = 0; log < writer_.num_logs(); log++) {
      hosts.push_back(writer_.log_segment(log));
    }
    bool stale = false;
    for (SegNo s : hosts) {
      if (s == kNilSeg || s >= sb_.nsegments) {
        continue;
      }
      uint32_t cs = usage_.chunk_of(s);
      const std::vector<SegState>& st = enc_state[cs];
      if (st.empty()) {
        // The covering chunk was not serialized this flush, so its on-disk
        // copy records start_state. If that says clean, one of this flush's
        // own appends rolled into the fresh segment afterwards and made it a
        // host — the persisted "clean" would license reuse of a segment
        // holding live metadata. Re-serialize the covering chunk.
        if (start_state[s] == SegState::kClean) {
          usage_.MarkChunkDirty(cs);
          stale = true;
        }
      } else if (st[s - cs * usage_.entries_per_chunk()] == SegState::kClean) {
        usage_.MarkChunkDirty(cs);
        stale = true;
      }
    }
    if (!stale) {
      break;
    }
    LFS_RETURN_IF_ERROR(serialize_dirty());
  }
  return OkStatus();
}

Status LfsFileSystem::WriteCheckpointRegion() {
  LFS_TRACE(obs_.tracer(), obs::TraceEventType::kCheckpointBegin, obs::OpType::kNone,
            clock_.Now(), cr_next_, 0, device_->ModeledTime());
  Checkpoint ck;
  ck.ckpt_seq = ++ckpt_seq_;
  ck.timestamp = clock_.Tick();
  ck.next_summary_seq = writer_.next_seq();
  ck.cur_segment = writer_.current_segment();
  ck.cur_offset = writer_.current_offset();
  ck.ninodes = imap_.ninodes();
  ck.clock = clock_.Now();
  ck.imap_chunk_addr.resize(imap_.chunk_count());
  for (uint32_t c = 0; c < imap_.chunk_count(); c++) {
    ck.imap_chunk_addr[c] = imap_.chunk_addr(c);
  }
  ck.usage_chunk_addr.resize(usage_.chunk_count());
  for (uint32_t c = 0; c < usage_.chunk_count(); c++) {
    ck.usage_chunk_addr[c] = usage_.chunk_addr(c);
  }
  // Multi-log append points (logs 1..N-1; log 0 is cur_segment/cur_offset).
  // Single-log filesystems record nothing, keeping the region byte-identical
  // to the legacy layout.
  for (uint32_t log = 1; log < writer_.num_logs(); log++) {
    ck.extra_logs.emplace_back(writer_.log_segment(log), writer_.log_offset(log));
  }

  std::vector<uint8_t> region(size_t{sb_.cr_blocks} * sb_.block_size);
  ck.EncodeTo(region);
  // Barrier: the log blocks the region points at must be durable before the
  // region is. A device may reorder writes between flushes (a drive's write
  // cache, FileDisk's page cache before fsync), and a region that lands
  // before its chunks names blocks a crash would lose.
  LFS_RETURN_IF_ERROR(device_->Flush());
  // Try the preferred (older) region first; if its media has failed, fall
  // back to the alternate. Overwriting the alternate — the currently-newest
  // valid region — is safe because this checkpoint carries a higher
  // ckpt_seq, so whichever write completes wins at mount. Only when BOTH
  // regions refuse the write is a checkpoint impossible: then nothing may
  // mutate the log further (half of this checkpoint's chunks are already
  // appended), so the filesystem drops to degraded read-only mode.
  Status write_st;
  uint32_t wrote_region = cr_next_;
  for (uint32_t attempt = 0; attempt < 2; attempt++) {
    uint32_t r = attempt == 0 ? cr_next_ : 1 - cr_next_;
    BlockNo base = r == 0 ? sb_.cr_base0 : sb_.cr_base1;
    write_st = DeviceWrite(base, sb_.cr_blocks, region);
    if (write_st.ok()) {
      wrote_region = r;
      if (attempt > 0) {
        stats_.checkpoint_fallbacks++;
      }
      break;
    }
  }
  if (!write_st.ok()) {
    LFS_TRACE(obs_.tracer(), obs::TraceEventType::kCheckpointEnd, obs::OpType::kNone,
              clock_.Now(), wrote_region, 0, device_->ModeledTime());
    EnterDegradedReadOnly(write_st.ToString().c_str());
    return write_st;
  }
  LFS_RETURN_IF_ERROR(device_->Flush());
  stats_.checkpoint_bytes += region.size();
  cr_hosts_[wrote_region] = ck.ChunkHosts(sb_);
  cr_next_ = 1 - wrote_region;
  ckpt_boundary_seq_ = ck.next_summary_seq;
  usage_.MarkFreesDurable();  // freed segments become pickable again
  TrimFreedSegments();        // the frees are durable now
  LFS_TRACE(obs_.tracer(), obs::TraceEventType::kCheckpointEnd, obs::OpType::kNone,
            clock_.Now(), wrote_region, 1, device_->ModeledTime());
  return OkStatus();
}

void LfsFileSystem::TrimFreedSegments() {
  // A segment must still be clean at drain time — one reused since it was
  // freed carries live data again.
  std::vector<SegNo> freed = usage_.TakeFreed();
  for (SegNo seg : freed) {
    if (usage_.Get(seg).state != SegState::kClean) {
      continue;
    }
    Status st = device_->Trim(sb_.SegmentBase(seg), sb_.segment_blocks);
    if (st.ok()) {
      stats_.segments_trimmed++;
    }
    // Trim is advisory: a device that cannot discard (or faults doing so)
    // simply keeps the stale data, which is always safe.
  }
}

std::vector<uint8_t> LfsFileSystem::ProtectedSegmentBitmap() const {
  std::vector<uint8_t> keep(sb_.nsegments, 0);
  auto mark = [&](SegNo s) {
    if (s != kNilSeg && s < sb_.nsegments) {
      keep[s] = 1;
    }
  };
  for (uint32_t c = 0; c < imap_.chunk_count(); c++) {
    mark(sb_.SegOf(imap_.chunk_addr(c)));
  }
  for (uint32_t c = 0; c < usage_.chunk_count(); c++) {
    mark(sb_.SegOf(usage_.chunk_addr(c)));
  }
  for (SegNo s : cr_hosts_[0]) {
    mark(s);
  }
  for (SegNo s : cr_hosts_[1]) {
    mark(s);
  }
  for (uint32_t log = 0; log < writer_.num_logs(); log++) {
    mark(writer_.log_segment(log));
  }
  return keep;
}

void LfsFileSystem::SweepZeroLiveSegments() {
  // A dirty segment with no live bytes can be reused without cleaning
  // (Section 3.6). The sweep runs as part of a checkpoint, BEFORE the usage
  // chunks are serialized, so the checkpoint region itself records the
  // segments as clean — which is what lets the recovery scan skip
  // everything the checkpoint calls dirty. Sweeping segments written since
  // the previous checkpoint is safe: their data is dead, and if this
  // checkpoint's region write tears, the fallback to the older region can
  // at worst lose part of the (already-dead-dominated) post-crash replay
  // tail via a sequence gap — a bounded truncation, never corruption.
  // Segments referenced by the on-disk checkpoint regions stay protected.
  if (usage_.zero_live_dirty_count() == 0) {
    return;
  }
  std::vector<uint8_t> keep = ProtectedSegmentBitmap();
  std::vector<SegNo> zeros;
  usage_.AppendZeroLiveDirty(&zeros);
  for (SegNo seg : zeros) {
    if (keep[seg]) {
      continue;
    }
    usage_.SetState(seg, SegState::kClean);
    // This is the cleaner's u=0 fast path (Section 3.4: an empty segment
    // need not be read at all); count it in the Table 2 statistics.
    stats_.segments_cleaned++;
    stats_.segments_cleaned_empty++;
  }
}

Status LfsFileSystem::WriteCheckpoint() {
  ExclusiveSection sec(this);
  return CheckpointImpl(/*flush_buffered=*/true);
}

Status LfsFileSystem::LightCheckpoint() {
  ExclusiveSection sec(this);
  return CheckpointImpl(/*flush_buffered=*/false);
}

Status LfsFileSystem::CheckpointImpl(bool flush_buffered) {
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kCheckpoint, device_, &clock_);
  // Checkpoints run privileged: they may consume reserve segments, because
  // completing a checkpoint is what returns dead segments to the clean pool.
  in_checkpoint_ = true;
  writer_.set_privileged(true);
  auto done = [this](Status st) {
    writer_.set_privileged(false);
    in_checkpoint_ = false;
    return st;
  };
  // Phase 1: write out all modified information to the log (Section 4.1).
  // A light checkpoint covers only what already reached the segment writer.
  Status st = flush_buffered ? FlushDirtyData() : writer_.Flush();
  if (!st.ok()) {
    return done(st);
  }
  // Sweep dead segments before the usage chunks are serialized, so the
  // checkpoint region records them as clean. Recovery scans only segments
  // the checkpoint says are clean (plus the active one), so reusable
  // segments must be declared in the region itself. If the region write
  // tears, mount falls back to the older region, where they are still
  // dirty — the sweep only ever takes effect together with its checkpoint.
  SweepZeroLiveSegments();
  st = FlushMetadataChunks();
  if (!st.ok()) {
    return done(st);
  }
  st = writer_.Flush();
  if (!st.ok()) {
    return done(st);
  }
  // Phase 2: write the checkpoint region at a fixed position.
  st = WriteCheckpointRegion();
  if (!st.ok()) {
    return done(st);
  }
  stats_.checkpoints++;
  if (flush_buffered) {
    bytes_since_checkpoint_ = 0;
  }
  return done(OkStatus());
}

uint32_t LfsFileSystem::SegmentStopOffset(SegNo seg) const {
  for (uint32_t log = 0; log < writer_.num_logs(); log++) {
    if (writer_.log_segment(log) == seg) {
      return writer_.log_offset(log);
    }
  }
  return sb_.segment_blocks;
}

Status LfsFileSystem::RecomputeSegmentUsage(SegNo seg, uint32_t stop_offset) {
  if (usage_.Get(seg).state == SegState::kClean) {
    return OkStatus();
  }
  uint32_t live = 0;
  uint64_t last_write = 0;
  for (const ParsedPartial& p : ParseSegmentChain(seg, 0, stop_offset, /*min_seq=*/0)) {
    for (size_t i = 0; i < p.summary.entries.size(); i++) {
      const SummaryEntry& e = p.summary.entries[i];
      BlockNo addr = sb_.SegmentBase(seg) + p.offset + 1 + i;
      std::span<const uint8_t> content(p.payload.data() + i * sb_.block_size, sb_.block_size);
      if (e.kind == BlockKind::kInodeBlock) {
        // A live inode slot ages with its own inode's mtime.
        LFS_RETURN_IF_ERROR(ForEachLiveInode(addr, content, [&](const Inode& ino) {
          live += kInodeSlotSize;
          last_write = std::max(last_write, ino.mtime);
          return OkStatus();
        }));
        continue;
      }
      LFS_ASSIGN_OR_RETURN(uint32_t bytes, LiveBytes(e, addr, content));
      if (bytes > 0) {
        live += bytes;
        last_write = std::max(last_write, p.summary.youngest_mtime);
      }
    }
  }
  // Overwrite the persisted estimate with the exact scan result, preserving
  // a non-zero last-write time if the scan found nothing newer.
  SegUsageEntry fixed = usage_.Get(seg);
  uint32_t old_live = fixed.live_bytes;
  if (live > old_live) {
    usage_.AddLive(seg, live - old_live, last_write);
  } else if (live < old_live) {
    usage_.SubLive(seg, old_live - live);
  }
  return OkStatus();
}

Status LfsFileSystem::Sync() {
  ExclusiveSection sec(this);
  if (read_only_) {
    return OkStatus();  // nothing can be dirty
  }
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kSync, device_, &clock_);
  return CheckpointImpl(/*flush_buffered=*/true);
}

Status LfsFileSystem::Unmount() {
  // Stop the background cleaner before taking fs_mu_: the thread acquires
  // fs_mu_ to clean, so joining while holding it would deadlock.
  StopCleanerThread();
  ExclusiveSection sec(this);
  if (read_only_) {
    ClearInodeTables();
    return OkStatus();
  }
  LFS_RETURN_IF_ERROR(CheckpointImpl(/*flush_buffered=*/true));
  ClearInodeTables();
  return OkStatus();
}

Result<FileStat> LfsFileSystem::Stat(InodeNum ino) {
  txn_.WaitNotCommitting();
  std::shared_lock<std::shared_mutex> lock(fs_mu_);
  InodeLockSet il(ilocks_, {ino}, /*exclusive=*/false);
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  FileStat st;
  st.ino = ino;
  st.type = fm->inode.type;
  st.size = fm->inode.size;
  st.nlink = fm->inode.nlink;
  st.mtime = fm->inode.mtime;
  st.version = fm->inode.version;
  return st;
}

Result<uint32_t> LfsFileSystem::ForceClean() {
  ExclusiveSection sec(this);
  LFS_RETURN_IF_ERROR(writer_.Flush());
  LFS_ASSIGN_OR_RETURN(uint32_t reclaimed, CleanerPass());
  // Checkpoint after reclaiming so the recovery scan filter (which probes
  // only checkpoint-clean segments) covers any reuse of the sources.
  if (reclaimed > 0 && !in_checkpoint_ && !in_recovery_) {
    LFS_RETURN_IF_ERROR(CheckpointImpl(/*flush_buffered=*/false));
  }
  return reclaimed;
}

Result<std::vector<BlockNo>> LfsFileSystem::FileBlockAddresses(InodeNum ino) {
  txn_.WaitNotCommitting();
  std::shared_lock<std::shared_mutex> lock(fs_mu_);
  InodeLockSet il(ilocks_, {ino}, /*exclusive=*/false);
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  return fm->blocks;
}

Result<std::array<uint64_t, 8>> LfsFileSystem::LiveBytesByKind() {
  ExclusiveSection sec(this);
  LFS_RETURN_IF_ERROR(FlushDirtyData());
  LFS_RETURN_IF_ERROR(writer_.Flush());
  std::array<uint64_t, 8> live{};
  for (SegNo seg = 0; seg < sb_.nsegments; seg++) {
    if (usage_.Get(seg).state == SegState::kClean) {
      continue;
    }
    for (const ParsedPartial& p : ParseSegmentChain(seg, 0, SegmentStopOffset(seg), 0)) {
      for (size_t i = 0; i < p.summary.entries.size(); i++) {
        const SummaryEntry& e = p.summary.entries[i];
        BlockNo addr = sb_.SegmentBase(seg) + p.offset + 1 + i;
        std::span<const uint8_t> content(p.payload.data() + i * sb_.block_size,
                                         sb_.block_size);
        LFS_ASSIGN_OR_RETURN(uint32_t bytes, LiveBytes(e, addr, content));
        // A summary's kind byte is not range-checked: index only live kinds.
        if (bytes > 0) {
          live[static_cast<size_t>(e.kind)] += bytes;
        }
      }
    }
  }
  return live;
}

}  // namespace lfs
