// LfsFileSystem: the log-structured filesystem (the paper's contribution).
//
// All modifications — file data, indirect blocks, inodes, directory data,
// inode-map and segment-usage chunks, and directory-operation-log records —
// are appended to a segmented log through SegmentWriter. Reading uses the
// inode map to locate inodes and ordinary FFS-style inode/indirect indexing
// from there (Section 3.1), so read cost matches a conventional filesystem.
//
// Dirty data is buffered in memory and written in large batches (Section 2);
// the segment cleaner (Sections 3.3-3.6) regenerates clean segments using a
// pluggable policy (greedy or cost-benefit with age-sorting); crash recovery
// (Section 4) uses alternating checkpoint regions plus roll-forward over the
// log tail, with a directory operation log restoring directory/inode
// consistency.
//
// Implementation is split across:
//   lfs.cpp            construction, mkfs/mount/unmount, checkpointing
//   lfs_io.cpp         file maps, read/write/truncate, flush machinery
//   lfs_namespace.cpp  directories: lookup/create/unlink/rename/readdir
//   lfs_cleaner.cpp    segment cleaning mechanism and policies
//   lfs_recovery.cpp   roll-forward and log-tail scanning

#ifndef LFS_LFS_LFS_H_
#define LFS_LFS_LFS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/cache/block_cache.h"
#include "src/disk/block_device.h"
#include "src/fs/clock.h"
#include "src/fs/directory.h"
#include "src/fs/file_system.h"
#include "src/lfs/cleaner_governor.h"
#include "src/lfs/cleaner_qos.h"
#include "src/lfs/config.h"
#include "src/lfs/inode_map.h"
#include "src/lfs/layout.h"
#include "src/lfs/seg_usage.h"
#include "src/lfs/segment_writer.h"
#include "src/lfs/stats.h"
#include "src/obs/obs.h"
#include "src/util/relaxed.h"
#include "src/util/retry.h"

namespace lfs {

struct MountOptions {
  // Scan the log tail after the last checkpoint and recover recently written
  // data (Section 4.2). With false, data after the last checkpoint is
  // discarded, as on the paper's production systems.
  bool roll_forward = true;

  // Refuse every mutation (forensics / inspection mounts). Roll-forward is
  // still performed in memory so reads see the recovered state, but nothing
  // is written back until a read-write mount.
  bool read_only = false;
};

// How writable the filesystem currently is. kDegradedReadOnly is entered at
// runtime when the media can no longer persist a checkpoint (both regions
// failing); reads keep working but every mutation is refused, so the
// on-disk image stays exactly as of the last successful checkpoint.
enum class MountState {
  kReadWrite,
  kReadOnly,          // requested via MountOptions
  kDegradedReadOnly,  // forced by media failure
};

// Snapshot of filesystem-wide health/capacity (statfs analogue).
struct LfsStatFs {
  uint64_t total_bytes = 0;        // capacity of the segment area
  uint64_t live_bytes = 0;
  uint32_t nsegments = 0;
  uint32_t clean_segments = 0;
  uint32_t quarantined_segments = 0;
  MountState state = MountState::kReadWrite;
};

class LfsFileSystem : public FileSystem {
 public:
  // Formats the device and returns a mounted filesystem with an empty root
  // directory.
  static Result<std::unique_ptr<LfsFileSystem>> Mkfs(BlockDevice* device, const LfsConfig& cfg);

  // Mounts an existing filesystem; runs crash recovery if the log tail
  // extends past the newest checkpoint.
  static Result<std::unique_ptr<LfsFileSystem>> Mount(BlockDevice* device, const LfsConfig& cfg,
                                                      const MountOptions& opts = MountOptions{});

  // Stops the background cleaner thread (if running) before tearing down.
  ~LfsFileSystem() override;
  LfsFileSystem(const LfsFileSystem&) = delete;
  LfsFileSystem& operator=(const LfsFileSystem&) = delete;

  // --- threading model -----------------------------------------------------------
  //
  // One front end serves every caller, on one thread or many. fs_mu_
  // protects only truly global transitions — batch commit, checkpointing,
  // segment allocation/cleaning, mount/unmount — and *every* file operation
  // runs under it SHARED. Isolation between operations comes from striped
  // per-inode reader-writer locks (ilocks_): readers take their inode's
  // stripe shared, mutators exclusive, and multi-inode ops (rename, link)
  // acquire all involved stripes in ascending stripe order (InodeLockSet)
  // so overlapping ops cannot deadlock. Mutators additionally join the open
  // group-commit transaction (txn_, xv6-style BeginOp/EndOp): they reserve
  // worst-case log space, stage dirty blocks into sharded write buffers,
  // and the last op out of a transaction whose buffer crossed the flush
  // threshold becomes the committer — CommitBatch() takes fs_mu_ exclusive
  // and flushes the whole batch while the next transaction opens. A lone
  // caller is a transaction of one op: it commits exactly when the staged
  // count reaches the write-buffer size. Readers poll
  // txn_.WaitNotCommitting() before locking so a committer is never
  // starved. Shared in-memory state is sharded or internally synchronized:
  // the inode table (loaded FileMaps and Directories) and the dirty-block buffer
  // are sharded by inode, the inode map and segment-usage table carry
  // internal locks, and counters are relaxed atomics. Lock order:
  //
  //   txn_ gate (never waited on while holding any lock below)
  //   cleaner_mu_ (never held while acquiring fs_mu_)
  //   fs_mu_  ->  inode stripes (ascending) ->  itable/dirty shard mu |
  //               dirty_inodes_mu_ | dirlog_mu_ | read_cache_'s BlockCache shard mu |
  //               InodeMap::mu_ | SegUsage::mu_ | SegmentWriter log mu
  //           ->  device mutexes (SimDisk / MemDisk / BlockCache shards)
  //
  // Path resolution locks one directory stripe (shared) at a time and
  // re-verifies the final components under the op's inode locks, retrying
  // if a concurrent rename/unlink moved them — whole-path races keep POSIX
  // last-writer-wins semantics.
  //
  // With cfg.concurrent set, Mkfs/Mount also start a background cleaner
  // thread; MaybeClean then only cleans synchronously below the critical
  // floor and otherwise kicks the thread (the paper's background cleaning
  // "when the disk is idle", Section 4). The cleaner thread and every other
  // exclusive section enter through the transaction gate (ExclusiveSection),
  // so relocation never interleaves with a half-staged batch.

  // --- FileSystem interface ----------------------------------------------------

  Result<InodeNum> Create(std::string_view path) override;
  Status Mkdir(std::string_view path) override;
  Status Unlink(std::string_view path) override;
  Status Rmdir(std::string_view path) override;
  Status Link(std::string_view existing, std::string_view link_path) override;
  Status Rename(std::string_view from, std::string_view to) override;
  Result<InodeNum> Lookup(std::string_view path) override;
  Result<FileStat> Stat(InodeNum ino) override;
  Result<std::vector<DirEntry>> ReadDir(std::string_view path) override;
  Status WriteAt(InodeNum ino, uint64_t offset, std::span<const uint8_t> data) override;
  Result<uint64_t> ReadAt(InodeNum ino, uint64_t offset, std::span<uint8_t> out) override;
  Status Truncate(InodeNum ino, uint64_t new_size) override;
  Status Sync() override;

  // --- LFS-specific operations ---------------------------------------------------

  // Flushes everything and writes a checkpoint region (Section 4.1).
  Status WriteCheckpoint();

  // Writes a checkpoint region covering only what is already in the log
  // (no data/dirlog flush). Used by the cleaner to advance the roll-forward
  // boundary so post-checkpoint segments become cleanable; buffered state
  // stays buffered and its dirlog records stay pending, so a crash after
  // this checkpoint still recovers consistently.
  Status LightCheckpoint();

  // Clean unmount: checkpoint, after which remount needs no roll-forward.
  Status Unmount();

  // Runs one cleaning pass regardless of thresholds (reads up to
  // config.segments_per_pass segments). Returns segments reclaimed.
  Result<uint32_t> ForceClean();

  // Introspection for tests and consistency checks: the current disk
  // addresses of a file's data blocks (kNilBlock for holes).
  Result<std::vector<BlockNo>> FileBlockAddresses(InodeNum ino);

  // Scans the log and returns live bytes attributable to each BlockKind
  // (index = kind value) — Table 4's "Live data" column. Expensive: reads
  // every dirty segment's summaries and payloads.
  Result<std::array<uint64_t, 8>> LiveBytesByKind();

  // --- introspection (tests, benchmarks, examples) --------------------------------

  // Victim selection under cfg.policy for every log, exposed for the
  // hot-path benchmark: the cleaner's own selector (below) without the
  // governor's decision. It pops candidates from the incrementally
  // maintained index in SegUsage (O(k log n)) without mutating filesystem
  // state. The selection test checks the index against a scan-and-sort of
  // seg_usage().
  std::vector<SegNo> SelectSegmentsToClean(uint32_t max_segments);

  // Fine-grained reclamation introspection (tests/benches).
  const CleanerGovernor& cleaner_governor() const { return governor_; }
  const CleanerQos& cleaner_qos() const { return qos_; }

  const Superblock& superblock() const { return sb_; }
  const LfsConfig& config() const { return cfg_; }
  const SegUsage& seg_usage() const { return usage_; }
  const InodeMap& inode_map() const { return imap_; }
  const LfsStats& stats() const { return stats_; }
  LfsStats& mutable_stats() { return stats_; }
  // Observability: per-op latency histograms + (when compiled in) the event
  // trace. Latencies are modeled-disk-time deltas; see src/obs/obs.h.
  const obs::FsObs& obs() const { return obs_; }
  obs::FsObs& mutable_obs() { return obs_; }
  LogicalClock& clock() { return clock_; }
  // Current writability ladder position and capacity/health snapshot.
  MountState mount_state() const {
    if (degraded_) {
      return MountState::kDegradedReadOnly;
    }
    return read_only_ ? MountState::kReadOnly : MountState::kReadWrite;
  }
  bool degraded() const { return degraded_; }
  LfsStatFs StatFs() const;
  uint32_t clean_segments() const { return usage_.clean_count(); }
  double disk_utilization() const { return usage_.DiskUtilization(); }
  uint64_t dirty_buffered_blocks() const { return dirty_count_.load(); }

 private:
  LfsFileSystem(BlockDevice* device, const LfsConfig& cfg, const Superblock& sb);

  // In-memory index state of one file: the inode plus a flat fbn->address
  // array materialized from the direct/indirect pointers. Indirect block
  // addresses are tracked so the cleaner can liveness-check them; dirty
  // indices are re-serialized to the log when the inode is flushed.
  struct FileMap {
    Inode inode;
    std::vector<BlockNo> blocks;     // fbn -> disk address (kNilBlock = hole)
    std::vector<BlockNo> ind_addrs;  // [i] = indirect block covering fbns
                                     // [kNumDirect + i*ppb, +ppb); [0] is the
                                     // inode's single-indirect pointer
    BlockNo dind_addr = kNilBlock;   // double-indirect root
    std::set<uint32_t> dirty_ind;
    bool dind_dirty = false;
    bool inode_dirty = false;
  };

  // One partial-segment write parsed back from the log.
  struct ParsedPartial {
    SegNo seg = 0;
    uint32_t offset = 0;  // block index of the summary within the segment
    SegmentSummary summary;
    std::vector<uint8_t> payload;  // entries.size() blocks
  };

  // --- shared helpers (lfs.cpp) ---

  // All device I/O from the filesystem goes through these: transient
  // kIoError failures are retried per cfg_ with exponential backoff modeled
  // on the logical clock; exhausting the attempts bumps io_retry_failures.
  Status DeviceRead(BlockNo block, uint64_t count, std::span<uint8_t> out) const;
  Status DeviceWrite(BlockNo block, uint64_t count, std::span<const uint8_t> data);
  // Irreversibly flips the filesystem into degraded read-only mode (media
  // can no longer persist a checkpoint); every later mutation is refused.
  void EnterDegradedReadOnly(const char* why);

  // Lock-free body of both public checkpoint entry points, for internal
  // callers that already hold fs_mu_ (fs_mu_ is not recursive).
  // With flush_buffered (WriteCheckpoint) buffered data and dirlog records
  // are flushed first; without it (LightCheckpoint) the checkpoint covers
  // only what already reached the segment writer.
  Status CheckpointImpl(bool flush_buffered);

  Status LoadFromCheckpoint(const Checkpoint& ck);
  Status WriteCheckpointRegion();
  Status FlushMetadataChunks();      // dirty imap + usage chunks to the log
  void SweepZeroLiveSegments();      // dirty && live==0 -> clean (post-checkpoint)
  Status RecomputeSegmentUsage(SegNo seg, uint32_t stop_offset);
  // How far into `seg` the written chain can extend: the append point when
  // the segment is some log's active segment, else the whole segment. Scans
  // every log, so multi-log mounts bound chain walks correctly.
  uint32_t SegmentStopOffset(SegNo seg) const;
  // Issues TRIM for segments freed since the last drain, called only after
  // a checkpoint region made the frees durable. Free on devices that ignore
  // it; lets an SSD backend drop dead flash pages instead of copying them in
  // GC. Failures are ignored: trim is advisory.
  void TrimFreedSegments();
  // Segments that must never be recycled right now: the active segment, the
  // hosts of current in-memory metadata chunks, and the hosts of chunks
  // referenced by either on-disk checkpoint region (a torn checkpoint write
  // falls back to the older region, so both must stay readable). Returned as
  // a per-segment bitmap so the cleaner's hot path does no ordered-set
  // lookups or node allocations.
  std::vector<uint8_t> ProtectedSegmentBitmap() const;

  // --- I/O core (lfs_io.cpp) ---

  Result<FileMap*> GetFileMap(InodeNum ino);
  Result<FileMap> LoadFileMap(const Inode& inode) const;  // materialize pointers
  Result<Inode> ReadInodeFromDisk(InodeNum ino) const;
  // cfg_.verify_read_crcs support: walks the summary chain of addr's segment
  // and checks the payload CRC of every partial covering [addr, addr+count),
  // returning a pinpointed kCorruption on mismatch. Blocks still in the
  // writer buffer or past the written chain verify trivially.
  Status VerifyLogBlockCrcs(BlockNo addr, uint64_t count) const;
  // Reads `count` consecutively addressed blocks into `out`, serving each
  // from the writer buffer or read_cache_ when possible and fetching the
  // uncached stretches with single run-granular device reads that also
  // populate read_cache_.
  Status ReadLogRun(BlockNo addr, uint64_t count, std::span<uint8_t> out) const;
  void StoreDirtyBlock(InodeNum ino, uint64_t fbn, std::vector<uint8_t> data);
  Status ReadFileBlock(FileMap* fm, InodeNum ino, uint64_t fbn, std::span<uint8_t> out);
  void MarkIndirectDirty(FileMap* fm, uint64_t fbn);
  Status GrowFileMap(FileMap* fm, uint64_t new_block_count);
  Status ShrinkFileMap(InodeNum ino, FileMap* fm, uint64_t new_block_count);
  Status FlushDirtyData();           // MaybeClean + FlushDirtyDataInner
  // The flush body: dirlog records, data blocks, indirect blocks, inodes —
  // in that order, with no cleaning trigger. The cleaner calls this directly
  // before writing inodes so an inode never reaches the log ahead of data it
  // points to (a crash would otherwise recover the file as silent zeros).
  Status FlushDirtyDataInner();
  Status FlushDirLog();
  Status FlushFileMetadata();        // dirty indirect blocks + inode blocks
  Status CheckWritable() const;      // kReadOnly on read-only mounts
  Status MaybeAutoCheckpoint();
  Status EnsureSpaceForWrite(uint64_t new_blocks);
  uint64_t BlockCountFor(uint64_t size) const {
    return (size + sb_.block_size - 1) / sb_.block_size;
  }

  // --- group commit front end (lfs_io.cpp) ---

  // Two-inode ordering helper: both stripes exclusive, ascending stripe
  // order (rename/link paths; same-stripe pairs collapse to one).
  InodeLockSet LockInodePair(InodeNum a, InodeNum b) {
    return InodeLockSet(ilocks_, {a, b}, /*exclusive=*/true);
  }
  // RAII for global exclusive sections (commit, checkpoint, cleaner pass,
  // unmount): closes the group-commit transaction gate — draining in-flight
  // mutators and stopping new ones — before taking fs_mu_ exclusive, so the
  // acquisition cannot be starved by the shared-mode operation stream.
  class ExclusiveSection {
   public:
    explicit ExclusiveSection(LfsFileSystem* fs) : fs_(fs) {
      fs_->txn_.BeginCommit();
      lock_ = std::unique_lock<std::shared_mutex>(fs_->fs_mu_);
    }
    ~ExclusiveSection() {
      lock_.unlock();
      fs_->txn_.EndCommit();
    }
    ExclusiveSection(const ExclusiveSection&) = delete;
    ExclusiveSection& operator=(const ExclusiveSection&) = delete;

   private:
    LfsFileSystem* fs_;
    std::unique_lock<std::shared_mutex> lock_;
  };
  // The committer side of a transaction: called by the op that won the
  // token from txn_.EndOp(). Flushes the staged batch (and possibly an
  // automatic checkpoint) under fs_mu_ exclusive, then reopens the gate.
  Status CommitBatch();
  // Evicts clean FileMaps past the cache cap (caller holds fs_mu_ exclusive).
  void TrimFileCache();
  // Lock-free cleaner nudge for the mutation path (EndOp sites).
  void MaybeKickCleaner();
  // Runs one mutation as an op of the open group-commit transaction: joins
  // it reserving `reserve` worst-case log blocks, runs `body` under fs_mu_
  // shared once CheckWritable passes (body takes its own inode stripes),
  // then leaves through EndMutation. Returns body's status unless the
  // commit itself failed.
  template <typename Body>
  Status RunMutation(uint64_t reserve, Body&& body) {
    txn_.BeginOp(reserve);
    Status st;
    {
      std::shared_lock<std::shared_mutex> lock(fs_mu_);
      st = CheckWritable();
      if (st.ok()) {
        st = body();
      }
    }
    return EndMutation(reserve, st);
  }
  // Stages one slice of WriteAt(ino, offset, data), from *pos up to the
  // block that fills the write buffer, advancing *pos. The write's first
  // slice also stamps mtime and checks space for the whole write's growth.
  // Caller holds fs_mu_ shared, the inode's stripe exclusive, and an open
  // transaction; never flushes (the group commit does).
  Status WriteAtSlice(InodeNum ino, uint64_t offset, std::span<const uint8_t> data,
                      bool first, uint64_t* pos);
  // Truncate body; caller holds the inode's stripe exclusive.
  Status TruncateLocked(InodeNum ino, uint64_t new_size);

  // --- sharded in-memory tables ---

  // Shard of the in-memory inode tables (loaded FileMaps + parsed
  // directories). std::map nodes are stable, so handed-out pointers survive
  // unrelated inserts/erases in the same shard; erasure of an inode's own
  // state only happens under its stripe lock (or fs_mu_ exclusive).
  struct InodeTableShard {
    mutable std::mutex mu;
    std::map<InodeNum, FileMap> files;
    std::map<InodeNum, Directory> dirs;
  };
  // Shard of the write buffer: staged dirty data blocks keyed (ino, fbn).
  struct DirtyShard {
    mutable std::mutex mu;
    std::map<std::pair<InodeNum, uint64_t>, std::vector<uint8_t>> blocks;
  };

  uint32_t ShardOf(InodeNum ino) const { return static_cast<uint32_t>(ino) & shard_mask_; }
  InodeTableShard& TableShard(InodeNum ino) { return itable_[ShardOf(ino)]; }
  const InodeTableShard& TableShard(InodeNum ino) const { return itable_[ShardOf(ino)]; }
  // Loaded-FileMap lookup without loading (nullptr if absent).
  FileMap* FindFileMap(InodeNum ino);
  void EraseInodeState(InodeNum ino);  // drops files+dirs entries for ino
  void ClearInodeTables();             // unmount/recovery reset
  size_t LoadedFileMapCount() const;
  // Dirty write-buffer accessors (shard mutex inside; dirty_count_ tracks
  // the total so hot paths never sum shards).
  bool CopyDirtyBlock(InodeNum ino, uint64_t fbn, std::span<uint8_t> out) const;
  bool HaveDirtyBlock(InodeNum ino, uint64_t fbn) const;
  void EraseDirtyBlock(InodeNum ino, uint64_t fbn);
  // Merges all shards into one (ino, fbn)-ordered batch and empties them,
  // so the flush order does not depend on the shard count.
  std::map<std::pair<InodeNum, uint64_t>, std::vector<uint8_t>> TakeDirtyBatch();
  void MarkInodeDirty(InodeNum ino);
  // Snapshots-and-clears the dirty-inode set (flush path, fs_mu_ exclusive).
  std::set<InodeNum> TakeDirtyInodes();

  // Closes out a mutation: drops the op and its `reserved` blocks from the
  // open transaction (EndOp), runs CommitBatch if this op drew the committer
  // token, and nudges the background cleaner. Returns `st` unless the commit
  // itself failed.
  Status EndMutation(uint64_t reserved, Status st);

  // --- namespace (lfs_namespace.cpp) ---

  Result<Directory*> GetDirectory(InodeNum dir_ino);
  Result<InodeNum> LookupInDir(InodeNum dir_ino, std::string_view name);
  // Path resolution: walks one component at a time taking only that
  // directory's stripe (shared) for the lookup, holding zero stripes
  // between components — so resolution can never deadlock with an op's
  // ordered multi-stripe acquisition. Callers re-verify the final component
  // under their op's locks and retry if it moved (POSIX last-writer-wins
  // for whole-path races).
  Result<InodeNum> LookupInDirTransient(InodeNum dir_ino, std::string_view name);
  Result<InodeNum> WalkPath(std::string_view path);
  // The parent directory of `path` (which must be a directory) and the
  // final component.
  Result<std::pair<InodeNum, std::string>> ResolveParent(std::string_view path);
  // Namespace op tails: the caller holds fs_mu_ shared plus the involved
  // inode stripes exclusive (ascending order), with the final path
  // components re-verified under those stripes.
  Result<InodeNum> CreateLocked(InodeNum dir_ino, const std::string& name,
                                std::string_view path);
  Status MkdirLocked(InodeNum dir_ino, const std::string& name, std::string_view path);
  Status UnlinkLocked(InodeNum dir_ino, const std::string& name, InodeNum ino,
                      std::string_view path);
  Status RmdirLocked(InodeNum dir_ino, const std::string& name, InodeNum ino,
                     std::string_view path);
  // Unlink/Rmdir body: resolves `path`'s entry, locks its directory and
  // target (lock-and-verify), and runs `tail` on them.
  using RemoveTail = Status (LfsFileSystem::*)(InodeNum dir_ino, const std::string& name,
                                                InodeNum ino, std::string_view path);
  Status RemoveEntry(std::string_view path, RemoveTail tail);
  Status LinkLocked(InodeNum ino, InodeNum dir_ino, const std::string& name,
                    std::string_view link_path);
  Status RenameLocked(InodeNum from_dir, const std::string& from_name, InodeNum ino,
                      InodeNum to_dir, const std::string& to_name, std::string_view to);
  Status AddDirEntry(InodeNum dir_ino, const DirEntry& entry);
  Status RemoveDirEntry(InodeNum dir_ino, std::string_view name);
  // Stages block `fbn` of `dir` as the directory file's dirty block.
  Status WriteDirBlock(InodeNum dir_ino, const Directory& dir, uint64_t fbn);
  Status DeleteFileContents(InodeNum ino);  // frees all blocks + the inode
  void LogDirOp(DirLogRecord record);

  // --- cleaner (lfs_cleaner.cpp) ---

  Status MaybeClean();               // run passes while below clean_lo
  // Background cleaner thread (cfg_.concurrent). The thread sleeps on
  // cleaner_cv_ and, when kicked, takes fs_mu_ exclusively and runs
  // MaybeClean. It releases cleaner_mu_ before touching fs_mu_, and
  // KickCleaner only takes cleaner_mu_ momentarily, so the two mutexes are
  // never held across each other in conflicting order.
  void StartCleanerThread();
  void StopCleanerThread();   // idempotent; joins the thread
  void CleanerThreadMain();
  void KickCleaner();
  // Below this many usable clean segments the foreground write path cleans
  // synchronously instead of delegating, so a burst cannot outrun the
  // background thread and hit the writer's hard reserve.
  uint32_t CriticalCleanFloor() const;
  // Thresholds clamped so small filesystems do not demand an impossible
  // fraction of clean segments (Sprite's "few tens" presumes >1000 segments).
  uint32_t EffectiveCleanLo() const;
  uint32_t EffectiveCleanHi() const;
  Result<uint32_t> CleanerPass();    // returns source segments reclaimed
  // The victim selector: up to max_segments dirty segments that fit the
  // clean-segment budget, skipping protected segments and the roll-forward
  // tail. Log 0 is ordered by decision.hot_policy, colder logs by
  // cold_policy. With the governor off one cursor covers every log; with it
  // on each log has its own cursor and they take turns (deterministically).
  std::vector<SegNo> SelectSegmentsToClean(uint32_t max_segments,
                                           const GovernorDecision& decision);
  // The liveness rule (Section 3.3). An inode slot is live when the inode
  // map still places its inode there; fn runs for each live slot of inode
  // block `addr` and stops the walk with its first error.
  Status ForEachLiveInode(BlockNo addr, std::span<const uint8_t> content,
                          const std::function<Status(const Inode&)>& fn);
  // Live bytes of one logged block: the whole block for live data, indirect
  // and chunk blocks, kInodeSlotSize per live inode slot, 0 for dirlog
  // blocks and unknown kinds. `content` is read only for inode blocks.
  Result<uint32_t> LiveBytes(const SummaryEntry& entry, BlockNo addr,
                             std::span<const uint8_t> content);
  // `drain_src` != kNilSeg marks a partial-compaction relocation: the moved
  // bytes are debited off that victim immediately (kData and the metadata
  // chunks; indirect/inode rewrites already debit their old addresses in
  // FlushFileMetadata), since the victim stays kDirty instead of being
  // zeroed wholesale by a clean transition.
  Status MigrateLiveBlock(const SummaryEntry& entry, BlockNo addr,
                          std::vector<uint8_t> content, SegNo drain_src = kNilSeg);
  // One live block queued for rewriting at the log head.
  struct LiveBlock {
    SummaryEntry entry;
    BlockNo addr = kNilBlock;
    std::vector<uint8_t> content;
    SegNo drain_src = kNilSeg;  // partial compaction: debit this victim on move
  };
  // Collects a segment's live blocks, either by reading the whole segment
  // (the paper's conservative default) or by reading summaries first and
  // then only the live block runs (cleaner_read_live_blocks_only, and
  // partial compaction).
  // `media_damage` is set when the segment could not be fully collected
  // because of unreadable or CRC-failing blocks; whatever live blocks were
  // recovered before the damage are still appended to `out`.
  Status CollectLiveBlocksWhole(SegNo seg, std::vector<LiveBlock>* out, bool* media_damage);
  // The summary-first walk starts at block offset `start`, stops at the
  // first partial-write boundary once `max_blocks` live blocks are gathered,
  // and tags each with `drain_src`. Returns the offset where the walk
  // stopped, or segment_blocks when it reached the end of the chain.
  Result<uint32_t> CollectLiveBlocksSparse(SegNo seg, uint32_t start, uint32_t max_blocks,
                                           SegNo drain_src, std::vector<LiveBlock>* out,
                                           bool* media_damage);

  // --- recovery (lfs_recovery.cpp) ---

  // Walks `seg`'s chain through DeviceRead (see SegmentChain).
  SegmentChain Chain(SegNo seg, uint32_t start_offset, uint32_t stop_offset) const;
  // Reads the chain of one segment from start_offset, payloads included, and
  // returns its partials with sequence number min_seq or above. The chain
  // also ends at a payload that is unreadable or fails its CRC; `end`, if
  // given, receives why it ended.
  std::vector<ParsedPartial> ParseSegmentChain(SegNo seg, uint32_t start_offset,
                                               uint32_t stop_offset, uint64_t min_seq,
                                               ChainEnd* end = nullptr);
  Status RollForward(const Checkpoint& ck);
  // alloc_versions: per-inode versions observed at allocation (kCreate
  // records) within the replay window, used to tell apart generations of a
  // reused inode number.
  Status ApplyDirLogFix(const DirLogRecord& rec,
                        const std::map<InodeNum, std::vector<uint32_t>>& alloc_versions);

  // --- state ---

  BlockDevice* device_;
  LfsConfig cfg_;
  Superblock sb_;
  // Mutable: retried device reads on const paths advance the backoff clock
  // and bump retry counters (and emit trace records).
  mutable LogicalClock clock_;
  mutable LfsStats stats_;
  mutable obs::FsObs obs_;
  RetryPolicy retry_policy_;  // RetryPolicy{}: 4 attempts, backoff from 1 tick
  InodeMap imap_;
  SegUsage usage_;
  SegmentWriter writer_;
  CleanerGovernor governor_;  // adaptive policy switching (cfg.adaptive_cleaning)
  CleanerQos qos_;            // cleaner copy-I/O token bucket (cfg.cleaner_qos_*)

  // Group-commit transaction gate + striped per-inode locks.
  GroupCommit txn_;
  InodeLockTable ilocks_;
  uint32_t shard_mask_ = 0;  // itable_/dirty_shards_ size - 1 (power of two)
  std::vector<InodeTableShard> itable_;        // loaded file maps + directories
  std::vector<DirtyShard> dirty_shards_;       // buffered dirty data blocks
  Relaxed<uint64_t> dirty_count_{0};           // total staged blocks, all shards
  std::set<InodeNum> dirty_inodes_;            // guarded by dirty_inodes_mu_
  mutable std::mutex dirty_inodes_mu_;
  std::vector<DirLogRecord> pending_dirlog_;   // guarded by dirlog_mu_
  std::mutex dirlog_mu_;

  // Clean-block read cache of segment blocks (null when
  // cfg_.read_cache_blocks == 0). Frames are tagged with their segment's
  // write sequence number, which changes whenever the segment is recycled,
  // so no explicit invalidation hooks are needed. Without cfg_.concurrent it
  // has one shard with the full capacity, so a single caller's evictions,
  // and with them its device reads, do not depend on how addresses hash to
  // shards.
  std::unique_ptr<cache::BlockCache> read_cache_;

  // Reader-writer regime over all filesystem state (see the threading-model
  // note above); const read paths lock it shared, hence mutable.
  mutable std::shared_mutex fs_mu_;

  // Background cleaner thread state (cfg_.concurrent only).
  std::thread cleaner_thread_;
  std::mutex cleaner_mu_;
  std::condition_variable cleaner_cv_;
  bool cleaner_stop_ = false;   // guarded by cleaner_mu_
  bool cleaner_kick_ = false;   // guarded by cleaner_mu_
  std::atomic<bool> cleaner_running_{false};

  uint32_t cr_next_ = 0;            // which checkpoint region to write next
  std::set<SegNo> cr_hosts_[2];     // chunk-host segments referenced by each CR
  uint64_t ckpt_seq_ = 0;           // last checkpoint's sequence number
  uint64_t ckpt_boundary_seq_ = 1;  // summaries >= this were written post-checkpoint
  uint64_t bytes_since_checkpoint_ = 0;
  bool in_cleaner_ = false;
  bool in_recovery_ = false;
  bool in_checkpoint_ = false;
  bool read_only_ = false;
  bool degraded_ = false;  // media forced us read-only (sticky)
};

}  // namespace lfs

#endif  // LFS_LFS_LFS_H_
