// SegmentWriter: the log append path (Sections 3.2-3.3).
//
// Callers Append() blocks; the writer assigns each a disk address inside an
// active segment, buffers it, and emits *partial-segment writes* — one
// summary block followed by the payload blocks, issued as a single
// sequential device I/O. A partial write is emitted when the buffered batch
// reaches the segment end, when the summary block's entry capacity is
// reached, or when the caller flushes.
//
// The writer never overwrites anything: when a segment fills it advances to
// the next clean segment (taken from the segment usage table). The ordinary
// write path may not consume the last `reserve` clean segments; only the
// cleaner (set_cleaning(true)) may, which guarantees the cleaner always has
// room to compact into.
//
// Multi-log mode (num_logs > 1, the SSDFS-style flash optimization): the
// writer keeps N independent append points and classifies each block by
// temperature at write time — metadata and freshly written data go to log 0,
// older data (whose age says it will live a while) to the cold logs. The
// cleaner passes blocks through with their original mtimes, so survivors of
// cleaning land in cold segments instead of remixing into hot ones; segment
// populations separate by temperature and both the LFS cleaner and a flash
// device's internal GC find near-uniform segments to reclaim. One global
// summary sequence spans all logs, so roll-forward's contiguous-prefix rule
// is unchanged. num_logs == 1 is byte-identical to the classic single-log
// writer.

#ifndef LFS_LFS_SEGMENT_WRITER_H_
#define LFS_LFS_SEGMENT_WRITER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/disk/block_device.h"
#include "src/fs/clock.h"
#include "src/lfs/layout.h"
#include "src/lfs/seg_usage.h"
#include "src/lfs/stats.h"
#include "src/util/relaxed.h"

namespace lfs {

// GroupCommit: xv6-style transaction counting (kernel/log.c begin_op/end_op)
// for every filesystem mutation. Mutators join the open transaction with
// BeginOp(), reserving their worst-case staged log blocks, stage their dirty
// blocks under the filesystem's *shared* lock, and leave with EndOp(). When a
// leaving op asks for a commit (write buffer full) the *last op out* of the
// transaction wins the committer token: EndOp returns true exactly once, the
// winner flushes the whole batch to the segment writer under the exclusive
// filesystem lock, and EndCommit() opens the next transaction. While a commit
// is in flight BeginOp blocks, so relocation/checkpointing never interleaves
// with a half-staged batch; readers poll WaitNotCommitting() before taking
// the shared lock so the committer's exclusive acquisition cannot be starved
// by a continuous reader stream.
//
// A lone caller is a transaction of one op. Until two ops of the open
// transaction overlap, EndOp hands each op's reservation back, so sequential
// ops commit only when one asks to — where a flush-when-full write path would
// flush. Once two ops have overlapped, every reservation is kept until the
// commit and the budget bounds the shared batch.
//
// External exclusive sections (checkpoint, cleaner pass, unmount) use
// BeginCommit()/EndCommit() directly: BeginCommit closes the transaction to
// new ops and waits for in-flight ones to drain before the caller takes the
// filesystem lock exclusively.
class GroupCommit {
 public:
  // `max_staged_blocks` bounds the transaction's total worst-case reserved
  // log blocks before further BeginOps wait for a commit.
  explicit GroupCommit(uint64_t max_staged_blocks)
      : max_staged_(max_staged_blocks == 0 ? 1 : max_staged_blocks) {}

  // Joins the open transaction, reserving `blocks` worst-case staged blocks.
  // Blocks while a commit is in flight, the transaction is at its op cap, or
  // the reservation budget is exhausted (a lone op is always admitted so an
  // oversized reservation cannot deadlock).
  void BeginOp(uint64_t blocks) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] {
      return !committing_ && outstanding_ < kMaxOps &&
             (outstanding_ == 0 || reserved_ + blocks <= max_staged_);
    });
    overlapped_ = overlapped_ || outstanding_ > 0;
    outstanding_++;
    reserved_ += blocks;
  }

  // Leaves the transaction; `blocks` is what the matching BeginOp reserved.
  // `want_commit` requests a batch commit (typically: the write buffer
  // crossed its flush threshold); the request is sticky and the last op out
  // of the transaction wins the committer token. Returns true iff the caller
  // became the committer and MUST call Commit-flush work followed by
  // EndCommit().
  bool EndOp(uint64_t blocks, bool want_commit) {
    std::lock_guard<std::mutex> lk(mu_);
    outstanding_--;
    if (!overlapped_) {
      reserved_ -= blocks;
    }
    if (want_commit || reserved_ >= max_staged_) {
      commit_requested_ = true;
    }
    if (outstanding_ == 0 && commit_requested_ && !committing_) {
      set_committing(true);  // token handed to this caller atomically
      commit_requested_ = false;
      return true;
    }
    cv_.notify_all();
    return false;
  }

  // Claims the committer token from outside the op path (checkpoint, sync,
  // cleaner thread, unmount): waits out any in-flight commit, closes the
  // transaction to new ops, and drains the in-flight ones.
  void BeginCommit() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !committing_; });
    set_committing(true);
    cv_.wait(lk, [&] { return outstanding_ == 0; });
  }

  // Releases the committer token and opens the next transaction. The staged
  // reservation resets: every exclusive section flushes the staged batch.
  void EndCommit() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      set_committing(false);
      commit_requested_ = false;
      overlapped_ = false;
      reserved_ = 0;
    }
    cv_.notify_all();
  }

  // Cheap reader-side gate (lock-free fast path): spins down into a cv wait
  // only while a commit is in flight. Readers call this *before* taking the
  // filesystem shared lock, never while holding it.
  void WaitNotCommitting() const {
    if (!committing_flag_.load()) {
      return;
    }
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !committing_; });
  }

 private:
  // committing_ is authoritative under mu_; committing_flag_ mirrors it for
  // the lock-free reader gate.
  void set_committing(bool v) {
    committing_ = v;
    committing_flag_.store(v);
  }

  // At most this many mutators share one open transaction; bounds both the
  // commit batch and how long the committer waits for stragglers to drain.
  static constexpr uint32_t kMaxOps = 64;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  const uint64_t max_staged_;
  uint32_t outstanding_ = 0;   // ops inside the open transaction
  uint64_t reserved_ = 0;      // worst-case staged blocks of the transaction
  bool overlapped_ = false;    // two ops of the open transaction overlapped
  bool committing_ = false;
  bool commit_requested_ = false;
  Relaxed<bool> committing_flag_{false};
};

class FramePool;

// One block-sized buffer from a FramePool: a staged block, an encoded
// metadata block, or a summary. Move-only; it goes back to its pool when
// destroyed.
class Frame {
 public:
  std::span<uint8_t> span() const { return {data_.get(), size_}; }

 private:
  friend class FramePool;
  struct GiveBack {
    FramePool* pool;
    void operator()(uint8_t* data) const;
  };
  Frame(FramePool* pool, uint8_t* data, uint32_t size) : data_(data, GiveBack{pool}), size_(size) {}

  std::unique_ptr<uint8_t[], GiveBack> data_;
  uint32_t size_ = 0;
};

// The free list frames come from and return to. It allocates only when the
// list is empty and keeps at most `max_free` returned frames, freeing any
// past that. `mu_` is a leaf lock: frames return from under inode-table
// shard mutexes (a FileMap's destruction) and from the writer's log mutexes.
// The pool must outlive every frame it hands out.
class FramePool {
 public:
  FramePool(uint32_t block_size, size_t max_free) : block_size_(block_size), max_free_(max_free) {}

  Frame Take();

 private:
  friend class Frame;
  void Give(uint8_t* data);

  const uint32_t block_size_;
  const size_t max_free_;
  std::mutex mu_;
  std::vector<std::unique_ptr<uint8_t[]>> free_;
};

class SegmentWriter {
 public:
  // Writes one partial, `count` blocks from `block` on, gathered from
  // `parts`, to the device. The file system passes its one device-write path
  // (retries, fault counters, trace events).
  using Writer = std::function<Status(BlockNo block, uint64_t count, WriteParts parts)>;

  // `clock` (may be null) is the live clock the multi-log age heuristic
  // reads. The frame pool keeps up to `write_buffer_blocks` plus one
  // partial's worth of free frames.
  SegmentWriter(Writer write, const Superblock* sb, SegUsage* usage, LfsStats* stats,
                uint32_t reserve_segments, LogicalClock* clock = nullptr,
                uint32_t num_logs = 1, uint32_t write_buffer_blocks = 0)
      : write_(std::move(write)),
        sb_(sb),
        usage_(usage),
        stats_(stats),
        reserve_segments_(reserve_segments),
        clock_(clock),
        pool_(sb->block_size, size_t{write_buffer_blocks} + sb->max_summary_entries()),
        logs_(num_logs == 0 ? 1 : num_logs) {}

  // A frame for the caller to fill: a block to stage, or a metadata block
  // to encode and then Append.
  Frame TakeFrame() { return pool_.Take(); }

  // Positions the log tail (mkfs / mount / recovery). The segment must
  // already be marked kActive in the usage table. Resets every other log to
  // "no segment" — they re-acquire clean segments on first use (or are
  // re-positioned with InitLog from the checkpoint's per-log records).
  void Init(SegNo segment, uint32_t offset, uint64_t next_seq);

  // Positions one of the extra logs (mount path, from the checkpoint's
  // per-log append-point records). The segment must be kActive.
  void InitLog(uint32_t log, SegNo segment, uint32_t offset);

  // Appends one block to the log by reference: neither form copies it.
  // `entry` identifies the block for the summary; `mtime` is the
  // modification time used for segment age tracking (the cleaner passes the
  // block's original age through so cold data keeps looking cold);
  // `live_bytes` is the amount this block adds to its segment's live count
  // (block size for most kinds, the used slot bytes for inode blocks, 0 for
  // dirlog blocks which are dead once checkpointed). Returns the assigned
  // disk address. The block is durable only after its partial is written.
  //
  // The Frame form takes `frame` only when it succeeds; on an error the
  // caller still holds it. The span form refers to bytes the caller keeps
  // unchanged until the partial holding them is written (the cleaner's
  // victim buffers).
  //
  // `cold_hint` (multi-log only) is the migration-ladder directive: the
  // cleaner passes 1 + the log it wants the block in (clamped to the coldest
  // log that exists). 0 means no hint — the age heuristic decides.
  Result<BlockNo> Append(const SummaryEntry& entry, Frame& frame, uint64_t mtime,
                         uint32_t live_bytes, uint32_t cold_hint = 0) {
    return AppendBlock(entry, frame.span(), &frame, mtime, live_bytes, cold_hint);
  }
  Result<BlockNo> Append(const SummaryEntry& entry, std::span<const uint8_t> data,
                         uint64_t mtime, uint32_t live_bytes, uint32_t cold_hint = 0) {
    return AppendBlock(entry, data, nullptr, mtime, live_bytes, cold_hint);
  }

  // Emits the buffered partial writes of every log, if any.
  Status Flush();

  // Ensures the next metadata Append has a destination (flushing/advancing
  // segments as needed) WITHOUT appending anything. Afterwards
  // current_segment() is where that append will land — callers that must
  // account a block's effects in the block's own serialized contents (the
  // segment-usage chunk covering the active segment) use this to pre-account
  // before serializing. Metadata always routes to log 0.
  Status PrepareAppend() {
    std::lock_guard<std::mutex> lk(logs_[0].mu);
    return EnsureRoom(logs_[0], 0);
  }

  // Reads a not-yet-flushed block back by address (the read path must see
  // buffered log blocks). Returns false if the address is not buffered.
  bool ReadBuffered(BlockNo addr, std::span<uint8_t> out) const;

  // Cleaning mode: appended bytes count as cleaning traffic and the reserve
  // segments become usable.
  void set_cleaning(bool cleaning) { cleaning_ = cleaning; }
  bool cleaning() const { return cleaning_; }

  // Privileged mode (checkpointing): may dip into the reserve so a
  // checkpoint can always complete — checkpoints are what turn dead
  // segments back into clean ones, so refusing them would deadlock the log.
  void set_privileged(bool privileged) { privileged_ = privileged; }

  // The metadata log's append point (log 0) — the position checkpoints and
  // pre-accounting reason about.
  SegNo current_segment() const { return logs_[0].cur_seg; }
  uint32_t current_offset() const {
    return logs_[0].cur_offset + PendingBlocks(logs_[0]);
  }

  // Per-log append points (log 0 == current_segment()/current_offset()).
  uint32_t num_logs() const { return static_cast<uint32_t>(logs_.size()); }
  SegNo log_segment(uint32_t log) const { return logs_[log].cur_seg; }
  uint32_t log_offset(uint32_t log) const {
    return logs_[log].cur_offset + PendingBlocks(logs_[log]);
  }

  uint64_t next_seq() const { return next_seq_; }
  uint64_t timestamp() const { return timestamp_; }
  void set_timestamp(uint64_t t) { timestamp_ = t; }

  // Clean segments still usable by the ordinary (non-cleaning) write path.
  uint32_t usable_clean_segments() const {
    uint32_t n = usage_->clean_count();
    return n > reserve_segments_ ? n - reserve_segments_ : 0;
  }

 private:
  // One append point: an active segment plus the open partial buffered into
  // it. Log 0 carries metadata (and, in multi-log mode, hot data); higher
  // logs carry progressively colder data.
  //
  // Concurrency: `mu` is the per-log append lock — Append/Flush serialize on
  // the log they touch, so concurrent appends to *distinct* logs are safe
  // with respect to each other (num_logs > 1).
  // Lock-free readers of the append point (ReadBuffered, log_offset) are
  // instead fenced by the filesystem rwlock: appends only ever run under the
  // exclusive filesystem lock (group commit, cleaner, checkpoint), readers
  // under the shared one.
  //
  // `partial` is the open partial's summary: its entries (possibly none)
  // and youngest mtime, stamped and encoded into frames[0] when it is
  // written. `parts` is the open partial as it goes to the device: part 0
  // the summary block, part 1 + i entry i's payload, each a reference to a
  // block in `frames` or in a caller's buffer. The payload's frames go back
  // to the pool once the partial is written; a failed device write leaves
  // all of it intact for the re-driven flush.
  struct Log {
    SegNo cur_seg = kNilSeg;
    uint32_t cur_offset = 0;  // next free block index within cur_seg
    SegmentSummary partial;
    std::vector<std::span<const uint8_t>> parts;
    std::vector<Frame> frames;
    mutable std::mutex mu;
  };

  static uint32_t PendingBlocks(const Log& log) {
    const size_t n = log.partial.entries.size();
    return n == 0 ? 0 : static_cast<uint32_t>(n) + 1;
  }

  // Write-time temperature classification: which log should hold this block.
  uint32_t ClassifyLog(const SummaryEntry& entry, uint64_t mtime, uint32_t cold_hint);

  // Both Append forms: `data` is the block; `frame`, when not null, owns it
  // and moves into the open partial once the append succeeds.
  Result<BlockNo> AppendBlock(const SummaryEntry& entry, std::span<const uint8_t> data,
                              Frame* frame, uint64_t mtime, uint32_t live_bytes,
                              uint32_t cold_hint);

  // Ensures an open partial with room for one more block; may flush and/or
  // advance to a new segment. These three run with the log's append lock
  // (log.mu) held by the caller.
  Status EnsureRoom(Log& log, uint32_t log_index);
  Status AdvanceSegment(Log& log, uint32_t log_index);
  Status FlushLog(Log& log);

  Writer write_;
  const Superblock* sb_;
  SegUsage* usage_;
  LfsStats* stats_;
  uint32_t reserve_segments_;
  LogicalClock* clock_;

  // Declared before logs_, so the frames the logs hold return to a live pool.
  FramePool pool_;
  std::vector<Log> logs_;
  // ONE sequence across all logs (roll-forward order); atomic so concurrent
  // flushes of distinct logs draw unique seqs. FlushLog rolls it back on a
  // failed device write while still holding that log's append lock.
  std::atomic<uint64_t> next_seq_{1};
  Relaxed<uint64_t> timestamp_{0};  // logical time stamped into summaries
  Relaxed<bool> cleaning_{false};
  Relaxed<bool> privileged_{false};

  // Running mean of data-block ages seen at Append (logical-clock units);
  // the hot/cold boundary. Freshly written data has age ~0 (hot); blocks the
  // cleaner migrates keep their original mtime and look old (cold). Updated
  // with plain relaxed load/store — a lost update under concurrent appends
  // only nudges a heuristic.
  Relaxed<double> age_ewma_{0.0};
};

}  // namespace lfs

#endif  // LFS_LFS_SEGMENT_WRITER_H_
