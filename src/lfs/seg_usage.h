// SegUsage: the segment usage table (Table 1, Section 3.6).
//
// For each segment it records the number of live bytes and the most recent
// modified time of any block in the segment — exactly the two inputs of the
// cost-benefit cleaning policy. Values are maintained incrementally: the
// segment writer adds live bytes as blocks are appended, and the filesystem
// subtracts them as blocks are overwritten, deleted, or migrated by the
// cleaner. If a segment's count falls to zero it can be reused without
// cleaning (after the next checkpoint covers the fact).
//
// Like the inode map, the table lives in memory, is chunked, and dirty
// chunks are logged at checkpoint time with their addresses recorded in the
// checkpoint region.
//
// Concurrency: mutators (AddLive/SubLive/SetState/...) serialize on an
// internal mutex so the filesystem front end may call them under the
// filesystem's *shared* lock (truncate and unlink subtract live bytes while
// other ops run). The hot read-path fields are lock-free relaxed atomics:
// per-segment write sequences (checked on every cached read) and the
// aggregate counters (clean/quarantined/total-live, read by space checks and
// StatFs). Everything that returns references into the table — Get,
// victim-selection cursors, chunk encode/dirty harvest — is checkpoint- or
// cleaner-path state and requires the filesystem's exclusive lock (or a
// quiesced mount path).

#ifndef LFS_LFS_SEG_USAGE_H_
#define LFS_LFS_SEG_USAGE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "src/lfs/layout.h"
#include "src/util/relaxed.h"
#include "src/util/victim_index.h"

namespace lfs {

class SegUsage {
 public:
  SegUsage(uint32_t nsegments, uint32_t segment_bytes, uint32_t entries_per_chunk)
      : segment_bytes_(segment_bytes),
        entries_per_chunk_(entries_per_chunk),
        entries_(nsegments),
        write_seq_(nsegments, 0),
        chunk_addrs_((nsegments + entries_per_chunk - 1) / entries_per_chunk, kNilBlock),
        victim_index_(nsegments, segment_bytes),
        zero_live_words_((nsegments + 63) / 64, 0) {
    clean_count_ = nsegments;
  }

  uint32_t nsegments() const { return static_cast<uint32_t>(entries_.size()); }
  const SegUsageEntry& Get(SegNo seg) const { return entries_[seg]; }
  double Utilization(SegNo seg) const {
    return static_cast<double>(entries_[seg].live_bytes) / segment_bytes_;
  }
  uint32_t clean_count() const { return clean_count_; }
  uint32_t quarantined_count() const { return quarantined_count_; }
  uint32_t segment_bytes() const { return segment_bytes_; }

  // Live-byte accounting. AddLive also refreshes the segment's last-write
  // time when `mtime` is newer.
  void AddLive(SegNo seg, uint32_t bytes, uint64_t mtime);
  void SubLive(SegNo seg, uint32_t bytes);

  void SetState(SegNo seg, SegState state);

  // Tags the segment with the append point (log) that fills it — the
  // persisted temperature label. Dirties the chunk only on change, so
  // single-log filesystems (always log 0, the default) stay byte-identical.
  void SetLogId(SegNo seg, uint8_t log_id);

  // Segments that transitioned into kClean since the last TakeFreed() — the
  // filesystem's TRIM feed. Drained after a checkpoint makes the frees
  // durable; a segment reused (kClean -> kActive) before the drain is simply
  // skipped by the caller's state re-check.
  std::vector<SegNo> TakeFreed() {
    std::vector<SegNo> out;
    out.swap(freed_);
    return out;
  }

  // In-memory only: the newest log sequence number written to the segment.
  // The cleaner refuses to touch segments written after the last checkpoint
  // so that roll-forward's log tail can never be recycled underneath it.
  // Relaxed atomics: the read-cache validity check loads these on every
  // cached read, concurrently with appends.
  void SetWriteSeq(SegNo seg, uint64_t seq) { write_seq_[seg] = seq; }
  uint64_t write_seq(SegNo seg) const { return write_seq_[seg]; }

  // Next clean segment to fill (lowest-numbered), or kNilSeg if none.
  // Segments freed since the last checkpoint are held back: recovery only
  // scans checkpoint-clean segments (plus the recorded append points) for
  // the post-crash log tail, so a write into a checkpoint-dirty segment
  // would be invisible to roll-forward and read as corruption by the
  // checker. The barrier lifts when a checkpoint records the free. The
  // checkpoint's own appends (include_pending) are exempt: a swept segment's
  // clean state becomes durable with the very CR write those appends
  // precede, and if that write tears, roll-forward stops at the sequence
  // gap before the first append into the still-dirty segment — everything
  // flushed earlier is already in scannable territory.
  SegNo PickClean(bool include_pending = false) const;

  // Lifts the reuse barrier: every segment freed so far is now recorded
  // clean by a durable checkpoint and may be picked for new writes.
  void MarkFreesDurable();

  // --- victim selection --------------------------------------------------------

  // The selection index holds exactly the kDirty segments, keyed by their
  // current (live_bytes, last_write); it is kept in sync by AddLive/SubLive/
  // SetState/LoadChunk. Victims pop in exact reference-sort order.
  const VictimIndex& victim_index() const { return victim_index_; }
  VictimIndex::Cursor SelectVictims(bool greedy, uint64_t now) const {
    return victim_index_.Select(greedy, now);
  }

  // Dirty segments whose data has entirely died: reclaimable for free after
  // a checkpoint. Maintained incrementally so the cleaner's harvest check is
  // O(1) instead of a full-table scan.
  uint32_t zero_live_dirty_count() const { return zero_live_dirty_count_; }
  // Appends the zero-live dirty segments in ascending order.
  void AppendZeroLiveDirty(std::vector<SegNo>* out) const;

  // The live-utilization histogram over dirty segments (bucket i covers u in
  // [i/n, (i+1)/n)): the adaptive cleaning governor's input.
  std::vector<uint32_t> UtilizationHistogram() const {
    return victim_index_.BucketHistogram();
  }

  // --- partial-compaction resume cursors ---------------------------------------
  //
  // A partially drained victim keeps, in memory only, the summary-chain
  // offset where the last drain stopped, so the next pass resumes there
  // instead of re-reading the already-relocated prefix. Reset whenever the
  // segment leaves kDirty (reclaimed or recycled); lost on remount, which
  // merely costs a rescan (relocated blocks re-check as dead).
  uint32_t compact_cursor(SegNo seg) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = compact_cursors_.find(seg);
    return it == compact_cursors_.end() ? 0 : it->second;
  }
  void set_compact_cursor(SegNo seg, uint32_t offset) {
    std::lock_guard<std::mutex> lock(mu_);
    if (offset == 0) {
      compact_cursors_.erase(seg);
    } else {
      compact_cursors_[seg] = offset;
    }
  }

  // Overall disk capacity utilization: live bytes / total segment bytes.
  double DiskUtilization() const;
  uint64_t TotalLiveBytes() const { return total_live_; }

  // --- chunk persistence -------------------------------------------------------

  uint32_t chunk_count() const { return static_cast<uint32_t>(chunk_addrs_.size()); }
  uint32_t chunk_of(SegNo seg) const { return seg / entries_per_chunk_; }
  uint32_t entries_per_chunk() const { return entries_per_chunk_; }
  BlockNo chunk_addr(uint32_t chunk) const { return chunk_addrs_[chunk]; }
  void set_chunk_addr(uint32_t chunk, BlockNo addr) { chunk_addrs_[chunk] = addr; }

  // Read under the filesystem's exclusive lock: shared-mode mutators insert
  // via MarkDirty under mu_, and the rwlock hand-off orders those inserts
  // before the checkpoint's harvest.
  const std::set<uint32_t>& dirty_chunks() const { return dirty_chunks_; }
  void MarkChunkDirty(uint32_t chunk) {
    std::lock_guard<std::mutex> lock(mu_);
    dirty_chunks_.insert(chunk);
  }
  void ClearDirty() {
    std::lock_guard<std::mutex> lock(mu_);
    dirty_chunks_.clear();
  }
  // Clears one chunk's dirty flag. Checkpointing must use this (not
  // ClearDirty): serializing chunks itself dirties entries, and wiping the
  // whole set would lose that dirtiness and leave stale values on disk
  // forever.
  void ClearDirtyChunk(uint32_t chunk) {
    std::lock_guard<std::mutex> lock(mu_);
    dirty_chunks_.erase(chunk);
  }

  void EncodeChunk(uint32_t chunk, std::span<uint8_t> block) const;
  void LoadChunk(uint32_t chunk, std::span<const uint8_t> block);

  // Recomputes clean_count_ and quarantined_count_ after loading chunks.
  void RecountClean();

 private:
  void MarkDirty(SegNo seg) { dirty_chunks_.insert(chunk_of(seg)); }  // caller holds mu_
  // Re-syncs the selection index and zero-live set with entries_[seg]; must
  // run after every mutation of a segment's state or live-byte count.
  // Caller holds mu_.
  void SyncIndex(SegNo seg);

  uint32_t segment_bytes_;
  uint32_t entries_per_chunk_;
  mutable std::mutex mu_;  // serializes mutators called under the shared fs lock
  std::vector<SegUsageEntry> entries_;
  std::vector<Relaxed<uint64_t>> write_seq_;
  std::vector<BlockNo> chunk_addrs_;
  std::set<uint32_t> dirty_chunks_;
  std::vector<SegNo> freed_;      // became kClean since last TakeFreed()
  std::set<SegNo> pending_reuse_; // became kClean since last checkpoint
  std::map<SegNo, uint32_t> compact_cursors_;  // partial-drain resume offsets
  Relaxed<uint32_t> clean_count_{0};
  Relaxed<uint32_t> quarantined_count_{0};
  Relaxed<uint64_t> total_live_{0};  // sum of live_bytes, maintained incrementally

  VictimIndex victim_index_;               // kDirty segments only
  std::vector<uint64_t> zero_live_words_;  // bitmap: kDirty && live_bytes == 0
  Relaxed<uint32_t> zero_live_dirty_count_{0};
};

}  // namespace lfs

#endif  // LFS_LFS_SEG_USAGE_H_
