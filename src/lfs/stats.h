// Statistics the filesystem keeps about its own log traffic and cleaning
// activity. These counters are the direct source of the paper's evaluation
// numbers: write cost (formula (1) measured, Table 2), the fraction of
// cleaned segments that were empty, the average utilization of cleaned
// segments, and the log-bandwidth composition by block type (Table 4).

#ifndef LFS_LFS_STATS_H_
#define LFS_LFS_STATS_H_

#include <array>
#include <cstdint>

#include "src/util/relaxed.h"

namespace lfs {

// Counters are Relaxed<> atomics so concurrent caller threads (and the
// background cleaner) can bump them without data races; the struct keeps
// value semantics (tests snapshot and subtract it) via Relaxed's copyability.
struct LfsStats {
  // Payload bytes appended to the log, by BlockKind (index = kind value).
  std::array<Relaxed<uint64_t>, 8> log_bytes_by_kind{};
  Relaxed<uint64_t> summary_bytes = 0;        // segment summary blocks written
  Relaxed<uint64_t> checkpoint_bytes = 0;     // checkpoint region writes (fixed area)

  // New data vs cleaning traffic. "New" is everything appended outside a
  // cleaning pass (file data, indirect blocks, inodes, imap/usage chunks,
  // dirlog); "clean" is live data rewritten by the cleaner.
  Relaxed<uint64_t> new_payload_bytes = 0;
  Relaxed<uint64_t> new_data_bytes = 0;       // kData subset of new_payload_bytes
  Relaxed<uint64_t> clean_write_bytes = 0;
  Relaxed<uint64_t> clean_read_bytes = 0;     // whole segments read by the cleaner

  // Cleaning pass statistics (Table 2 columns).
  Relaxed<uint64_t> cleaner_passes = 0;
  Relaxed<uint64_t> segments_cleaned = 0;
  Relaxed<uint64_t> segments_cleaned_empty = 0;  // reclaimed with zero live bytes
  Relaxed<double> sum_cleaned_utilization = 0.0; // over non-empty cleaned segments
  Relaxed<uint64_t> checkpoints = 0;
  Relaxed<uint64_t> rollforward_partials = 0;    // partial writes replayed at recovery
  Relaxed<uint64_t> rollforward_scrubbed = 0;    // stale summaries zeroed at recovery

  // Media-fault handling (robustness pass).
  Relaxed<uint64_t> io_retries = 0;             // device I/O attempts beyond the first
  Relaxed<uint64_t> io_retry_failures = 0;      // I/Os that failed even after retries
  Relaxed<uint64_t> read_crc_failures = 0;      // corrupt blocks caught on the read path
  Relaxed<uint64_t> segments_quarantined = 0;   // victims abandoned to kQuarantined
  Relaxed<uint64_t> checkpoint_fallbacks = 0;   // CR writes diverted to the alternate region
  Relaxed<uint64_t> superblock_fallbacks = 0;   // mounts served by the backup superblock
  Relaxed<uint64_t> degraded_entries = 0;       // transitions into degraded read-only mode

  // Flash-era backend. Segments whose free was made durable by a checkpoint
  // and then discarded via BlockDevice::Trim.
  Relaxed<uint64_t> segments_trimmed = 0;

  // Fine-grained reclamation (adaptive governor + partial compaction + QoS).
  // Victims reclaimed under each ordering policy (index = CleaningPolicy
  // value: 0 greedy, 1 cost-benefit), and the live bytes rewritten on their
  // behalf — the per-policy Table 2 columns.
  std::array<Relaxed<uint64_t>, 2> segments_cleaned_by_policy{};
  std::array<Relaxed<uint64_t>, 2> copy_bytes_by_policy{};
  Relaxed<uint64_t> partial_compactions = 0;   // victims drained incrementally
  Relaxed<uint64_t> full_compactions = 0;      // victims round-tripped whole
  Relaxed<uint64_t> partial_blocks_moved = 0;  // live blocks relocated by drains
  Relaxed<uint64_t> governor_switches = 0;     // hot-policy changes (adaptive)
  Relaxed<uint64_t> qos_deferrals = 0;         // passes deferred on an empty bucket
  Relaxed<uint64_t> qos_escalations = 0;       // passes run in deficit (critical floor)
  Relaxed<uint64_t> qos_charged_bytes = 0;     // cleaner copy bytes metered

  uint64_t total_log_written() const {
    uint64_t payload = 0;
    for (uint64_t b : log_bytes_by_kind) {
      payload += b;
    }
    return payload + summary_bytes;
  }

  // The paper's write cost: total bytes moved to and from the disk divided
  // by the bytes of new data written (Section 3.4). 0 when nothing written.
  double WriteCost() const {
    uint64_t new_bytes = new_payload_bytes;
    if (new_bytes == 0) {
      return 0.0;
    }
    uint64_t moved = total_log_written() + clean_read_bytes;
    return static_cast<double>(moved) / static_cast<double>(new_bytes);
  }

  // Average utilization of non-empty cleaned segments (Table 2 "u Avg").
  double AvgCleanedUtilization() const {
    uint64_t nonempty = segments_cleaned - segments_cleaned_empty;
    return nonempty == 0 ? 0.0 : sum_cleaned_utilization / static_cast<double>(nonempty);
  }

  double EmptyCleanedFraction() const {
    return segments_cleaned == 0
               ? 0.0
               : static_cast<double>(segments_cleaned_empty) /
                     static_cast<double>(segments_cleaned);
  }
};

}  // namespace lfs

#endif  // LFS_LFS_STATS_H_
