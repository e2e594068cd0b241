// Registry bindings: snapshot every counter family in the repository into a
// MetricsRegistry under a dotted-name prefix. Header-only so obs itself
// stays free of link dependencies on the disk/lfs/ffs libraries — callers
// (benches, tools, tests) already link whichever families they bind.

#ifndef LFS_OBS_BINDINGS_H_
#define LFS_OBS_BINDINGS_H_

#include <string>

#include "src/disk/fault_disk.h"
#include "src/disk/sim_disk.h"
#include "src/disk/ssd_disk.h"
#include "src/ffs/ffs.h"
#include "src/lfs/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace lfs::obs {

inline void BindLfsStats(MetricsRegistry* r, const std::string& p, const LfsStats& s) {
  r->AddCounter(p + "log.payload_bytes_total", s.total_log_written() - s.summary_bytes);
  r->AddCounter(p + "log.summary_bytes", s.summary_bytes);
  r->AddCounter(p + "log.checkpoint_bytes", s.checkpoint_bytes);
  r->AddCounter(p + "log.new_payload_bytes", s.new_payload_bytes);
  r->AddCounter(p + "log.new_data_bytes", s.new_data_bytes);
  r->AddCounter(p + "cleaner.write_bytes", s.clean_write_bytes);
  r->AddCounter(p + "cleaner.read_bytes", s.clean_read_bytes);
  r->AddCounter(p + "cleaner.passes", s.cleaner_passes);
  r->AddCounter(p + "cleaner.segments_cleaned", s.segments_cleaned);
  r->AddCounter(p + "cleaner.segments_cleaned_empty", s.segments_cleaned_empty);
  r->AddGauge(p + "cleaner.avg_cleaned_utilization", s.AvgCleanedUtilization());
  r->AddGauge(p + "cleaner.empty_cleaned_fraction", s.EmptyCleanedFraction());
  r->AddGauge(p + "write_cost", s.WriteCost());
  r->AddCounter(p + "checkpoints", s.checkpoints);
  r->AddCounter(p + "recovery.rollforward_partials", s.rollforward_partials);
  r->AddCounter(p + "fault.io_retries", s.io_retries);
  r->AddCounter(p + "fault.io_retry_failures", s.io_retry_failures);
  r->AddCounter(p + "fault.read_crc_failures", s.read_crc_failures);
  r->AddCounter(p + "fault.segments_quarantined", s.segments_quarantined);
  r->AddCounter(p + "fault.checkpoint_fallbacks", s.checkpoint_fallbacks);
  r->AddCounter(p + "fault.superblock_fallbacks", s.superblock_fallbacks);
  r->AddCounter(p + "fault.degraded_entries", s.degraded_entries);
}

inline void BindDiskStats(MetricsRegistry* r, const std::string& p, const DiskStats& s) {
  r->AddCounter(p + "reads", s.reads);
  r->AddCounter(p + "writes", s.writes);
  r->AddCounter(p + "bytes_read", s.bytes_read);
  r->AddCounter(p + "bytes_written", s.bytes_written);
  r->AddCounter(p + "seeks", s.seeks);
  r->AddGauge(p + "busy_sec", s.busy_sec);
  r->AddGauge(p + "seek_sec", s.seek_sec);
}

inline void BindFaultCounters(MetricsRegistry* r, const std::string& p,
                              const FaultDisk::FaultCounters& c) {
  r->AddCounter(p + "reads", c.reads);
  r->AddCounter(p + "writes", c.writes);
  r->AddCounter(p + "transient_read_faults", c.transient_read_faults);
  r->AddCounter(p + "transient_write_faults", c.transient_write_faults);
  r->AddCounter(p + "latent_read_faults", c.latent_read_faults);
  r->AddCounter(p + "latent_write_faults", c.latent_write_faults);
  r->AddCounter(p + "corrupted_reads", c.corrupted_reads);
}

inline void BindFfsStats(MetricsRegistry* r, const std::string& p,
                         const ffs::FfsStats& s) {
  r->AddCounter(p + "metadata_writes", s.metadata_writes);
  r->AddCounter(p + "data_writes", s.data_writes);
  r->AddCounter(p + "data_bytes_written", s.data_bytes_written);
}

// Per-op latency histograms (only ops that recorded at least one sample, so
// exports stay compact and schema-stable across workload shapes).
inline void BindFsObs(MetricsRegistry* r, const std::string& p, const FsObs& o) {
  for (size_t i = 1; i < static_cast<size_t>(OpType::kCount); i++) {
    const LatencyHistogram& h = o.op_hist[i];
    if (h.count() > 0) {
      r->AddHistogram(p + "op." + OpTypeName(static_cast<OpType>(i)), h);
    }
  }
#if LFS_TRACE_ENABLED
  r->AddCounter(p + "trace.emitted", o.trace.emitted());
#endif
}

// Flash backend counters: the write-amplification and wear accounting the
// SSD benches gate on. New benches only — not part of BindDiskStats, so the
// rotating-disk bench schemas are untouched.
inline void BindSsdDisk(MetricsRegistry* r, const std::string& p, const SsdDisk& d) {
  SsdStats s = d.stats();
  r->AddCounter(p + "reads", s.reads);
  r->AddCounter(p + "writes", s.writes);
  r->AddCounter(p + "trims", s.trims);
  r->AddCounter(p + "bytes_read", s.bytes_read);
  r->AddCounter(p + "bytes_written", s.bytes_written);
  r->AddCounter(p + "pages_programmed_host", s.pages_programmed_host);
  r->AddCounter(p + "pages_programmed_gc", s.pages_programmed_gc);
  r->AddCounter(p + "pages_trimmed", s.pages_trimmed);
  r->AddCounter(p + "erases", s.erases);
  r->AddGauge(p + "busy_sec", s.busy_sec);
  r->AddGauge(p + "write_amplification", s.WriteAmplification());
  r->AddCounter(p + "erase_count_min", d.min_erase_count());
  r->AddCounter(p + "erase_count_max", d.max_erase_count());
}

// Device-level service-time histograms from a SimDisk.
inline void BindSimDisk(MetricsRegistry* r, const std::string& p, const SimDisk& d) {
  BindDiskStats(r, p, d.stats());
  if (d.read_latency().count() > 0) {
    r->AddHistogram(p + "io.read", d.read_latency());
  }
  if (d.write_latency().count() > 0) {
    r->AddHistogram(p + "io.write", d.write_latency());
  }
}

}  // namespace lfs::obs

#endif  // LFS_OBS_BINDINGS_H_
