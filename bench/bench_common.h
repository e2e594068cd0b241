// Shared infrastructure for the paper-reproduction benchmarks.
//
// Every benchmark measures MODELED time, not host wall-clock time: the
// SimDisk charges Wren IV service times (seek + rotation + transfer +
// per-request overhead) and the CpuModel charges per-operation/per-byte CPU
// costs calibrated to the paper's Sun-4/260. Elapsed time combines them as
//
//   LFS: max(cpu, disk)   — asynchronous logging overlaps CPU and disk
//   FFS: cpu + disk       — synchronous small I/Os serialize the two
//
// which reproduces the paper's observations that SunOS saturated the disk
// (85% busy) while Sprite LFS saturated the CPU (disk only 17% busy), and
// drives the Figure 8(b) faster-CPU prediction.

#ifndef LFS_BENCH_BENCH_COMMON_H_
#define LFS_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/disk/mem_disk.h"
#include "src/disk/sim_disk.h"
#include "src/ffs/ffs.h"
#include "src/fs/file_system.h"
#include "src/lfs/lfs.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace lfs::bench {

// CPU cost model calibrated so the small-file benchmark lands in the
// paper's regime (Sprite LFS ~100-200 files/sec, CPU-bound).
struct CpuModel {
  double per_op_sec = 0.005;    // one filesystem call (create/read/delete...)
  double per_byte_sec = 2e-7;   // data touching (~5 MB/s Sun-4 copy rate)
  double speedup = 1.0;         // CPU generations for Figure 8(b)

  double Time(uint64_t ops, uint64_t bytes) const {
    return (static_cast<double>(ops) * per_op_sec +
            static_cast<double>(bytes) * per_byte_sec) /
           speedup;
  }
};

inline double LfsElapsed(double cpu_sec, double disk_sec) {
  return std::max(cpu_sec, disk_sec);
}
inline double FfsElapsed(double cpu_sec, double disk_sec) { return cpu_sec + disk_sec; }

// A filesystem instance over a timing-modeled disk.
struct LfsInstance {
  std::unique_ptr<SimDisk> disk;  // owns the MemDisk backing
  std::unique_ptr<LfsFileSystem> fs;
};

struct FfsInstance {
  std::unique_ptr<SimDisk> disk;
  std::unique_ptr<ffs::FfsFileSystem> fs;
};

LfsInstance MakeLfs(uint64_t disk_bytes, LfsConfig cfg,
                    DiskModelParams params = DiskModelParams::WrenIV());
FfsInstance MakeFfs(uint64_t disk_bytes, uint32_t block_size,
                    DiskModelParams params = DiskModelParams::WrenIV());

// The paper's benchmark filesystem configuration: ~4-KB blocks, 1-MB
// segments (Section 5.1).
LfsConfig PaperLfsConfig();

// --- synthetic long-term workloads (Table 2 / Figure 10 / Table 4) -------------

// Parameters of a production-like workload, scaled down from the Table 2
// systems. Files are created with exponentially distributed sizes, a
// fraction of them turn cold (never touched again), and the rest churn by
// whole-file delete+recreate (or random in-place rewrites for swap-like
// workloads) until `churn_multiplier` times the disk size has been written.
struct WorkloadParams {
  std::string name;
  uint64_t mean_file_bytes = 24 * 1024;
  uint64_t max_file_bytes = 8 * 1024 * 1024;  // cap of the large-file tail
  double target_utilization = 0.75;  // of the disk
  double churn_multiplier = 3.0;     // total new data / disk size
  double cold_fraction = 0.5;        // files never modified after creation
  bool sparse_rewrites = false;      // swap-style: rewrite blocks in place
  uint64_t seed = 42;
};

struct WorkloadReport {
  uint64_t files_created = 0;
  uint64_t bytes_written = 0;
  uint64_t avg_file_bytes = 0;
};

// Runs the workload against a mounted LFS. Checkpoints periodically (the
// production systems checkpointed every 30 seconds).
WorkloadReport RunWorkload(LfsFileSystem* fs, uint64_t disk_bytes, const WorkloadParams& params);

// Table 2's five production filesystems, scaled to the given disk size.
WorkloadParams User6Workload();
WorkloadParams PcsWorkload();
WorkloadParams SrcKernelWorkload();
WorkloadParams TmpWorkload();
WorkloadParams Swap2Workload();

// Formats a byte count as "12.3 MB" etc.
std::string HumanBytes(uint64_t bytes);

// --- machine-readable results (BENCH_<name>.json) ------------------------------

// True when LFS_BENCH_SMOKE is set in the environment (to anything but "0"):
// benchmarks shrink their workloads so CI can run every binary in seconds.
// The emitted JSON records the mode so smoke numbers are never diffed
// against full-run numbers.
bool SmokeMode();

// `full` normally, `smoke` under SmokeMode(). For scaling disk sizes,
// iteration counts, and file counts in one place.
uint64_t SmokePick(uint64_t full, uint64_t smoke);

// Collects a benchmark's metrics and emits BENCH_<name>.json with a stable
// schema CI can validate and diff:
//
//   {
//     "schema_version": 1,
//     "bench": "<name>",
//     "smoke": false,
//     "metrics":    { "<dotted.name>": number, ... },       // sorted keys
//     "histograms": { "<name>": {count, mean_us, p50_us, p90_us,
//                                p95_us, p99_us, min_us, max_us}, ... }
//   }
//
// All numbers come from the modeled clock / operation counters, so the file
// is deterministic for a given build and workload (wall-clock measurements
// must go in with a "wall." prefix, which CI comparisons ignore).
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  void AddScalar(const std::string& name, double value);
  // Snapshot a filesystem instance under `prefix` (e.g. "lfs."): stats
  // counters, disk counters, device service-time histograms, per-op latency
  // histograms.
  void AddLfs(const std::string& prefix, const LfsInstance& inst);
  void AddFfs(const std::string& prefix, const FfsInstance& inst);

  obs::MetricsRegistry& registry() { return reg_; }

  // Serializes the report (stable schema above).
  std::string ToJson() const;

  // Adds the process's host time so far, wall.total_sec (steady clock) and
  // wall.cpu_sec (user + system), then writes BENCH_<name>.json into
  // $LFS_BENCH_OUT (default: current directory) and prints the path to
  // stderr.
  void Write();

 private:
  std::string name_;
  obs::MetricsRegistry reg_;
};

}  // namespace lfs::bench

#endif  // LFS_BENCH_BENCH_COMMON_H_
