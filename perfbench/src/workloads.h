// The three workloads and the pieces they share: the device/filesystem
// stack, the clocks around the timed phase, and the crash and recovery that
// end every run.
//
// Every workload runs the same phases:
//   set-up   generate the seeded payload pool and op script, mkfs, prefill
//            (repeated Options::setups times; the last set-up is kept)
//   timed    run the script in kRounds rounds, timing every call
//   crash    clean and Sync, write a fixed tail past that last Sync, then
//            destroy the filesystem without Unmount (and the block cache)
//            and mount with roll-forward kRecoveryMounts times from the same
//            crashed image
//   verify   read back all live data and check every block's stamp
// The amount of work is fixed by --seed and --seconds, never by the clock,
// so every count a single-client workload makes repeats exactly.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/measure.h"
#include "perfbench/src/trace.h"
#include "src/cache/cached_device.h"
#include "src/disk/sim_disk.h"
#include "src/lfs/lfs.h"

namespace perfbench {

inline constexpr uint64_t kDiskBytes = 128ull << 20;  // every workload's SimDisk
inline constexpr uint64_t kBlockCacheBlocks = 4096;   // 16 MB CachedBlockDevice
// Roll-forward mounts of each crashed image. recovery_s, and churn's read
// latencies, are medians over them; the first mount's read-back runs on
// freshly mapped cache memory and is the slowest.
inline constexpr int kRecoveryMounts = 9;
inline constexpr uint64_t kSyncEveryBytes = 8ull << 20;
// The timed phase runs in this many rounds of equal script length. Rates and
// latency quantiles are medians over the rounds, so host contention during
// fewer than half of them does not move them.
inline constexpr int kRounds = 10;

// The script items [first, last) of round k of n items.
inline std::pair<size_t, size_t> RoundRange(size_t n, int k) {
  return {n * static_cast<size_t>(k) / kRounds, n * static_cast<size_t>(k + 1) / kRounds};
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setups = 5;
};

// Host-time latency samples in nanoseconds, by call class. Each class keeps
// its samples in groups: one per round of the timed phase, or one per set-up
// or mount for samples a workload takes there. NewGroup() starts the next
// group of every class.
struct Latencies {
  SampleGroups read, write, meta, sync;

  void NewGroup() {
    for (SampleGroups* g : {&read, &write, &meta, &sync}) {
      g->emplace_back();
    }
  }
  // Appends each group of `o` to the group of the same index here.
  void Merge(const Latencies& o) {
    for (auto [from, to] : {std::pair{&o.read, &read}, {&o.write, &write}, {&o.meta, &meta},
                            {&o.sync, &sync}}) {
      to->resize(std::max(to->size(), from->size()));
      for (size_t i = 0; i < from->size(); i++) {
        (*to)[i].insert((*to)[i].end(), (*from)[i].begin(), (*from)[i].end());
      }
    }
  }
};

// The clocks the timed phase and its rounds are measured with.
struct Clocks {
  uint64_t ns = 0;
  double cpu_s = 0;   // process CPU
  double busy_s = 0;  // SimDisk modeled busy time
};

// One round of the timed phase.
struct Round {
  double wall_s = 0;
  double cpu_s = 0;  // process CPU
  uint64_t ops = 0;
  uint64_t user_bytes = 0;

  Round(const Clocks& start, const Clocks& end, uint64_t ops_done, uint64_t bytes)
      : wall_s(static_cast<double>(end.ns - start.ns) * 1e-9),
        cpu_s(end.cpu_s - start.cpu_s),
        ops(ops_done),
        user_bytes(bytes) {}
};

// Cumulative counters read at the start and at the end of the timed phase.
struct Counters {
  lfs::LfsStats lfs;
  lfs::cache::BlockCacheStats cache;
  lfs::DiskStats disk;
  uint64_t under_lfs_write_calls = 0;  // device writes LFS issued (traced runs)
  uint64_t under_lfs_write_blocks = 0;
  double steal_s = 0;
};

struct RunResult {
  int workers = 1;
  std::vector<double> setup_s;  // one per set-up
  Latencies lat;
  std::vector<Round> rounds;       // the timed phase's rounds
  std::vector<double> recovery_s;  // one per recovery mount
  double write_cost = 0;           // LfsStats::WriteCost() at the end of the timed phase
  uint64_t ops = 0;                // FS calls of the timed phase
  uint64_t user_write_bytes = 0;   // payload written in the timed phase
  double wall_s = 0;
  double modeled_busy_s = 0;
  std::vector<double> worker_cpu_s;  // thread CPU of each worker in the timed phase
  Counters before, after;
  uint64_t recovery_partials = 0;     // partial writes replayed by the first mount
  uint64_t recovery_read_blocks = 0;  // blocks the first mount read from the disk
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Timed(const Clocks& start, const Clocks& end) {
    wall_s = static_cast<double>(end.ns - start.ns) * 1e-9;
    modeled_busy_s = end.busy_s - start.busy_s;
  }
};

// MemDisk -> SimDisk [-> CachedBlockDevice] -> LfsFileSystem. A traced stack
// puts a TracedDevice above each device and a TracedFileSystem above LFS.
class Stack {
 public:
  Stack(const lfs::LfsConfig& cfg, bool cached, bool traced);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  lfs::Status Mkfs();
  // Destroys the filesystem without Unmount; its destructor only stops the
  // cleaner thread. The block cache goes too, dropping its dirty frames.
  void Crash();
  lfs::Status Mount();

  lfs::FileSystem* fs() {
    return traced_fs_ ? static_cast<lfs::FileSystem*>(traced_fs_.get()) : lfs_.get();
  }
  lfs::LfsFileSystem* lfs() { return lfs_.get(); }
  lfs::SimDisk* disk() { return disk_.get(); }
  lfs::cache::CachedBlockDevice* cache() { return cache_.get(); }
  // The traced decorators: the one LFS talks to, and the one above SimDisk
  // (both null when untraced).
  TracedDevice* under_lfs() { return cache_probe_ ? cache_probe_.get() : disk_probe_.get(); }
  TracedDevice* disk_probe() { return disk_probe_.get(); }
  std::span<uint8_t> image();

  Clocks ReadClocks() const;
  // Reads every counter. SimDisk's are plain fields: call only when no other
  // thread does I/O (a concurrent stack's cleaner thread is idle).
  Counters Snapshot();

 private:
  void BuildUpper();
  lfs::Status Adopt(lfs::Result<std::unique_ptr<lfs::LfsFileSystem>> fs);

  lfs::LfsConfig cfg_;
  bool cached_;
  bool traced_;
  std::unique_ptr<lfs::SimDisk> disk_;
  std::unique_ptr<TracedDevice> disk_probe_;
  std::unique_ptr<lfs::cache::CachedBlockDevice> cache_;
  std::unique_ptr<TracedDevice> cache_probe_;
  lfs::BlockDevice* top_ = nullptr;
  std::unique_ptr<lfs::LfsFileSystem> lfs_;
  std::unique_ptr<TracedFileSystem> traced_fs_;
};

// Ends a run: cleans until twice clean_hi segments are clean and Syncs, so
// the mounts never stop to clean; writes the fixed tail (/tail, 128 files of
// 32 KB) past that last Sync and flushes the block cache, so the disk holds
// what LFS handed its device; crashes; and mounts the crashed image
// kRecoveryMounts times, restoring it before each mount. After each mount it
// calls `verify` on the recovered filesystem, which checks the data live at
// the last Sync, and then checks whatever of the tail was recovered: a tail
// file may be missing, and a present one holds a prefix of its blocks (the
// rest holes). The last mount stays.
lfs::Status CrashAndRecover(Stack* stack, const PayloadPool& pool, RunResult* r,
                            const std::function<void(lfs::FileSystem*)>& verify);

// Opens a driver.op span carrying the op id when tracing is enabled.
class DriverOp {
 public:
  explicit DriverOp(uint32_t op) : span_(SpanKind::kDriverOp) {
    if (Tracer::enabled()) {
      Tracer::Current()->set_op(op);
    }
  }

 private:
  ScopedSpan span_;
};

// Digest of the op script (and file sizes) a workload generates for a seed
// and run length; the generator-determinism self-test compares them.
uint64_t ChurnScriptDigest(uint64_t seed, double seconds);
uint64_t RereadScriptDigest(uint64_t seed, double seconds);
uint64_t MixedScriptDigest(uint64_t seed, double seconds);

RunResult RunChurn(const Options& opts);
RunResult RunReread(const Options& opts);
RunResult RunMixed(const Options& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
