// Multi-threaded front-end scaling: the same per-thread workload (small-file
// creates, writes, and re-reads on private files) run with 1, 2, 4, and 8
// threads against one shared LFS in concurrent mode, through the shared
// write-back block cache. Reports wall-clock throughput per thread count and
// a per-op wall-latency distribution (obs::LatencyHistogram fed host-clock
// samples, so the percentiles show lock-contention tails directly).
//
// All throughput and latency numbers are host wall-clock and therefore
// machine- and schedule-dependent: every one is emitted under the "wall."
// prefix, which the CI bench-regression gate skips by design, and CI gates
// no scaling ratio either: 4 threads do not yet outrun 1 (DESIGN.md §12).
// The op counts are fixed by construction and serve as the deterministic
// sanity part of the schema.

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/cache/cached_device.h"
#include "src/obs/latency.h"

using namespace lfs;
using namespace lfs::bench;

namespace {

const uint64_t kFilesPerThread = SmokePick(64, 16);
const uint64_t kOpsPerThread = SmokePick(2000, 400);
constexpr uint32_t kIoBytes = 4 * 1024;
const uint64_t kDiskBytes = SmokePick(256, 64) * 1024 * 1024;

void Check(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "mt_scaling: %s\n", st.ToString().c_str());
    std::abort();
  }
}

struct RunResult {
  double sec = 0;                 // wall time for all threads to finish
  obs::LatencyHistogram op_lat;   // per-op wall latency, all threads merged
};

// Wall seconds for `threads` workers to each run kOpsPerThread mixed ops.
RunResult RunOnce(int threads) {
  LfsConfig cfg = PaperLfsConfig();
  cfg.concurrent = true;
  uint64_t blocks = kDiskBytes / cfg.block_size;
  MemDisk disk(cfg.block_size, blocks);
  cache::CachedDeviceOptions opts;
  opts.capacity_blocks = 4096;
  opts.shards = 8;
  cache::CachedBlockDevice dev(&disk, opts);
  auto fs_r = LfsFileSystem::Mkfs(&dev, cfg);
  Check(fs_r.status());
  auto fs = std::move(fs_r).value();

  // Pre-create each thread's private files so the timed region measures
  // steady-state data traffic, not namespace setup.
  std::vector<std::vector<InodeNum>> inos(threads);
  for (int t = 0; t < threads; t++) {
    inos[t].resize(kFilesPerThread);
    for (uint64_t i = 0; i < kFilesPerThread; i++) {
      auto ino = fs->Create("/t" + std::to_string(t) + "_" + std::to_string(i));
      Check(ino.status());
      inos[t][i] = *ino;
    }
  }

  RunResult result;
  std::atomic<bool> failed{false};
  // The histogram's counters are relaxed atomics, so all workers record
  // into the one shared instance without a race.
  auto worker = [&](int t) {
    Rng rng(7919 * (t + 1));
    std::vector<uint8_t> wbuf(kIoBytes, static_cast<uint8_t>(t));
    std::vector<uint8_t> rbuf(kIoBytes);
    for (uint64_t i = 0; i < kOpsPerThread; i++) {
      InodeNum ino = inos[t][rng.NextU64() % kFilesPerThread];
      auto op_start = std::chrono::steady_clock::now();
      if (rng.NextU64() % 3 == 0) {
        if (!fs->WriteAt(ino, (rng.NextU64() % 8) * kIoBytes, wbuf).ok()) {
          failed.store(true);
          return;
        }
      } else {
        (void)fs->ReadAt(ino, (rng.NextU64() % 8) * kIoBytes, rbuf);
      }
      result.op_lat.RecordUs(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - op_start)
              .count()));
    }
  };

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; t++) {
    pool.emplace_back(worker, t);
  }
  for (auto& th : pool) {
    th.join();
  }
  auto end = std::chrono::steady_clock::now();
  if (failed.load()) {
    std::fprintf(stderr, "mt_scaling: worker op failed\n");
    std::abort();
  }
  Check(fs->Unmount());
  result.sec = std::chrono::duration<double>(end - start).count();
  return result;
}

}  // namespace

int main() {
  BenchReport report("mt_scaling");
  report.AddScalar("config.files_per_thread", static_cast<double>(kFilesPerThread));
  report.AddScalar("config.ops_per_thread", static_cast<double>(kOpsPerThread));
  report.AddScalar("wall.hw_threads",
                   static_cast<double>(std::thread::hardware_concurrency()));

  std::printf("=== Concurrent front-end scaling (wall clock) ===\n\n");
  std::printf("host hardware threads: %u\n\n", std::thread::hardware_concurrency());
  std::printf("%8s %10s %13s %8s %9s %9s %9s\n", "threads", "wall sec",
              "total ops/s", "speedup", "p50 us", "p95 us", "p99 us");
  double base_rate = 0;
  for (int threads : {1, 2, 4, 8}) {
    RunResult run = RunOnce(threads);
    double rate = static_cast<double>(kOpsPerThread) * threads / run.sec;
    if (threads == 1) {
      base_rate = rate;
    }
    double p50 = run.op_lat.PercentileUs(0.50);
    double p95 = run.op_lat.PercentileUs(0.95);
    double p99 = run.op_lat.PercentileUs(0.99);
    std::printf("%8d %10.3f %13.0f %7.2fx %9.1f %9.1f %9.1f\n", threads, run.sec,
                rate, rate / base_rate, p50, p95, p99);
    std::string key = "wall.threads_" + std::to_string(threads);
    report.AddScalar(key + ".sec", run.sec);
    report.AddScalar(key + ".ops_per_sec", rate);
    report.AddScalar(key + ".p50_us", p50);
    report.AddScalar(key + ".p95_us", p95);
    report.AddScalar(key + ".p99_us", p99);
  }
  std::printf("\nReads run under the shared lock and striped inode locks; writes\n");
  std::printf("join group-committed batches and serialize only on the log tail.\n");
  std::printf("Numbers are wall-clock; CI gates none of them.\n");

  report.Write();
  return 0;
}
