// Hot-path microbenchmarks for the incremental selection index and the
// coalesced read path. Unlike the paper-figure benchmarks, these measure
// HOST wall-clock time (the quantities under test are in-memory CPU costs
// and I/O call-batching, not modeled disk service times) and emit a single
// machine-readable JSON object on stdout:
//
//   victim_selection: indexed SelectSegmentsToClean vs a scan-and-sort of
//     the usage table (the selection the index replaced), per pass, at 512
//     and 4096 segments and both policies — the indexed cost should grow
//     sublinearly in segment count while the reference grows linearly.
//   sim: simulator overwrite steps/sec at 512 and 4096 segments (victim
//     picks ride the same index).
//   sequential_read: throughput reading a contiguous 32-MB file through one
//     bulk ReadAt (run-coalesced device I/O) vs a 4-KB-at-a-time ReadAt
//     loop, with the read cache disabled so every pass reaches the device.
//     Reported both as modeled Wren IV disk time (the repo's standard
//     measure — coalescing saves the per-request overheads) and as host
//     wall-clock over the raw in-memory backing.
//   byte_loops: host MB/s of Crc32Update and of memcpy over one in-cache
//     4-KB buffer, each the median of 5 batches, and the CRC kernel this CPU
//     ran. Their ratio cancels the machine's speed, so CI gates it: the log
//     CRCs every block it writes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/disk/mem_disk.h"
#include "src/disk/sim_disk.h"
#include "src/lfs/lfs.h"
#include "src/sim/sim.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace lfs::bench {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// The scan-and-sort victim selection the index replaced: score every dirty
// segment in the usage table and sort, best first (ties by segment number).
std::vector<SegNo> ScanAndSortVictims(const SegUsage& usage, bool greedy, uint64_t now,
                                      size_t max_segments) {
  std::vector<std::pair<double, SegNo>> scored;
  for (SegNo seg = 0; seg < usage.nsegments(); seg++) {
    const SegUsageEntry& e = usage.Get(seg);
    double u = usage.Utilization(seg);
    if (e.state != SegState::kDirty || u >= 1.0) {
      continue;
    }
    double age = static_cast<double>(now - std::min(now, e.last_write));
    scored.emplace_back(greedy ? 1.0 - u : (1.0 - u) * age / (1.0 + u), seg);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<SegNo> victims;
  for (size_t i = 0; i < scored.size() && i < max_segments; i++) {
    victims.push_back(scored[i].second);
  }
  return victims;
}

struct SelectionResult {
  uint32_t nsegments = 0;
  const char* policy = "";
  double indexed_us = 0.0;
  double reference_us = 0.0;
  uint32_t victims = 0;
};

// Builds a fragmented filesystem: ~70% full of one-segment files, each then
// truncated to a pseudo-random size so segment utilizations are spread out,
// and checkpointed so the segments are eligible victims.
SelectionResult BenchSelection(uint32_t target_segments, CleaningPolicy policy,
                               const char* policy_name) {
  LfsConfig cfg;
  cfg.block_size = 1024;
  cfg.segment_blocks = 16;
  cfg.max_inodes = 16384;
  cfg.clean_lo = 2;
  cfg.clean_hi = 4;
  cfg.reserve_segments = 3;
  cfg.write_buffer_blocks = 64;
  cfg.policy = policy;
  cfg.read_cache_blocks = 256;
  MemDisk disk(cfg.block_size, uint64_t{target_segments} * cfg.segment_blocks + 256);
  auto fs = LfsFileSystem::Mkfs(&disk, cfg).value();

  const uint32_t nsegs = fs->superblock().nsegments;
  const uint32_t nfiles = nsegs * 7 / 10;
  Rng rng(7);
  std::vector<uint8_t> content(16000, 0xAB);
  for (uint32_t i = 0; i < nfiles; i++) {
    std::string path = "/f" + std::to_string(i);
    if (!fs->WriteFile(path, content).ok()) {
      break;  // hit the capacity limit: enough population for the bench
    }
  }
  (void)fs->Sync();
  for (uint32_t i = 0; i < nfiles; i++) {
    auto ino = fs->Lookup("/f" + std::to_string(i));
    if (!ino.ok()) {
      break;
    }
    (void)fs->Truncate(ino.value(), rng.NextInRange(1024, 15 * 1024));
  }
  (void)fs->Sync();
  (void)fs->WriteCheckpoint();

  SelectionResult r;
  r.nsegments = nsegs;
  r.policy = policy_name;
  const GovernorDecision decision{cfg.policy, cfg.policy};
  r.victims = static_cast<uint32_t>(fs->SelectSegmentsToClean(16, decision).size());

  const int indexed_iters = static_cast<int>(SmokePick(2000, 200));
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < indexed_iters; i++) {
    (void)fs->SelectSegmentsToClean(16, decision);
  }
  r.indexed_us = SecondsSince(t0) * 1e6 / indexed_iters;

  const int reference_iters = static_cast<int>(SmokePick(200, 20));
  uint64_t now = fs->clock().Now();
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reference_iters; i++) {
    (void)ScanAndSortVictims(fs->seg_usage(), policy == CleaningPolicy::kGreedy, now, 16);
  }
  r.reference_us = SecondsSince(t0) * 1e6 / reference_iters;
  return r;
}

double BenchSimStepsPerSec(uint32_t nsegments) {
  sim::SimConfig cfg;
  cfg.nsegments = nsegments;
  cfg.blocks_per_segment = 32;
  cfg.disk_utilization = 0.75;
  cfg.policy = sim::Policy::kCostBenefit;
  cfg.age_sort = true;
  sim::CleaningSimulator simulator(cfg);
  const uint64_t warmup = uint64_t{2} * simulator.nfiles();
  for (uint64_t i = 0; i < warmup; i++) {
    simulator.Step();
  }
  const uint64_t steps = SmokePick(200000, 20000);
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < steps; i++) {
    simulator.Step();
  }
  return static_cast<double>(steps) / SecondsSince(t0);
}

struct ReadResult {
  uint32_t block_size = 0;
  uint64_t file_mb = 0;
  double coalesced_mb_s = 0.0;       // modeled Wren IV disk time
  double per_block_mb_s = 0.0;
  uint64_t coalesced_requests = 0;   // device reads issued per pass
  uint64_t per_block_requests = 0;
  double coalesced_wall_mb_s = 0.0;  // host wall-clock over MemDisk
  double per_block_wall_mb_s = 0.0;
};

ReadResult BenchSequentialRead(uint32_t block_size) {
  LfsConfig cfg;
  cfg.block_size = block_size;
  cfg.segment_blocks = 256;
  cfg.read_cache_blocks = 0;  // every pass must reach the device
  SimDisk disk(std::make_unique<MemDisk>(cfg.block_size, (96ull << 20) / block_size),
               DiskModelParams::WrenIV());
  auto fs = LfsFileSystem::Mkfs(&disk, cfg).value();

  // 32 MB, or as many whole MB as the block tree addresses (16 MB with
  // 1-KB blocks).
  std::vector<uint8_t> chunk(1 << 20);
  const uint64_t file_bytes = std::min<uint64_t>(
      32ull << 20, fs->superblock().max_file_bytes() / chunk.size() * chunk.size());
  Rng rng(11);
  for (auto& b : chunk) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  InodeNum ino = fs->Create("/big").value();
  for (uint64_t off = 0; off < file_bytes; off += chunk.size()) {
    (void)fs->WriteAt(ino, off, chunk);
  }
  (void)fs->Sync();

  ReadResult r;
  r.block_size = block_size;
  r.file_mb = file_bytes >> 20;
  const double mb = static_cast<double>(file_bytes) / (1 << 20);
  std::vector<uint8_t> buf(file_bytes);
  const uint32_t bs = cfg.block_size;
  const int passes = static_cast<int>(SmokePick(5, 2));

  disk.ResetStats();
  auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; p++) {
    (void)fs->ReadAt(ino, 0, buf);
  }
  r.coalesced_wall_mb_s = mb * passes / SecondsSince(t0);
  r.coalesced_mb_s = mb * passes / disk.stats().busy_sec;
  r.coalesced_requests = disk.stats().reads / passes;

  disk.ResetStats();
  t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; p++) {
    for (uint64_t off = 0; off < file_bytes; off += bs) {
      (void)fs->ReadAt(ino, off, std::span<uint8_t>(buf).subspan(off, bs));
    }
  }
  r.per_block_wall_mb_s = mb * passes / SecondsSince(t0);
  r.per_block_mb_s = mb * passes / disk.stats().busy_sec;
  r.per_block_requests = disk.stats().reads / passes;
  return r;
}

// Median MB/s over 5 batches of `iters` calls of `pass`, each over 4 KB.
template <typename Pass>
double MedianMbPerSec(uint64_t iters, Pass pass) {
  std::vector<double> rates;
  for (int batch = 0; batch < 5; batch++) {
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < iters; i++) {
      pass();
    }
    rates.push_back(static_cast<double>(iters) * 4096 / (1 << 20) / SecondsSince(t0));
  }
  std::nth_element(rates.begin(), rates.begin() + 2, rates.end());
  return rates[2];
}

struct ByteLoopResult {
  double crc32_mb_s = 0.0;
  double memcpy_mb_s = 0.0;
};

ByteLoopResult BenchByteLoops() {
  std::vector<uint8_t> src(4096);
  std::vector<uint8_t> dst(4096);
  Rng rng(13);
  for (auto& b : src) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  // A bytewise CRC takes ~12 us per 4 KB: 5 smoke batches stay under 2 s.
  const uint64_t iters = SmokePick(100000, 25000);
  ByteLoopResult r;
  uint32_t crc = Crc32Init();
  r.crc32_mb_s = MedianMbPerSec(iters, [&] { crc = Crc32Update(crc, src); });
  r.memcpy_mb_s = MedianMbPerSec(iters, [&] {
    std::memcpy(dst.data(), src.data(), src.size());
    asm volatile("" : : "r"(dst.data()) : "memory");  // keep every copy
  });
  volatile uint32_t sink = crc;
  (void)sink;
  return r;
}

int Main() {
  std::vector<SelectionResult> selection;
  for (uint32_t segs : {512u, 4096u}) {
    selection.push_back(BenchSelection(segs, CleaningPolicy::kGreedy, "greedy"));
    selection.push_back(BenchSelection(segs, CleaningPolicy::kCostBenefit, "cost_benefit"));
  }
  double sim512 = BenchSimStepsPerSec(512);
  double sim4096 = BenchSimStepsPerSec(4096);
  std::vector<ReadResult> reads;
  for (uint32_t bs : {4096u, 1024u}) {
    reads.push_back(BenchSequentialRead(bs));
  }
  ByteLoopResult loops = BenchByteLoops();

  printf("{\n  \"bench\": \"perf_hotpaths\",\n  \"victim_selection\": [\n");
  for (size_t i = 0; i < selection.size(); i++) {
    const SelectionResult& s = selection[i];
    printf("    {\"nsegments\": %u, \"policy\": \"%s\", \"victims_per_pass\": %u, "
           "\"indexed_us_per_pass\": %.3f, \"reference_us_per_pass\": %.3f, "
           "\"speedup\": %.2f}%s\n",
           s.nsegments, s.policy, s.victims, s.indexed_us, s.reference_us,
           s.reference_us / s.indexed_us, i + 1 < selection.size() ? "," : "");
  }
  printf("  ],\n  \"sim\": [\n");
  printf("    {\"nsegments\": 512, \"steps_per_sec\": %.0f},\n", sim512);
  printf("    {\"nsegments\": 4096, \"steps_per_sec\": %.0f}\n", sim4096);
  printf("  ],\n");
  printf("  \"sequential_read\": [\n");
  for (size_t i = 0; i < reads.size(); i++) {
    const ReadResult& read = reads[i];
    printf("    {\"file_mb\": %llu, \"block_size\": %u, \"coalesced_mb_per_s\": %.2f, "
           "\"per_block_mb_per_s\": %.2f, \"speedup\": %.2f, "
           "\"coalesced_requests_per_pass\": %llu, \"per_block_requests_per_pass\": %llu, "
           "\"coalesced_wall_mb_per_s\": %.1f, \"per_block_wall_mb_per_s\": %.1f}%s\n",
           static_cast<unsigned long long>(read.file_mb), read.block_size,
           read.coalesced_mb_s, read.per_block_mb_s,
           read.coalesced_mb_s / read.per_block_mb_s,
           static_cast<unsigned long long>(read.coalesced_requests),
           static_cast<unsigned long long>(read.per_block_requests),
           read.coalesced_wall_mb_s, read.per_block_wall_mb_s,
           i + 1 < reads.size() ? "," : "");
  }
  printf("  ],\n");
  printf("  \"byte_loops\": {\"crc32_mb_per_s\": %.1f, \"memcpy_mb_per_s\": %.1f, "
         "\"crc32_kernel\": \"%s\"}\n",
         loops.crc32_mb_s, loops.memcpy_mb_s, Crc32KernelName());
  printf("}\n");

  // The stable-schema report CI diffs. Modeled/count metrics are
  // deterministic; host wall-clock measurements carry the "wall." prefix so
  // schema comparisons can skip them.
  BenchReport report("perf_hotpaths");
  const uint32_t targets[2] = {512u, 4096u};
  for (size_t i = 0; i < selection.size(); i++) {
    const SelectionResult& s = selection[i];
    std::string p = "selection." + std::string(s.policy) + ".s" +
                    std::to_string(targets[i / 2]) + ".";
    report.AddScalar(p + "victims_per_pass", s.victims);
    report.AddScalar("wall." + p + "indexed_us_per_pass", s.indexed_us);
    report.AddScalar("wall." + p + "reference_us_per_pass", s.reference_us);
    report.AddScalar("wall." + p + "speedup", s.reference_us / s.indexed_us);
  }
  report.AddScalar("wall.sim.steps_per_sec.s512", sim512);
  report.AddScalar("wall.sim.steps_per_sec.s4096", sim4096);
  for (const ReadResult& read : reads) {
    std::string p = "read.bs" + std::to_string(read.block_size) + ".";
    report.AddScalar(p + "coalesced_mb_per_s", read.coalesced_mb_s);
    report.AddScalar(p + "per_block_mb_per_s", read.per_block_mb_s);
    report.AddScalar(p + "coalesced_requests_per_pass",
                     static_cast<double>(read.coalesced_requests));
    report.AddScalar(p + "per_block_requests_per_pass",
                     static_cast<double>(read.per_block_requests));
    report.AddScalar("wall." + p + "coalesced_mb_per_s", read.coalesced_wall_mb_s);
    report.AddScalar("wall." + p + "per_block_mb_per_s", read.per_block_wall_mb_s);
  }
  report.AddScalar("wall.crc32.mb_per_s", loops.crc32_mb_s);
  report.AddScalar("wall.memcpy.mb_per_s", loops.memcpy_mb_s);
  report.Write();
  return 0;
}

}  // namespace
}  // namespace lfs::bench

int main() { return lfs::bench::Main(); }
