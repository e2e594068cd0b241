// Cleaner QoS benchmark: foreground tail latency under sustained overwrite
// at high disk utilization, with and without fine-grained reclamation.
//
// The paper's Figure 3 story is about *write cost*; this bench is about the
// other casualty of high utilization: foreground p99. At 90% utilization the
// cleaner must run often and every pass it takes synchronously inside a
// write's flush shows up as a latency spike. Three instances run the same
// skewed overwrite stream over the modeled Wren IV disk:
//
//   u70          - 70% utilization, fixed cost-benefit cleaning (the
//                  comfortable baseline the acceptance ratio compares against)
//   u90_fixed    - 90% utilization, fixed cost-benefit, whole-segment
//                  copying, no throttle (the regression this PR attacks)
//   u90_adaptive - 90% utilization with the full ISSUE-10 stack: adaptive
//                  policy governor + partial-segment compaction + cleaner
//                  QoS token bucket
//
// Partial compaction caps how many live blocks one pass may relocate, so the
// burst a foreground op can get stuck behind is bounded; the QoS bucket
// defers discretionary passes when the cleaner has outrun its budget; the
// governor picks greedy ordering whenever the overwrite stream has emptied
// out enough victims. CI gates two ratios on this report:
//
//   p99_us_70 / p99_us_90_adaptive   >= 0.5   (p99 within 2x of the 70% run)
//   copy_bytes_fixed / copy_bytes_adaptive >= 1.0   (adaptive moves no more)
//
// Everything runs off the modeled clock with a fixed RNG seed, so the JSON
// is byte-stable and diffed against bench/baselines/smoke/.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/obs/latency.h"
#include "src/util/table.h"

using namespace lfs;
using namespace lfs::bench;

namespace {

const uint64_t kDiskBytes = SmokePick(64, 16) * 1024 * 1024;
const uint64_t kOverwriteOps = SmokePick(4000, 600);
constexpr uint32_t kFileBlocks = 8;  // 32-KB files
constexpr uint32_t kSyncEvery = 8;
// 80% of overwrites hit the hottest 20% of files: the skew that makes the
// dirty population bimodal (hot segments empty out fast, cold ones sit at
// high utilization) — the regime the adaptive governor is built for.
constexpr double kHotFraction = 0.2;
constexpr double kHotProbability = 0.8;

// Smaller segments than PaperLfsConfig so even the smoke disk holds enough
// of them (64 at 16 MB) for selection pressure to be real.
LfsConfig BenchConfig() {
  LfsConfig cfg;
  cfg.block_size = 4096;
  cfg.segment_blocks = 64;  // 256-KB segments
  cfg.max_inodes = 8192;
  cfg.clean_lo = 4;
  cfg.clean_hi = 8;
  cfg.segments_per_pass = 4;
  cfg.reserve_segments = 4;
  cfg.write_buffer_blocks = 64;
  return cfg;
}

void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "cleaner_qos %s: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

struct InstanceResult {
  uint64_t files = 0;
  double fill_utilization = 0.0;
  obs::LatencyHistogram latency;  // one sample per overwrite op (modeled time)
  LfsStats stats;
  uint64_t copy_bytes = 0;  // clean_read_bytes + clean_write_bytes
  double write_cost = 0.0;
};

InstanceResult RunInstance(const char* name, double target_utilization,
                           bool adaptive) {
  LfsConfig cfg = BenchConfig();
  if (adaptive) {
    cfg.adaptive_cleaning = true;
    cfg.partial_compaction = true;
    // A quarter segment per drain slice: the largest copy burst one
    // foreground flush can get stuck behind.
    cfg.partial_compaction_max_blocks = 16;
    cfg.cleaner_qos_bytes_per_sec = 512.0 * 1024;  // ~40% of Wren IV bandwidth
    cfg.cleaner_qos_burst_sec = 0.5;
  }
  LfsInstance inst = MakeLfs(kDiskBytes, cfg);
  InstanceResult res;

  // --- fill to the target utilization with whole files ---------------------------
  const uint64_t file_bytes = uint64_t{kFileBlocks} * cfg.block_size;
  std::vector<uint8_t> buf(file_bytes);
  for (size_t i = 0; i < buf.size(); i++) {
    buf[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  // "Utilization" here is relative to the space the writer will actually let
  // us commit (capacity minus the cleaning reserve, capped at 4/5 of the
  // segments — see CheckSpace): u90 runs at 90% of the ENOSPC ceiling, the
  // regime where every reclaimed segment is expensive.
  LfsStatFs sfs = inst.fs->StatFs();
  const uint64_t seg_bytes = sfs.total_bytes / sfs.nsegments;
  uint64_t usable_segs = sfs.nsegments > cfg.reserve_segments + 2
                             ? sfs.nsegments - cfg.reserve_segments - 2
                             : 0;
  usable_segs = std::min<uint64_t>(usable_segs, sfs.nsegments * 4 / 5);
  const uint64_t target_bytes = static_cast<uint64_t>(
      target_utilization * static_cast<double>(usable_segs * seg_bytes));
  std::vector<InodeNum> files;
  while (inst.fs->StatFs().live_bytes + file_bytes <= target_bytes) {
    std::string path = "/f" + std::to_string(files.size());
    auto ino = inst.fs->Create(path);
    Check(ino.status(), "create");
    Check(inst.fs->WriteAt(*ino, 0, buf), "fill write");
    files.push_back(*ino);
  }
  Check(inst.fs->Sync(), "fill sync");
  res.files = files.size();
  res.fill_utilization = inst.fs->disk_utilization();

  // The overwrite stream is the measurement; the fill is not.
  inst.fs->mutable_stats() = LfsStats{};
  inst.disk->ResetStats();

  // --- sustained skewed overwrite -------------------------------------------------
  Rng rng(20260808);
  const uint64_t hot_count =
      std::max<uint64_t>(1, static_cast<uint64_t>(
                                static_cast<double>(files.size()) * kHotFraction));
  for (uint64_t op = 0; op < kOverwriteOps; op++) {
    uint64_t victim = rng.NextDouble() < kHotProbability
                          ? rng.NextU64() % hot_count
                          : hot_count + rng.NextU64() % (files.size() - hot_count);
    buf[0] = static_cast<uint8_t>(op);  // dirty every block each time
    double t0 = inst.disk->ModeledTime();
    Check(inst.fs->WriteAt(files[victim], 0, buf), "overwrite");
    if ((op + 1) % kSyncEvery == 0) {
      Check(inst.fs->Sync(), "sync");
    }
    res.latency.Record(inst.disk->ModeledTime() - t0);
  }
  Check(inst.fs->Sync(), "final sync");

  res.stats = inst.fs->stats();
  res.copy_bytes = res.stats.clean_read_bytes + res.stats.clean_write_bytes;
  res.write_cost = res.stats.WriteCost();
  std::printf(
      "  %-12s %5" PRIu64 " files, fill u %.3f, p50 %.0f us, p99 %.0f us, "
      "write cost %.2f, copied %s\n",
      name, res.files, res.fill_utilization, res.latency.PercentileUs(0.50),
      res.latency.PercentileUs(0.99), res.write_cost,
      HumanBytes(res.copy_bytes).c_str());
  Check(inst.fs->Unmount(), "unmount");
  return res;
}

}  // namespace

int main() {
  std::printf("=== Cleaner QoS: foreground p99 under sustained overwrite ===\n\n");
  auto wall0 = std::chrono::steady_clock::now();

  InstanceResult u70 = RunInstance("u70", 0.70, /*adaptive=*/false);
  InstanceResult u90_fixed = RunInstance("u90_fixed", 0.90, /*adaptive=*/false);
  InstanceResult u90_adaptive = RunInstance("u90_adaptive", 0.90, /*adaptive=*/true);
  double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();

  BenchReport report("cleaner_qos");
  report.AddScalar("disk_bytes", static_cast<double>(kDiskBytes));
  report.AddScalar("overwrite_ops", static_cast<double>(kOverwriteOps));
  report.AddScalar("wall.run_sec", wall_sec);

  // The scalars CI's ratio gates read. p99 within 2x of the 70% baseline:
  // p99_us_70 / p99_us_90_adaptive >= 0.5. Adaptive must not copy more than
  // fixed cost-benefit: copy_bytes_fixed / copy_bytes_adaptive >= 1.0.
  report.AddScalar("p99_us_70", u70.latency.PercentileUs(0.99));
  report.AddScalar("p99_us_90_fixed", u90_fixed.latency.PercentileUs(0.99));
  report.AddScalar("p99_us_90_adaptive", u90_adaptive.latency.PercentileUs(0.99));
  report.AddScalar("write_cost_70", u70.write_cost);
  report.AddScalar("write_cost_90_fixed", u90_fixed.write_cost);
  report.AddScalar("write_cost_90_adaptive", u90_adaptive.write_cost);
  report.AddScalar("copy_bytes_fixed", static_cast<double>(u90_fixed.copy_bytes));
  report.AddScalar("copy_bytes_adaptive",
                   static_cast<double>(u90_adaptive.copy_bytes));

  const LfsStats& ast = u90_adaptive.stats;
  report.AddScalar("adaptive.segments_cleaned",
                   static_cast<double>(ast.segments_cleaned));
  report.AddScalar("adaptive.cleaned_greedy",
                   static_cast<double>(ast.segments_cleaned_by_policy[0]));
  report.AddScalar("adaptive.cleaned_costbenefit",
                   static_cast<double>(ast.segments_cleaned_by_policy[1]));
  report.AddScalar("adaptive.partial_compactions",
                   static_cast<double>(ast.partial_compactions));
  report.AddScalar("adaptive.full_compactions",
                   static_cast<double>(ast.full_compactions));
  report.AddScalar("adaptive.partial_blocks_moved",
                   static_cast<double>(ast.partial_blocks_moved));
  report.AddScalar("adaptive.governor_switches",
                   static_cast<double>(ast.governor_switches));
  report.AddScalar("adaptive.qos_deferrals",
                   static_cast<double>(ast.qos_deferrals));
  report.AddScalar("adaptive.qos_escalations",
                   static_cast<double>(ast.qos_escalations));
  report.AddScalar("adaptive.qos_charged_bytes",
                   static_cast<double>(ast.qos_charged_bytes));
  report.AddScalar("fixed90.segments_cleaned",
                   static_cast<double>(u90_fixed.stats.segments_cleaned));

  report.registry().AddHistogram("overwrite.u70", u70.latency);
  report.registry().AddHistogram("overwrite.u90_fixed", u90_fixed.latency);
  report.registry().AddHistogram("overwrite.u90_adaptive", u90_adaptive.latency);

  Table table({"Instance", "p50_us", "p95_us", "p99_us", "Write cost", "Copied"});
  struct Row {
    const char* name;
    const InstanceResult* r;
  } rows[] = {{"u70", &u70}, {"u90_fixed", &u90_fixed}, {"u90_adaptive", &u90_adaptive}};
  for (const Row& row : rows) {
    table.AddRow({row.name, Table::Fmt(row.r->latency.PercentileUs(0.50), 0),
                  Table::Fmt(row.r->latency.PercentileUs(0.95), 0),
                  Table::Fmt(row.r->latency.PercentileUs(0.99), 0),
                  Table::Fmt(row.r->write_cost, 2), HumanBytes(row.r->copy_bytes)});
  }
  std::printf("\n%s\n", table.ToString().c_str());
  double ratio = u90_adaptive.latency.PercentileUs(0.99) > 0
                     ? u70.latency.PercentileUs(0.99) /
                           u90_adaptive.latency.PercentileUs(0.99)
                     : 0;
  std::printf("p99_70 / p99_90_adaptive = %.3f (CI gate: >= 0.5)\n", ratio);
  std::printf("governor switched %" PRIu64 "x, deferred %" PRIu64
              ", escalated %" PRIu64 ", %" PRIu64 " partial drains\n",
              ast.governor_switches.load(), ast.qos_deferrals.load(),
              ast.qos_escalations.load(), ast.partial_compactions.load());

  report.Write();
  return 0;
}
