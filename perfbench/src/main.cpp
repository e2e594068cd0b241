// lfsbench: runs one workload and prints its metrics.
//
//   lfsbench --workload churn|reread|mixed --seed N --seconds S --trace 0|1
//            [--spans FILE]
//   lfsbench --selftest
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1 runs
// the workload untraced and then traced, and prints the per-layer metrics of
// the traced run plus trace.ops_ratio, its ops_per_s over the untraced one.
// The last line of stdout is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
// the line before it records host diagnostics, which are not compared, and
// the sample count behind each latency metric.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "perfbench/src/measure.h"
#include "perfbench/src/selftest.h"
#include "perfbench/src/workloads.h"
#include "src/util/crc32.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Div(double a, double b) { return b == 0 ? 0.0 : a / b; }

// The median over the timed phase's rounds of f(round).
template <typename F>
double RoundMedian(const RunResult& r, F f) {
  std::vector<double> v;
  for (const Round& round : r.rounds) {
    v.push_back(f(round));
  }
  return v.empty() ? 0.0 : Median(v);
}

double OpsPerSecond(const RunResult& r) {
  return RoundMedian(r, [](const Round& x) { return Div(static_cast<double>(x.ops), x.wall_s); });
}

// The per-mille quantile of grouped samples in `scale` units, if they support it.
double Percentile(SampleGroups& groups, uint32_t per_mille, double scale, const char* name,
                  std::string* error) {
  size_t smallest = SIZE_MAX;
  size_t non_empty = 0;
  for (const auto& g : groups) {
    if (!g.empty()) {
      non_empty++;
      smallest = std::min(smallest, g.size());
    }
  }
  std::fprintf(stderr, "  %-14s %9llu samples in %zu groups (smallest supports p%.1f)\n", name,
               static_cast<unsigned long long>(SampleCount(groups)), non_empty,
               non_empty ? SupportedPerMille(smallest) / 10.0 : 0.0);
  std::optional<double> q = GroupedQuantile(groups, per_mille);
  if (!q) {
    *error += std::string(name) + " lacks samples; ";
    return 0.0;
  }
  return *q * scale;
}

std::vector<Metric> EndToEnd(RunResult& r, std::string* error) {
  constexpr double kMB = 1024.0 * 1024.0;
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(r.setup_s), "s"});
  m.push_back({"ops_per_s", OpsPerSecond(r), "ops/s"});
  m.push_back({"user_mb_per_s", RoundMedian(r, [&](const Round& x) {
                 return Div(static_cast<double>(x.user_bytes) / kMB, x.wall_s);
               }),
               "MB/s"});
  m.push_back({"cpu_us_per_op", RoundMedian(r, [](const Round& x) {
                 return Div(x.cpu_s * 1e6, static_cast<double>(x.ops));
               }),
               "us"});
  m.push_back({"read_p50_us", Percentile(r.lat.read, 500, 1e-3, "read_p50_us", error), "us"});
  m.push_back({"read_p99_us", Percentile(r.lat.read, 990, 1e-3, "read_p99_us", error), "us"});
  m.push_back({"write_p99_us", Percentile(r.lat.write, 990, 1e-3, "write_p99_us", error), "us"});
  m.push_back({"meta_p99_us", Percentile(r.lat.meta, 990, 1e-3, "meta_p99_us", error), "us"});
  m.push_back({"sync_p50_ms", Percentile(r.lat.sync, 500, 1e-6, "sync_p50_ms", error), "ms"});
  m.push_back({"recovery_s", r.recovery_s.empty() ? 0.0 : Median(r.recovery_s), "s"});
  m.push_back({"write_cost", r.write_cost, "ratio"});
  m.push_back({"modeled_disk_ms_per_op",
               Div(r.modeled_busy_s * 1e3, static_cast<double>(r.ops)), "ms"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return m;
}

// Rate of direct Crc32 calls on 4 KB buffers: the median of five batches.
double Crc32MbPerSecond() {
  std::vector<uint8_t> buf(kBlockBytes);
  lfs::Rng rng(7);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  constexpr int kCalls = 4096;
  std::vector<double> rates;
  uint32_t sink = 0;
  for (int batch = 0; batch < 5; batch++) {
    uint64_t start = NowNs();
    for (int i = 0; i < kCalls; i++) {
      buf[0] = static_cast<uint8_t>(i);
      sink ^= lfs::Crc32(buf);
    }
    double s = static_cast<double>(NowNs() - start) * 1e-9;
    rates.push_back(kCalls * static_cast<double>(kBlockBytes) / (1024.0 * 1024.0) / s);
  }
  if (sink == 0x12345678) {
    std::fprintf(stderr, "crc32: improbable sink value\n");
  }
  return Median(rates);
}

// Per-layer metrics of a traced run, from the spans of every thread and the
// counters read around the timed phase. `error` collects failed checks.
std::vector<Metric> PerLayer(const RunResult& r, double untraced_ops_per_s,
                             std::string* error) {
  std::array<SpanAgg, kSpanKinds> agg{};
  uint64_t lfs_read_blocks = 0;
  uint64_t stall_ops = 0;
  uint64_t stall_ns = 0;
  std::vector<double> driver_share;
  for (const ThreadTrace* t : Tracer::All()) {
    uint64_t driver_self = 0;
    uint64_t other_self = 0;
    for (size_t k = 0; k < kSpanKinds; k++) {
      const SpanAgg& a = t->agg()[k];
      agg[k].calls += a.calls;
      agg[k].total_ns += a.total_ns;
      agg[k].self_ns += a.self_ns;
      (LayerOf(static_cast<SpanKind>(k)) == Layer::kDriver ? driver_self : other_self) +=
          a.self_ns;
    }
    lfs_read_blocks += t->lfs_read_device_blocks;
    stall_ops += t->cleaner_stall_ops;
    stall_ns += t->cleaner_stall_ns;
    if (t->worker_wall_ns() > 0) {
      auto wall = static_cast<double>(t->worker_wall_ns());
      double accounted = static_cast<double>(driver_self + other_self) / wall;
      std::fprintf(stderr, "  worker thread: spans account for %.4f of the timed wall\n",
                   accounted);
      if (std::fabs(accounted - 1.0) > 0.10) {
        *error += "spans do not account for a worker's wall; ";
      }
      driver_share.push_back((wall - static_cast<double>(other_self)) / wall);
    }
  }
  auto layer = [&](Layer l, bool self) {
    double calls = 0;
    double ns = 0;
    for (size_t k = 0; k < kSpanKinds; k++) {
      if (LayerOf(static_cast<SpanKind>(k)) == l) {
        calls += static_cast<double>(agg[k].calls);
        ns += static_cast<double>(self ? agg[k].self_ns : agg[k].total_ns);
      }
    }
    return std::pair{calls, ns};
  };
  const double ops = static_cast<double>(r.ops);
  const double user_written = static_cast<double>(r.user_write_bytes);
  const lfs::LfsStats& a = r.after.lfs;
  const lfs::LfsStats& b = r.before.lfs;
  auto d = [](uint64_t after, uint64_t before) { return static_cast<double>(after - before); };
  const double log_bytes = d(a.total_log_written(), b.total_log_written());
  const double data_bytes = d(a.log_bytes_by_kind[1], b.log_bytes_by_kind[1]);  // BlockKind::kData
  const double cleaned = d(a.segments_cleaned, b.segments_cleaned);
  const double empty = d(a.segments_cleaned_empty, b.segments_cleaned_empty);
  const lfs::DiskStats disk = r.after.disk - r.before.disk;
  const double hits = d(r.after.cache.hits, r.before.cache.hits);
  const double misses = d(r.after.cache.misses, r.before.cache.misses);
  const double bs = kBlockBytes;
  double workers_wall = r.workers * r.wall_s;
  double worker_cpu = 0;
  for (double c : r.worker_cpu_s) {
    worker_cpu += c;
  }

  std::vector<Metric> m;
  m.push_back({"driver.self_share", driver_share.empty() ? 0.0 : Median(driver_share),
               "fraction"});
  auto [fd_calls, fd_self] = layer(Layer::kFdTable, true);
  m.push_back({"fd_table.self_us_per_call", Div(fd_self * 1e-3, fd_calls), "us"});
  m.push_back({"fd_table.calls_per_op", Div(fd_calls, ops), "calls/op"});
  const std::pair<const char*, SpanKind> lfs_calls[] = {{"create", SpanKind::kLfsCreate},
                                                        {"write", SpanKind::kLfsWrite},
                                                        {"read", SpanKind::kLfsRead},
                                                        {"unlink", SpanKind::kLfsUnlink},
                                                        {"sync", SpanKind::kLfsSync}};
  for (auto [name, kind] : lfs_calls) {
    const SpanAgg& s = agg[static_cast<size_t>(kind)];
    std::string base = std::string("lfs.") + name;
    m.push_back({base + ".self_us",
                 Div(static_cast<double>(s.self_ns) * 1e-3, static_cast<double>(s.calls)), "us"});
    m.push_back({base + ".calls", static_cast<double>(s.calls), "count"});
  }
  m.push_back({"segment_writer.blocks_per_write",
               Div(static_cast<double>(r.after.under_lfs_write_blocks -
                                       r.before.under_lfs_write_blocks),
                   static_cast<double>(r.after.under_lfs_write_calls -
                                       r.before.under_lfs_write_calls)),
               "blocks"});
  m.push_back({"segment_writer.log_bytes_per_user_byte", Div(log_bytes, user_written), "B/B"});
  m.push_back({"segment_writer.meta_bytes_per_user_byte", Div(log_bytes - data_bytes, user_written),
               "B/B"});
  m.push_back({"segment_writer.summary_share",
               Div(d(a.summary_bytes, b.summary_bytes), log_bytes), "fraction"});
  m.push_back({"crc32.mb_per_s", Crc32MbPerSecond(), "MB/s"});
  m.push_back({"cleaner.passes", d(a.cleaner_passes, b.cleaner_passes), "count"});
  m.push_back({"cleaner.segments_cleaned", cleaned, "count"});
  m.push_back({"cleaner.empty_fraction", Div(empty, cleaned), "fraction"});
  m.push_back({"cleaner.avg_cleaned_u",
               Div(a.sum_cleaned_utilization - b.sum_cleaned_utilization, cleaned - empty),
               "fraction"});
  m.push_back({"cleaner.copy_bytes_per_user_byte",
               Div(d(a.clean_write_bytes, b.clean_write_bytes), user_written), "B/B"});
  m.push_back({"cleaner.stall_ops", static_cast<double>(stall_ops), "count"});
  m.push_back({"cleaner.stall_ms", static_cast<double>(stall_ns) * 1e-6, "ms"});
  m.push_back({"checkpoint.count", d(a.checkpoints, b.checkpoints), "count"});
  m.push_back({"checkpoint.bytes", d(a.checkpoint_bytes, b.checkpoint_bytes), "B"});
  m.push_back({"recovery.partials_replayed", static_cast<double>(r.recovery_partials), "count"});
  m.push_back({"recovery.read_blocks", static_cast<double>(r.recovery_read_blocks), "blocks"});
  m.push_back({"read_cache.miss_blocks_per_read",
               Div(static_cast<double>(lfs_read_blocks),
                   static_cast<double>(agg[static_cast<size_t>(SpanKind::kLfsRead)].calls)),
               "blocks"});
  m.push_back({"block_cache.hit_ratio", Div(hits, hits + misses), "fraction"});
  m.push_back({"block_cache.evictions_per_op",
               Div(d(r.after.cache.evictions, r.before.cache.evictions), ops), "count/op"});
  m.push_back({"block_cache.writebacks_per_op",
               Div(d(r.after.cache.writebacks, r.before.cache.writebacks), ops), "count/op"});
  auto [cache_calls, cache_self] = layer(Layer::kBlockCache, true);
  m.push_back({"block_cache.self_us_per_call", Div(cache_self * 1e-3, cache_calls), "us"});
  m.push_back({"disk.read_calls_per_op", Div(static_cast<double>(disk.reads), ops), "calls/op"});
  m.push_back({"disk.read_blocks_per_call",
               Div(static_cast<double>(disk.bytes_read) / bs, static_cast<double>(disk.reads)),
               "blocks"});
  m.push_back({"disk.write_blocks_per_call",
               Div(static_cast<double>(disk.bytes_written) / bs, static_cast<double>(disk.writes)),
               "blocks"});
  auto [disk_calls, disk_self] = layer(Layer::kDisk, true);
  m.push_back({"disk.self_us_per_call", Div(disk_self * 1e-3, disk_calls), "us"});
  m.push_back({"disk.modeled_busy_s", disk.busy_sec, "s"});
  m.push_back({"disk.seeks", static_cast<double>(disk.seeks), "count"});
  m.push_back({"group_commit.offcpu_share",
               Div(workers_wall - worker_cpu - (r.after.steal_s - r.before.steal_s), workers_wall),
               "fraction"});
  m.push_back({"trace.ops_ratio", Div(OpsPerSecond(r), untraced_ops_per_s), "ratio"});
  return m;
}

RunResult Run(const Options& opts) {
  if (opts.workload == "churn") {
    return RunChurn(opts);
  }
  if (opts.workload == "reread") {
    return RunReread(opts);
  }
  return RunMixed(opts);
}

void PrintResult(const RunResult& r, const std::vector<Metric>& metrics, bool correct) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    char num[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Main(int argc, char** argv) {
  Options opts;
  std::string spans_path;
  bool selftest = false;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (val == nullptr) {
      std::fprintf(stderr, "lfsbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    i++;
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(val, "0") != 0;
    } else if (arg == "--spans") {
      spans_path = val;
    } else {
      std::fprintf(stderr, "lfsbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (selftest) {
    return RunSelfTests();
  }
  if (opts.workload != "churn" && opts.workload != "reread" && opts.workload != "mixed") {
    std::fprintf(stderr, "lfsbench: --workload must be churn, reread or mixed\n");
    return 2;
  }
  if (!(opts.seconds > 0)) {
    std::fprintf(stderr, "lfsbench: --seconds must be positive\n");
    return 2;
  }

  double calibration = CalibrationMops();
  double steal0 = StealSeconds();
  std::string error;
  std::vector<Metric> metrics;
  RunResult result;
  std::fprintf(stderr, "lfsbench %s seed %llu, %g s%s\n", opts.workload.c_str(),
               static_cast<unsigned long long>(opts.seed), opts.seconds,
               opts.trace ? ", traced" : "");
  if (!opts.trace) {
    result = Run(opts);
    metrics = EndToEnd(result, &error);
  } else {
    Options untraced = opts;
    untraced.trace = false;
    untraced.setups = 1;
    RunResult base = Run(untraced);
    Options traced = untraced;
    traced.trace = true;
    result = Run(traced);
    result.attempted += base.attempted;
    result.failed += base.failed;
    metrics = PerLayer(result, OpsPerSecond(base), &error);
    if (!spans_path.empty() && !Tracer::WriteCsv(spans_path)) {
      error += "cannot write " + spans_path + "; ";
    }
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
    if (!std::isfinite(m.value)) {
      error += m.name + " is not finite; ";
    }
  }
  if (!error.empty()) {
    std::fprintf(stderr, "lfsbench: %s\n", error.c_str());
    return 1;
  }
  std::printf("{\"host\": {\"calibration_mops\": %.6g, \"steal_s\": %.3f, \"hw_threads\": %u}, "
              "\"samples\": {\"read\": %zu, \"write\": %zu, \"meta\": %zu, \"sync\": %zu, "
              "\"recovery\": %zu}}\n",
              calibration, StealSeconds() - steal0, std::thread::hardware_concurrency(),
              SampleCount(result.lat.read), SampleCount(result.lat.write),
              SampleCount(result.lat.meta), SampleCount(result.lat.sync),
              result.recovery_s.size());
  PrintResult(result, metrics, result.failed == 0);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
