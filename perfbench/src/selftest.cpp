#include "perfbench/src/selftest.h"

#include <cstdio>
#include <numeric>
#include <vector>

#include "perfbench/src/measure.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    failures++;
  }
}

void TestPercentiles() {
  // p99 needs ten samples beyond it, so 1,000 samples; p50 needs 20.
  Expect(SamplesBeyond(1000, 990) == 10, "1000 samples leave 10 beyond p99");
  Expect(SamplesBeyond(999, 990) == 9, "999 samples leave 9 beyond p99");
  Expect(SupportedPerMille(19) == 0, "19 samples support no quantile");
  Expect(SupportedPerMille(20) == 500, "20 samples support p50");
  Expect(SupportedPerMille(99) == 500, "99 samples support p50 only");
  Expect(SupportedPerMille(100) == 900, "100 samples support p90");
  Expect(SupportedPerMille(999) == 900, "999 samples support p90 only");
  Expect(SupportedPerMille(1000) == 990, "1000 samples support p99");
  Expect(SupportedPerMille(10000) == 999, "10000 samples support p99.9");

  std::vector<uint64_t> v(1000);
  std::iota(v.begin(), v.end(), 1);  // 1..1000, shuffled below
  for (size_t i = 0; i < v.size(); i++) {
    std::swap(v[i], v[(i * 7919) % v.size()]);
  }
  Expect(Quantile(v, 990) == 990, "nearest-rank p99 of 1..1000 is 990");
  Expect(Quantile(v, 500) == 500, "nearest-rank p50 of 1..1000 is 500");
  std::vector<uint64_t> one = {42};
  Expect(Quantile(one, 990) == 42, "quantile of one sample is that sample");
  Expect(Median({3, 1, 2}) == 2, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median averages the middle pair");

  // Three groups of 1,000 that each support p99: the median of their p99s.
  // An empty group is skipped.
  SampleGroups groups(4);
  for (uint64_t i = 1; i <= 1000; i++) {
    groups[0].push_back(i);
    groups[1].push_back(10 * i);
    groups[3].push_back(100 * i);
  }
  Expect(GroupedQuantile(groups, 990) == 9900.0, "median of the groups' p99s");
  // A group of 500 does not support p99, so the 3,500 samples are pooled:
  // nearest rank 3,465 of the pooled values.
  groups[2].assign(500, 5);
  std::vector<uint64_t> pool;
  for (const auto& g : groups) {
    pool.insert(pool.end(), g.begin(), g.end());
  }
  Expect(GroupedQuantile(groups, 990) == static_cast<double>(Quantile(pool, 990)),
         "a group short of samples pools them all");
  Expect(SampleCount(groups) == 3500, "sample count over groups");
  SampleGroups few(2, std::vector<uint64_t>(5, 1));
  Expect(!GroupedQuantile(few, 500).has_value(), "10 pooled samples do not support p50");
}

void TestSelfTime() {
  // driver.op [0, 100) encloses lfs.write [10, 90), which encloses two
  // disk.write spans [20, 50) and [60, 70).
  ThreadTrace t;
  t.set_op(7);
  t.Begin(SpanKind::kDriverOp, 0);
  t.Begin(SpanKind::kLfsWrite, 10);
  t.Begin(SpanKind::kDiskWrite, 20);
  t.End(50);
  t.Begin(SpanKind::kDiskWrite, 60);
  t.End(70);
  t.End(90);
  t.End(100);
  auto agg = [&](SpanKind k) { return t.agg()[static_cast<size_t>(k)]; };
  Expect(agg(SpanKind::kDiskWrite).calls == 2, "two disk spans");
  Expect(agg(SpanKind::kDiskWrite).self_ns == 40, "disk self = 30 + 10");
  Expect(agg(SpanKind::kLfsWrite).total_ns == 80, "lfs span duration");
  Expect(agg(SpanKind::kLfsWrite).self_ns == 40, "lfs self = 80 - 40");
  Expect(agg(SpanKind::kDriverOp).self_ns == 20, "driver self = 100 - 80");
  uint64_t self_sum = 0;
  for (const SpanAgg& a : t.agg()) {
    self_sum += a.self_ns;
  }
  Expect(self_sum == 100, "self times of a tree sum to its root's duration");

  const std::vector<SpanRecord>& rec = t.records();
  Expect(rec.size() == 4, "four raw spans");
  // Records are written as spans end: disk, disk, lfs, driver.
  Expect(rec[0].parent == rec[2].id && rec[1].parent == rec[2].id, "disk spans' parent is lfs");
  Expect(rec[2].parent == rec[3].id && rec[3].parent == 0, "lfs under the root op");
  Expect(rec[3].op == 7, "spans carry the op id");
}

void TestDeterminism() {
  Expect(ChurnScriptDigest(1, 1) == ChurnScriptDigest(1, 1), "churn script repeats for a seed");
  Expect(ChurnScriptDigest(1, 1) != ChurnScriptDigest(2, 1), "churn script follows the seed");
  Expect(RereadScriptDigest(1, 1) == RereadScriptDigest(1, 1), "reread script repeats");
  Expect(RereadScriptDigest(1, 1) != RereadScriptDigest(2, 1), "reread script follows the seed");
  Expect(MixedScriptDigest(1, 1) == MixedScriptDigest(1, 1), "mixed script repeats");
  Expect(MixedScriptDigest(1, 1) != MixedScriptDigest(2, 1), "mixed script follows the seed");

  PayloadPool a(5), b(5), c(6);
  std::vector<uint8_t> x(kBlockBytes), y(kBlockBytes);
  a.Fill(3, 1, 2, x.data());
  b.Fill(3, 1, 2, y.data());
  Expect(x == y, "payload repeats for a seed");
  c.Fill(3, 1, 2, y.data());
  Expect(x != y, "payload follows the seed");
  Expect(a.Matches(x.data(), 3, 1, 2), "a filled block matches itself");
  Expect(!a.Matches(x.data(), 3, 1, 3), "another version does not match");
  x[kBlockBytes - 1] ^= 1;
  Expect(!a.Matches(x.data(), 3, 1, 2), "a flipped body bit does not match");
}

}  // namespace

int RunSelfTests() {
  TestPercentiles();
  TestSelfTime();
  TestDeterminism();
  std::fprintf(stderr, "selftest: %s\n", failures == 0 ? "all checks passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
