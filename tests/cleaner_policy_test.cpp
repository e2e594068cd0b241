// Fine-grained reclamation (ISSUE 10): the adaptive policy governor, the
// cleaner QoS token bucket, and partial-segment compaction.
//
//   - governor thresholds: an emptied-out utilization histogram flips the hot
//     log to greedy, a mid-utilization one keeps cost-benefit, and switches
//     are counted;
//   - QoS accounting: refill against the modeled clock capped at burst,
//     charges that may run the bucket into deficit, discretionary deferral
//     above the critical floor and escalation at it (no wedge);
//   - partial compaction: differential oracle against the full-copy cleaner
//     (byte-identical namespaces, clean lfsck, clean remount on both), and
//     exhaustive crash-point exploration through a drain.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/explorer.h"
#include "src/check/workload.h"
#include "src/lfs/check.h"
#include "tests/test_util.h"

namespace lfs {
namespace {

using ::lfs::testing::SmallConfig;
using ::lfs::testing::TestContent;

// ---------------------------------------------------------------------------
// Governor thresholds

// A histogram with `n` buckets, all zero.
std::vector<uint32_t> Histogram(size_t n) { return std::vector<uint32_t>(n, 0); }

LfsConfig AdaptiveConfig() {
  LfsConfig cfg;
  cfg.adaptive_cleaning = true;
  return cfg;
}

TEST(CleanerGovernorTest, EmptiedOutHistogramSwitchesHotLogToGreedy) {
  CleanerGovernor gov;
  gov.Configure(AdaptiveConfig());
  ASSERT_TRUE(gov.enabled());

  // Everything nearly empty: greedy is optimal (cheapest victims first).
  std::vector<uint32_t> hist = Histogram(64);
  hist[0] = 10;
  hist[1] = 5;
  GovernorDecision d = gov.Decide(hist);
  EXPECT_EQ(d.hot_policy, CleaningPolicy::kGreedy);
  EXPECT_EQ(d.cold_policy, CleaningPolicy::kCostBenefit);

  // The expensive middle of the bimodal distribution: cost-benefit.
  std::vector<uint32_t> mid = Histogram(64);
  mid[32] = 20;
  mid[40] = 20;
  d = gov.Decide(mid);
  EXPECT_EQ(d.hot_policy, CleaningPolicy::kCostBenefit);
  EXPECT_EQ(d.cold_policy, CleaningPolicy::kCostBenefit);
}

TEST(CleanerGovernorTest, ThresholdIsInclusiveAndSwitchesAreCounted) {
  static_assert(CleanerGovernor::kGreedyFraction == 0.35 && CleanerGovernor::kLowU == 0.25,
                "the counts below sit exactly on these thresholds");
  CleanerGovernor gov;
  gov.Configure(AdaptiveConfig());

  // With 64 buckets, buckets 0..15 have (b+1)/64 <= 0.25 and count as "low".
  // low/total = 7/20 is exactly the greedy fraction: inclusive, so greedy.
  std::vector<uint32_t> hist = Histogram(64);
  hist[4] = 7;    // low
  hist[32] = 13;  // mid
  EXPECT_EQ(gov.Decide(hist).hot_policy, CleaningPolicy::kGreedy);
  EXPECT_EQ(gov.switches(), 0u);  // first decision establishes the baseline

  // One fewer low victim drops below the fraction: back to cost-benefit.
  hist[4] = 6;
  hist[32] = 14;
  EXPECT_EQ(gov.Decide(hist).hot_policy, CleaningPolicy::kCostBenefit);
  EXPECT_EQ(gov.switches(), 1u);

  // Same decision again is not a switch.
  EXPECT_EQ(gov.Decide(hist).hot_policy, CleaningPolicy::kCostBenefit);
  EXPECT_EQ(gov.switches(), 1u);

  // An empty histogram (no dirty segments) is not "emptied out".
  EXPECT_EQ(gov.Decide(Histogram(64)).hot_policy, CleaningPolicy::kCostBenefit);
  EXPECT_EQ(gov.switches(), 1u);
}

TEST(CleanerGovernorTest, DisabledGovernorPassesThroughFixedPolicy) {
  LfsConfig cfg;
  cfg.policy = CleaningPolicy::kGreedy;
  CleanerGovernor gov;
  gov.Configure(cfg);
  ASSERT_FALSE(gov.enabled());

  std::vector<uint32_t> mid = Histogram(64);
  mid[32] = 100;  // would be cost-benefit if the governor were deciding
  GovernorDecision d = gov.Decide(mid);
  EXPECT_EQ(d.hot_policy, CleaningPolicy::kGreedy);
  EXPECT_EQ(d.cold_policy, CleaningPolicy::kGreedy);
  EXPECT_EQ(gov.switches(), 0u);
}

// ---------------------------------------------------------------------------
// QoS token accounting

TEST(CleanerQosTest, RefillChargeAndDeficitAccounting) {
  CleanerQos qos;
  qos.Configure(/*bytes_per_sec=*/1000.0, /*burst_sec=*/2.0);
  ASSERT_TRUE(qos.enabled());
  // Starts full: 2000 bytes of burst.
  EXPECT_DOUBLE_EQ(qos.tokens(), 2000.0);
  EXPECT_TRUE(qos.HasTokens());

  qos.Charge(500);
  EXPECT_DOUBLE_EQ(qos.tokens(), 1500.0);
  EXPECT_DOUBLE_EQ(qos.deficit_bytes(), 0.0);

  // An escalated pass may overdraw: the bucket goes negative.
  qos.Charge(2000);
  EXPECT_DOUBLE_EQ(qos.tokens(), -500.0);
  EXPECT_DOUBLE_EQ(qos.deficit_bytes(), 500.0);
  EXPECT_FALSE(qos.HasTokens());

  // The first refill only anchors the clock; no tokens accrue.
  qos.Refill(10.0);
  EXPECT_DOUBLE_EQ(qos.tokens(), -500.0);
  // 0.4 modeled seconds at 1000 B/s pays back 400 bytes of the deficit.
  qos.Refill(10.4);
  EXPECT_NEAR(qos.tokens(), -100.0, 1e-6);
  EXPECT_FALSE(qos.HasTokens());
  // A long idle stretch refills, capped at the burst size.
  qos.Refill(100.0);
  EXPECT_DOUBLE_EQ(qos.tokens(), 2000.0);
  EXPECT_TRUE(qos.HasTokens());
  // Time never runs backwards on the modeled clock; a stale now is a no-op.
  qos.Refill(50.0);
  EXPECT_DOUBLE_EQ(qos.tokens(), 2000.0);
}

TEST(CleanerQosTest, ZeroRateDisablesThrottling) {
  CleanerQos qos;
  qos.Configure(0.0, 1.0);
  EXPECT_FALSE(qos.enabled());
  EXPECT_TRUE(qos.HasTokens());
  qos.Charge(1 << 30);
  EXPECT_TRUE(qos.HasTokens());  // charges are no-ops when disabled
}

TEST(CleanerQosTest, DiscretionaryPassDefersWhenBucketIsDry) {
  LfsConfig cfg = SmallConfig();
  cfg.cleaner_qos_bytes_per_sec = 1.0;  // effectively always dry
  cfg.cleaner_qos_burst_sec = 0.0;      // start empty
  MemDisk disk(cfg.block_size, 8192);
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();
  ASSERT_TRUE(fs->cleaner_qos().enabled());

  // Fragment a few segments so there would be victims to clean.
  for (int i = 0; i < 8; i++) {
    ASSERT_OK(fs->WriteFile("/f" + std::to_string(i),
                            TestContent(i, 8 * cfg.block_size)));
  }
  ASSERT_OK(fs->Sync());
  for (int i = 0; i < 8; i += 2) {
    ASSERT_OK(fs->Unlink("/f" + std::to_string(i)));
  }
  ASSERT_OK(fs->Sync());

  // The clean pool is far above the critical floor, so the pass is
  // discretionary — and the dry bucket defers it without selecting victims.
  ASSERT_OK_AND_ASSIGN(uint32_t reclaimed, fs->ForceClean());
  EXPECT_EQ(reclaimed, 0u);
  EXPECT_GE(fs->stats().qos_deferrals, 1u);
  EXPECT_EQ(fs->stats().qos_escalations, 0u);
  EXPECT_EQ(fs->stats().segments_cleaned, 0u);
  ASSERT_OK(fs->Unmount());
}

TEST(CleanerQosTest, EscalatesAtCriticalFloorInsteadOfWedging) {
  LfsConfig cfg = SmallConfig();
  cfg.cleaner_qos_bytes_per_sec = 1.0;  // dry forever at this scale
  cfg.cleaner_qos_burst_sec = 0.0;
  // Small disk so sustained churn actually erodes the clean pool down to the
  // critical floor within a few waves.
  MemDisk disk(cfg.block_size, 2048);
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();

  std::map<std::string, std::vector<uint8_t>> model;
  int file_id = 0;
  for (int wave = 0; wave < 36 && fs->stats().qos_escalations == 0; wave++) {
    // Land a wave of files on disk first (Sync), THEN kill every other one:
    // unlinking before the sync would just drop the blocks from the write
    // buffer and leave the segments fully live. This way each wave turns
    // ~3 segments half-live — dead space only cleaning can reclaim — and the
    // dry bucket defers discretionary passes until the pool hits the floor.
    for (int j = 0; j < 6; j++, file_id++) {
      std::string name = "/w" + std::to_string(file_id);
      std::vector<uint8_t> data =
          TestContent(static_cast<uint64_t>(file_id), 8 * cfg.block_size);
      ASSERT_OK(fs->WriteFile(name, data));
      model[name] = std::move(data);
    }
    ASSERT_OK(fs->Sync());
    for (int j = 0; j < 6; j += 2) {
      std::string name = "/w" + std::to_string(file_id - 6 + j);
      ASSERT_OK(fs->Unlink(name));
      model.erase(name);
    }
    ASSERT_OK(fs->Sync());
  }

  // The throttle deferred discretionary passes but escalated at the floor:
  // the filesystem kept going instead of wedging on a dry bucket.
  EXPECT_GE(fs->stats().qos_escalations, 1u);
  EXPECT_GT(fs->stats().qos_charged_bytes, 0u);
  EXPECT_GT(fs->cleaner_qos().deficit_bytes(), 0.0);
  EXPECT_EQ(fs->mount_state(), MountState::kReadWrite);
  for (const auto& [name, data] : model) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> got, fs->ReadFile(name));
    EXPECT_EQ(got, data) << name;
  }
  ASSERT_OK(fs->Unmount());
  fs.reset();
  auto report = CheckLfsImage(&disk);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->errors, 0u) << report->Summary();
}

// ---------------------------------------------------------------------------
// Partial vs full compaction: differential oracle

// Drives the same fragmentation workload against one filesystem; returns the
// reference model of surviving contents.
std::map<std::string, std::vector<uint8_t>> ChurnWorkload(LfsFileSystem* fs,
                                                          uint32_t block_size) {
  std::map<std::string, std::vector<uint8_t>> model;
  auto put = [&](const std::string& name, uint64_t seed, size_t blocks) {
    std::vector<uint8_t> data = TestContent(seed, blocks * block_size);
    if (fs->Exists(name)) {  // overwrite in place: dead blocks in old segments
      auto ino = fs->Lookup(name);
      EXPECT_OK(ino.status());
      EXPECT_OK(fs->Truncate(*ino, 0));
      EXPECT_OK(fs->WriteAt(*ino, 0, data));
    } else {
      EXPECT_OK(fs->WriteFile(name, data));
    }
    model[name] = std::move(data);
  };
  for (int i = 0; i < 12; i++) {
    put("/f" + std::to_string(i), 100 + static_cast<uint64_t>(i), 8);
  }
  EXPECT_OK(fs->Sync());
  for (int i = 0; i < 12; i += 2) {
    EXPECT_OK(fs->Unlink("/f" + std::to_string(i)));
    model.erase("/f" + std::to_string(i));
  }
  EXPECT_OK(fs->Sync());
  EXPECT_OK(fs->ForceClean().status());
  for (int i = 1; i < 12; i += 4) {
    put("/f" + std::to_string(i), 500 + static_cast<uint64_t>(i), 5);  // overwrite
  }
  EXPECT_OK(fs->Sync());
  EXPECT_OK(fs->ForceClean().status());
  EXPECT_OK(fs->ForceClean().status());
  return model;
}

TEST(PartialCompactionTest, DifferentialOracleAgainstFullCopyCleaner) {
  LfsConfig full_cfg = SmallConfig();
  LfsConfig partial_cfg = SmallConfig();
  partial_cfg.partial_compaction = true;
  partial_cfg.partial_compaction_min_u = 0.3;
  partial_cfg.partial_compaction_max_blocks = 4;  // several passes per victim

  MemDisk full_disk(full_cfg.block_size, 8192);
  MemDisk partial_disk(partial_cfg.block_size, 8192);
  auto full_fs = std::move(LfsFileSystem::Mkfs(&full_disk, full_cfg)).value();
  auto partial_fs =
      std::move(LfsFileSystem::Mkfs(&partial_disk, partial_cfg)).value();

  auto full_model = ChurnWorkload(full_fs.get(), full_cfg.block_size);
  auto partial_model = ChurnWorkload(partial_fs.get(), partial_cfg.block_size);
  ASSERT_EQ(full_model, partial_model);  // same workload, same survivors

  // The partial instance actually drained incrementally; the full one never.
  EXPECT_GT(partial_fs->stats().partial_compactions, 0u);
  EXPECT_GT(partial_fs->stats().partial_blocks_moved, 0u);
  EXPECT_EQ(full_fs->stats().partial_compactions, 0u);

  // Byte-identical namespaces while mounted.
  for (const auto& [name, data] : full_model) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> fgot, full_fs->ReadFile(name));
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> pgot, partial_fs->ReadFile(name));
    EXPECT_EQ(fgot, data) << name;
    EXPECT_EQ(pgot, data) << name;
  }

  // Both images check clean offline (exact live accounting: a drain that
  // over- or under-debited the victim trips lfsck's usage.mismatch error).
  ASSERT_OK(full_fs->Unmount());
  ASSERT_OK(partial_fs->Unmount());
  full_fs.reset();
  partial_fs.reset();
  for (MemDisk* d : {&full_disk, &partial_disk}) {
    auto report = CheckLfsImage(d);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->errors, 0u) << report->Summary();
  }

  // And both remount to the same namespace.
  full_fs = std::move(LfsFileSystem::Mount(&full_disk, full_cfg)).value();
  partial_fs = std::move(LfsFileSystem::Mount(&partial_disk, partial_cfg)).value();
  for (const auto& [name, data] : full_model) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> fgot, full_fs->ReadFile(name));
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> pgot, partial_fs->ReadFile(name));
    EXPECT_EQ(fgot, data) << name;
    EXPECT_EQ(pgot, data) << name;
  }
  ASSERT_OK(full_fs->Unmount());
  ASSERT_OK(partial_fs->Unmount());
}

TEST(PartialCompactionTest, AdaptiveCleaningReclaimsWithPolicyAttribution) {
  LfsConfig cfg = SmallConfig();
  cfg.adaptive_cleaning = true;
  cfg.partial_compaction = true;
  cfg.partial_compaction_min_u = 0.3;
  cfg.partial_compaction_max_blocks = 4;
  MemDisk disk(cfg.block_size, 8192);
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();

  auto model = ChurnWorkload(fs.get(), cfg.block_size);

  const LfsStats& st = fs->stats();
  EXPECT_GT(st.segments_cleaned, 0u);
  // Every reclaimed victim is attributed to the policy that picked it, and
  // attribution never exceeds the reclaim count.
  uint64_t by_policy = st.segments_cleaned_by_policy[0] +
                       st.segments_cleaned_by_policy[1];
  EXPECT_GT(by_policy, 0u);
  EXPECT_LE(by_policy, st.segments_cleaned);

  for (const auto& [name, data] : model) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> got, fs->ReadFile(name));
    EXPECT_EQ(got, data) << name;
  }
  ASSERT_OK(fs->Unmount());
  fs.reset();
  auto report = CheckLfsImage(&disk);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->errors, 0u) << report->Summary();
}

// ---------------------------------------------------------------------------
// Crash mid-partial-compaction

TEST(PartialCompactionTest, WorkloadFieldRoundTripsThroughText) {
  check::Workload w;
  w.name = "t";
  w.partial_compaction = 1;
  ASSERT_OK_AND_ASSIGN(check::Workload back, check::Workload::FromText(w.ToText()));
  EXPECT_EQ(back.partial_compaction, 1u);
  EXPECT_TRUE(back.Config().partial_compaction);

  // Scripts without the field parse to the legacy full-copy cleaner.
  ASSERT_OK_AND_ASSIGN(check::Workload legacy,
                       check::Workload::FromText("workload l\nop sync\n"));
  EXPECT_EQ(legacy.partial_compaction, 0u);
  EXPECT_FALSE(legacy.Config().partial_compaction);
}

TEST(PartialCompactionTest, ExhaustiveCrashExplorationThroughDrainIsClean) {
  // A compact fragmentation trace whose `op clean` passes drain victims in
  // 4-block slices (workload.partial_compaction): every device-edge crash
  // point — including those between drain slices, with the victim
  // half-relocated — must recover to a consistent, usable image.
  check::Workload w;
  w.name = "partialdrain";
  w.disk_blocks = 2048;
  w.num_logs = 1;
  w.write_buffer_blocks = 16;
  w.partial_compaction = 1;
  auto op1 = [&](check::OpKind k, const std::string& a) {
    w.ops.push_back({.kind = k, .a = a});
  };
  auto write = [&](const std::string& p, uint64_t off, uint64_t len, uint64_t seed) {
    w.ops.push_back(
        {.kind = check::OpKind::kWrite, .a = p, .offset = off, .length = len, .seed = seed});
  };
  op1(check::OpKind::kMkdir, "/d");
  for (int i = 0; i < 6; i++) {
    op1(check::OpKind::kCreate, "/d/f" + std::to_string(i));
    write("/d/f" + std::to_string(i), 0, 3000, 40 + static_cast<uint64_t>(i));
  }
  w.ops.push_back({.kind = check::OpKind::kSync});
  op1(check::OpKind::kUnlink, "/d/f0");
  op1(check::OpKind::kUnlink, "/d/f2");
  op1(check::OpKind::kUnlink, "/d/f4");
  w.ops.push_back({.kind = check::OpKind::kSync});
  w.ops.push_back({.kind = check::OpKind::kClean});
  write("/d/f1", 1024, 2000, 50);  // overwrite across the drained segments
  w.ops.push_back({.kind = check::OpKind::kSync});
  w.ops.push_back({.kind = check::OpKind::kClean});

  ASSERT_OK_AND_ASSIGN(check::ExploreReport report, check::ExploreWorkload(w));
  std::string digest;
  for (const check::CrashFailure& f : report.failures) {
    digest += "  " + f.Describe() + "\n";
  }
  EXPECT_TRUE(report.clean()) << digest;
  EXPECT_GT(report.edges, 0u);
  EXPECT_EQ(report.checked, report.unique_states);
}

}  // namespace
}  // namespace lfs
