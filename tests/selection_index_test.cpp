// Differential tests for the incremental victim-selection index: the indexed
// selection must be byte-identical to the reference scan-and-sort — same
// victims, same order — for any segment state and any `now`, under both
// cleaning policies. Covered at three levels: the bare VictimIndex against a
// shadow exhaustive sort (fuzzed, tie-heavy), the filesystem's index against
// a sort of its usage table under a churning workload (including
// recycling, checkpoint-boundary changes, and remount), and the Section 3.5
// simulator across policies and access patterns.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/sim.h"
#include "src/util/victim_index.h"
#include "tests/test_util.h"

namespace lfs {
namespace {

using ::lfs::testing::SmallConfig;
using ::lfs::testing::TestContent;

// The pre-index selection semantics, spelled out exhaustively: score every
// member, drop full segments, sort by score descending with segment-number
// ties ascending. Greedy scores are computed as 1-u (not via the live-byte
// shortcut) so the test independently checks that ascending (live, seg)
// order really is descending score order in IEEE doubles.
std::vector<uint32_t> ReferenceOrder(const VictimIndex& idx,
                                     const std::vector<int64_t>& live,
                                     const std::vector<uint64_t>& last_write,
                                     uint64_t capacity, bool greedy, uint64_t now) {
  struct Cand {
    double score;
    uint32_t seg;
  };
  std::vector<Cand> cands;
  for (uint32_t seg = 0; seg < live.size(); seg++) {
    if (live[seg] < 0 || static_cast<uint64_t>(live[seg]) >= capacity) {
      continue;  // absent, or u >= 1.0
    }
    double score;
    if (greedy) {
      double u = static_cast<double>(live[seg]) / static_cast<double>(capacity);
      score = 1.0 - u;
    } else {
      score = idx.Score(static_cast<uint64_t>(live[seg]), last_write[seg], now);
    }
    cands.push_back({score, seg});
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.score != b.score) {
      return a.score > b.score;
    }
    return a.seg < b.seg;
  });
  std::vector<uint32_t> order;
  order.reserve(cands.size());
  for (const Cand& c : cands) {
    order.push_back(c.seg);
  }
  return order;
}

std::vector<uint32_t> DrainCursor(VictimIndex::Cursor cursor) {
  std::vector<uint32_t> order;
  for (uint32_t s = cursor.Next(); s != VictimIndex::kNone; s = cursor.Next()) {
    order.push_back(s);
  }
  return order;
}

TEST(VictimIndexTest, MatchesExhaustiveSortUnderRandomMutation) {
  const uint32_t nsegs = 96;
  const uint64_t capacity = 16;  // tiny, so live-byte collisions are common
  for (uint64_t seed = 1; seed <= 4; seed++) {
    VictimIndex idx(nsegs, capacity);
    std::vector<int64_t> live(nsegs, -1);  // -1 = not in the index
    std::vector<uint64_t> last_write(nsegs, 0);
    Rng rng(seed);
    uint64_t now = 4;
    for (int round = 0; round < 150; round++) {
      for (int op = 0; op < 12; op++) {
        uint32_t seg = static_cast<uint32_t>(rng.NextBelow(nsegs));
        // Small value ranges force score ties in every round; live can reach
        // capacity (and beyond) to exercise the u >= 1.0 exclusion, and
        // last_write can exceed now to exercise the age clamp.
        uint64_t l = rng.NextBelow(capacity + 2);
        uint64_t w = rng.NextBelow(now + 2);
        switch (rng.NextBelow(3)) {
          case 0:
            idx.Insert(seg, l, w);
            live[seg] = static_cast<int64_t>(l);
            last_write[seg] = w;
            break;
          case 1:
            idx.Remove(seg);
            live[seg] = -1;
            break;
          default:
            idx.Update(seg, l, w);
            live[seg] = static_cast<int64_t>(l);
            last_write[seg] = w;
            break;
        }
      }
      now += rng.NextBelow(3);
      for (bool greedy : {true, false}) {
        ASSERT_EQ(DrainCursor(idx.Select(greedy, now)),
                  ReferenceOrder(idx, live, last_write, capacity, greedy, now))
            << "seed=" << seed << " round=" << round << " greedy=" << greedy
            << " now=" << now;
      }
    }
  }
}

class SelectionIndexLfsTest : public ::testing::Test {
 protected:
  void Init(LfsConfig cfg, uint64_t disk_blocks = 4096) {
    cfg_ = cfg;
    disk_ = std::make_unique<MemDisk>(cfg_.block_size, disk_blocks);
    auto fs = LfsFileSystem::Mkfs(disk_.get(), cfg_);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
  }

  // Replaces an existing file's contents (WriteFile only creates).
  void Overwrite(const std::string& path, const std::vector<uint8_t>& data) {
    ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Lookup(path));
    ASSERT_OK(fs_->Truncate(ino, 0));
    ASSERT_OK(fs_->WriteAt(ino, 0, data));
  }

  // The filesystem's selection index, drained under both policies at the
  // current state and time, against a scan-and-sort of its usage table.
  void ExpectSelectionMatches() {
    const SegUsage& usage = fs_->seg_usage();
    const uint64_t now = fs_->clock().Now();
    std::vector<int64_t> live(usage.nsegments(), -1);  // -1 = not dirty
    std::vector<uint64_t> last_write(usage.nsegments(), 0);
    for (SegNo seg = 0; seg < usage.nsegments(); seg++) {
      const SegUsageEntry& e = usage.Get(seg);
      if (e.state == SegState::kDirty) {
        live[seg] = e.live_bytes;
        last_write[seg] = e.last_write;
      }
    }
    for (bool greedy : {true, false}) {
      EXPECT_EQ(DrainCursor(usage.SelectVictims(greedy, now)),
                ReferenceOrder(usage.victim_index(), live, last_write,
                               fs_->superblock().segment_bytes(), greedy, now))
          << "greedy=" << greedy;
    }
  }

  void Churn(CleaningPolicy policy) {
    LfsConfig cfg = SmallConfig();
    cfg.policy = policy;
    Init(cfg);

    for (int i = 0; i < 50; i++) {
      ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 3000)));
    }
    ASSERT_OK(fs_->Sync());
    ExpectSelectionMatches();

    // Fragment: delete a third, overwrite a third, then clean repeatedly so
    // victims get recycled and reused while selection keeps running.
    for (int i = 0; i < 50; i += 3) {
      ASSERT_OK(fs_->Unlink("/f" + std::to_string(i)));
    }
    for (int i = 1; i < 50; i += 3) {
      Overwrite("/f" + std::to_string(i), TestContent(i + 100, 3500));
    }
    ASSERT_OK(fs_->Sync());
    ExpectSelectionMatches();
    for (int pass = 0; pass < 10; pass++) {
      ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
      ExpectSelectionMatches();
      if (n == 0) {
        break;
      }
    }

    // Advance the checkpoint boundary (changes which segments are eligible)
    // and churn again on the far side of it.
    ASSERT_OK(fs_->WriteCheckpoint());
    ExpectSelectionMatches();
    for (int i = 2; i < 50; i += 3) {
      Overwrite("/f" + std::to_string(i), TestContent(i + 200, 2000));
    }
    ASSERT_OK(fs_->Sync());
    ASSERT_OK(fs_->ForceClean().status());
    ExpectSelectionMatches();

    // Remount rebuilds the index from the on-disk usage chunks.
    ASSERT_OK(fs_->Unmount());
    fs_.reset();
    auto fs = LfsFileSystem::Mount(disk_.get(), cfg_);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
    ExpectSelectionMatches();
    for (int i = 1; i < 50; i += 3) {
      Overwrite("/f" + std::to_string(i), TestContent(i + 300, 1500));
    }
    ASSERT_OK(fs_->Sync());
    ASSERT_OK(fs_->ForceClean().status());
    ExpectSelectionMatches();
    EXPECT_GT(fs_->stats().segments_cleaned, 0u);

    // The workload's survivors read back intact.
    for (int i = 1; i < 50; i += 3) {
      ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f" + std::to_string(i)));
      EXPECT_EQ(data, TestContent(i + 300, 1500)) << i;
    }
    for (int i = 2; i < 50; i += 3) {
      ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f" + std::to_string(i)));
      EXPECT_EQ(data, TestContent(i + 200, 2000)) << i;
    }
  }

  LfsConfig cfg_;
  std::unique_ptr<MemDisk> disk_;
  std::unique_ptr<LfsFileSystem> fs_;
};

TEST_F(SelectionIndexLfsTest, GreedyMatchesReferenceUnderChurn) {
  Churn(CleaningPolicy::kGreedy);
}

TEST_F(SelectionIndexLfsTest, CostBenefitMatchesReferenceUnderChurn) {
  Churn(CleaningPolicy::kCostBenefit);
}

// The simulator's victim, as PickVictim takes it: the first segment of the
// indexed order that is not one of the two write cursors.
uint32_t FirstNonCursor(const std::vector<uint32_t>& order, const sim::CleaningSimulator& s) {
  for (uint32_t seg : order) {
    if (seg != s.new_cursor() && seg != s.clean_cursor()) {
      return seg;
    }
  }
  return VictimIndex::kNone;
}

void ExpectSimSelectionMatches(const sim::CleaningSimulator& s, uint32_t capacity, bool greedy) {
  std::vector<int64_t> live(s.segments().size(), -1);  // clean segments are not in the index
  std::vector<uint64_t> last_write(s.segments().size(), 0);
  for (uint32_t seg = 0; seg < s.segments().size(); seg++) {
    if (!s.segments()[seg].clean) {
      live[seg] = s.segments()[seg].live;
      last_write[seg] = s.segments()[seg].last_write;
    }
  }
  std::vector<uint32_t> want =
      ReferenceOrder(s.victim_index(), live, last_write, capacity, greedy, s.now());
  std::vector<uint32_t> got = DrainCursor(s.victim_index().Select(greedy, s.now()));
  ASSERT_EQ(got, want) << "greedy=" << greedy << " now=" << s.now();
  EXPECT_EQ(FirstNonCursor(got, s), FirstNonCursor(want, s));
}

TEST(SelectionIndexSimTest, IndexedPickMatchesReferenceAcrossPoliciesAndPatterns) {
  constexpr uint64_t kCheckEvery = 64;  // steps between comparisons
  for (sim::Policy policy : {sim::Policy::kGreedy, sim::Policy::kCostBenefit}) {
    for (sim::AccessPattern pattern :
         {sim::AccessPattern::kUniform, sim::AccessPattern::kHotAndCold}) {
      sim::SimConfig cfg;
      cfg.nsegments = 64;
      cfg.blocks_per_segment = 32;
      cfg.disk_utilization = 0.80;
      cfg.policy = policy;
      cfg.pattern = pattern;
      cfg.age_sort = policy == sim::Policy::kCostBenefit;
      sim::CleaningSimulator simulator(cfg);
      const bool greedy = policy == sim::Policy::kGreedy;
      const uint64_t steps = uint64_t{simulator.nfiles()} * 20;
      for (uint64_t step = 1; step <= steps; step++) {
        simulator.Step();
        if (step % kCheckEvery == 0) {
          ASSERT_NO_FATAL_FAILURE(
              ExpectSimSelectionMatches(simulator, cfg.blocks_per_segment, greedy))
              << "policy=" << static_cast<int>(policy)
              << " pattern=" << static_cast<int>(pattern) << " step=" << step;
        }
      }
      EXPECT_GT(simulator.Snapshot().segments_cleaned, 0u);
    }
  }
}

}  // namespace
}  // namespace lfs
