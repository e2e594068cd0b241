// Segment cleaner tests: the mechanism preserves data; empty segments are
// reclaimed without reads; policies pick the right victims; write-cost
// accounting matches the definition; post-checkpoint segments are protected.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/lfs/check.h"
#include "tests/test_util.h"

namespace lfs {
namespace {

using ::lfs::testing::SmallConfig;
using ::lfs::testing::TestContent;

class LfsCleanerTest : public ::testing::Test {
 protected:
  void Init(LfsConfig cfg, uint64_t disk_blocks = 4096) {
    cfg_ = cfg;
    disk_ = std::make_unique<MemDisk>(cfg_.block_size, disk_blocks);
    auto fs = LfsFileSystem::Mkfs(disk_.get(), cfg_);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
  }

  LfsConfig cfg_;
  std::unique_ptr<MemDisk> disk_;
  std::unique_ptr<LfsFileSystem> fs_;
};

TEST_F(LfsCleanerTest, CleaningPreservesLiveData) {
  Init(SmallConfig());
  // Create files, delete half (fragmenting segments), then force cleaning.
  for (int i = 0; i < 60; i++) {
    ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 4000)));
  }
  ASSERT_OK(fs_->Sync());
  for (int i = 0; i < 60; i += 2) {
    ASSERT_OK(fs_->Unlink("/f" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Sync());
  uint32_t clean_before = fs_->clean_segments();
  for (int pass = 0; pass < 10; pass++) {
    ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
    if (n == 0) {
      break;
    }
  }
  EXPECT_GT(fs_->stats().segments_cleaned, 0u);
  EXPECT_GE(fs_->clean_segments(), clean_before);
  // Every surviving file reads back intact after cleaning moved its blocks.
  for (int i = 1; i < 60; i += 2) {
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f" + std::to_string(i)));
    EXPECT_EQ(data, TestContent(i, 4000)) << i;
  }
}

TEST_F(LfsCleanerTest, CleanedDataSurvivesRemount) {
  Init(SmallConfig());
  for (int i = 0; i < 40; i++) {
    ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 3000)));
  }
  ASSERT_OK(fs_->Sync());
  for (int i = 0; i < 40; i += 2) {
    ASSERT_OK(fs_->Unlink("/f" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Sync());
  ASSERT_OK(fs_->ForceClean().status());
  ASSERT_OK(fs_->Unmount());
  fs_.reset();
  auto fs = LfsFileSystem::Mount(disk_.get(), cfg_);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  fs_ = std::move(fs).value();
  for (int i = 1; i < 40; i += 2) {
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f" + std::to_string(i)));
    EXPECT_EQ(data, TestContent(i, 3000)) << i;
  }
}

TEST_F(LfsCleanerTest, EmptySegmentsNeedNoRead) {
  Init(SmallConfig());
  // Whole-file deletes of files larger than a segment leave fully dead
  // segments (Section 5.2's explanation of the production numbers).
  for (int i = 0; i < 8; i++) {
    ASSERT_OK(fs_->WriteFile("/big" + std::to_string(i), TestContent(i, 64 * 1024)));
  }
  ASSERT_OK(fs_->Sync());
  for (int i = 0; i < 8; i++) {
    ASSERT_OK(fs_->Unlink("/big" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Sync());  // sweep reclaims zero-live dirty segments for free
  uint64_t read_before = fs_->stats().clean_read_bytes;
  ASSERT_OK(fs_->ForceClean().status());
  // Any segments cleaned as empty must not have contributed read traffic.
  if (fs_->stats().segments_cleaned == fs_->stats().segments_cleaned_empty) {
    EXPECT_EQ(fs_->stats().clean_read_bytes, read_before);
  }
}

TEST_F(LfsCleanerTest, GreedyPicksLeastUtilized) {
  LfsConfig cfg = SmallConfig();
  cfg.policy = CleaningPolicy::kGreedy;
  cfg.age_sort = false;
  Init(cfg);
  for (int i = 0; i < 50; i++) {
    ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 4000)));
  }
  // Delete a dense band so some segments are nearly empty and others full.
  for (int i = 0; i < 25; i++) {
    ASSERT_OK(fs_->Unlink("/f" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Sync());
  ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
  EXPECT_GT(n, 0u);
  // Cleaned segments had below-average utilization: avg cleaned u must be
  // well under the overall disk utilization band.
  EXPECT_LT(fs_->stats().AvgCleanedUtilization(), 0.9);
  for (int i = 25; i < 50; i++) {
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f" + std::to_string(i)));
    EXPECT_EQ(data, TestContent(i, 4000));
  }
}

TEST_F(LfsCleanerTest, WriteCostIsSaneUnderOverwrites) {
  LfsConfig cfg = SmallConfig();
  cfg.checkpoint_interval_bytes = 128 * 1024;
  Init(cfg, 2048);  // 2 MB so the log wraps and the cleaner must run
  Rng rng(42);
  // Sustained random overwrites of a working set at ~50% disk utilization:
  // segments seldom die completely, so the cleaner must copy live data.
  for (int i = 0; i < 60; i++) {
    ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 16 * 1024)));
  }
  ASSERT_OK(fs_->Sync());
  for (int step = 0; step < 2500; step++) {
    int i = static_cast<int>(rng.NextBelow(60));
    ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Lookup("/f" + std::to_string(i)));
    std::vector<uint8_t> block = TestContent(1000 + step, cfg.block_size);
    uint64_t fbn = rng.NextBelow(16);
    ASSERT_OK(fs_->WriteAt(ino, fbn * cfg.block_size, block));
  }
  ASSERT_OK(fs_->Sync());
  double wc = fs_->stats().WriteCost();
  EXPECT_GT(wc, 1.0);
  EXPECT_LT(wc, 10.0);
  EXPECT_GT(fs_->stats().cleaner_passes, 0u);
}

TEST_F(LfsCleanerTest, PostCheckpointSegmentsAreNotCleaned) {
  Init(SmallConfig());
  ASSERT_OK(fs_->Sync());
  // Data written after the checkpoint lives in tail segments.
  ASSERT_OK(fs_->WriteFile("/tail", TestContent(1, 48 * 1024)));
  uint64_t cleaned_before = fs_->stats().segments_cleaned;
  ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
  // Nothing is cleanable: every dirty segment is post-checkpoint (ForceClean
  // runs a raw pass without the boundary-advancing checkpoint).
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(fs_->stats().segments_cleaned, cleaned_before);
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/tail"));
  EXPECT_EQ(data, TestContent(1, 48 * 1024));
}

TEST_F(LfsCleanerTest, CostBenefitPrefersColdFragmentedSegments) {
  LfsConfig cfg = SmallConfig();
  cfg.policy = CleaningPolicy::kCostBenefit;
  Init(cfg, 8192);
  // Cold data: written once, never touched again.
  for (int i = 0; i < 20; i++) {
    ASSERT_OK(fs_->WriteFile("/cold" + std::to_string(i), TestContent(i, 8 * 1024)));
  }
  ASSERT_OK(fs_->Sync());
  // Fragment the cold band slightly.
  for (int i = 0; i < 20; i += 4) {
    ASSERT_OK(fs_->Unlink("/cold" + std::to_string(i)));
  }
  // Hot data: rewritten repeatedly, aging the clock well past the cold band.
  for (int round = 0; round < 30; round++) {
    for (int i = 0; i < 5; i++) {
      ASSERT_OK(fs_->WriteFile("/hot" + std::to_string(round) + "_" + std::to_string(i),
                               TestContent(round * 10 + i, 4 * 1024)));
      if (round > 0) {
        ASSERT_OK(
            fs_->Unlink("/hot" + std::to_string(round - 1) + "_" + std::to_string(i)));
      }
    }
  }
  ASSERT_OK(fs_->Sync());
  ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
  EXPECT_GT(n, 0u);
  // Everything still reads back.
  for (int i = 0; i < 20; i++) {
    if (i % 4 == 0) {
      continue;
    }
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/cold" + std::to_string(i)));
    EXPECT_EQ(data, TestContent(i, 8 * 1024));
  }
}

TEST_F(LfsCleanerTest, CleaningUnderPressureKeepsSystemLive) {
  // A small disk under sustained overwrite pressure: the cleaner and the
  // boundary-advancing checkpoints must keep the system making progress.
  LfsConfig cfg = SmallConfig();
  Init(cfg, 2048);  // 2 MB
  Rng rng(7);
  for (int i = 0; i < 12; i++) {
    ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 16 * 1024)));
  }
  for (int step = 0; step < 400; step++) {
    int i = static_cast<int>(rng.NextBelow(12));
    ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Lookup("/f" + std::to_string(i)));
    std::vector<uint8_t> block = TestContent(step, cfg_.block_size);
    ASSERT_OK(fs_->WriteAt(ino, rng.NextBelow(16) * cfg_.block_size, block));
  }
  ASSERT_OK(fs_->Sync());
  for (int i = 0; i < 12; i++) {
    ASSERT_OK_AND_ASSIGN(FileStat st, fs_->StatPath("/f" + std::to_string(i)));
    EXPECT_EQ(st.size, 16u * 1024);
  }
}

TEST_F(LfsCleanerTest, LiveOnlyReadsPreserveDataAndReadLess) {
  // The paper's untried "read just the live blocks" variant must behave
  // identically to whole-segment reads, while reading fewer bytes on a
  // fragmented disk.
  uint64_t read_bytes[2];
  for (int mode = 0; mode < 2; mode++) {
    LfsConfig cfg = SmallConfig();
    cfg.cleaner_read_live_blocks_only = mode == 1;
    Init(cfg);
    for (int i = 0; i < 60; i++) {
      ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 4000)));
    }
    ASSERT_OK(fs_->Sync());
    for (int i = 0; i < 60; i += 2) {
      ASSERT_OK(fs_->Unlink("/f" + std::to_string(i)));
    }
    ASSERT_OK(fs_->Sync());
    for (int pass = 0; pass < 10; pass++) {
      ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
      if (n == 0) {
        break;
      }
    }
    read_bytes[mode] = fs_->stats().clean_read_bytes;
    for (int i = 1; i < 60; i += 2) {
      ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f" + std::to_string(i)));
      EXPECT_EQ(data, TestContent(i, 4000)) << "mode " << mode << " file " << i;
    }
    // Cleaned data must also survive a remount in both modes.
    ASSERT_OK(fs_->Unmount());
    fs_.reset();
    auto fs = LfsFileSystem::Mount(disk_.get(), cfg);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(fs).value();
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f1"));
    EXPECT_EQ(data, TestContent(1, 4000));
  }
  EXPECT_LT(read_bytes[1], read_bytes[0]);  // sparse reads strictly less here
}

TEST_F(LfsCleanerTest, PerBlockAgesSurviveMigration) {
  // Per-block mtimes ride in the summary entries; a migrated block must keep
  // its original age so cold data keeps looking cold (Section 3.6's
  // motivation for recording ages).
  Init(SmallConfig());
  ASSERT_OK(fs_->WriteFile("/old", TestContent(1, 8 * 1024)));
  ASSERT_OK(fs_->Sync());
  uint64_t old_mtime = fs_->StatPath("/old")->mtime;
  // Age the clock with unrelated churn, fragmenting /old's segments.
  for (int i = 0; i < 40; i++) {
    ASSERT_OK(fs_->WriteFile("/churn" + std::to_string(i), TestContent(i, 4000)));
  }
  for (int i = 0; i < 40; i += 2) {
    ASSERT_OK(fs_->Unlink("/churn" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Sync());
  for (int pass = 0; pass < 10; pass++) {
    ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
    if (n == 0) {
      break;
    }
  }
  // The file reads back and its recorded mtime never moved forward.
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/old"));
  EXPECT_EQ(data, TestContent(1, 8 * 1024));
  EXPECT_EQ(fs_->StatPath("/old")->mtime, old_mtime);
}

TEST_F(LfsCleanerTest, StatsTrackTable2Columns) {
  Init(SmallConfig());
  for (int i = 0; i < 30; i++) {
    ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 6000)));
  }
  ASSERT_OK(fs_->Sync());
  for (int i = 0; i < 30; i += 2) {
    ASSERT_OK(fs_->Unlink("/f" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Sync());
  ASSERT_OK(fs_->ForceClean().status());
  const LfsStats& st = fs_->stats();
  EXPECT_GE(st.segments_cleaned, st.segments_cleaned_empty);
  EXPECT_GE(st.EmptyCleanedFraction(), 0.0);
  EXPECT_LE(st.EmptyCleanedFraction(), 1.0);
  EXPECT_GE(st.AvgCleanedUtilization(), 0.0);
  EXPECT_LE(st.AvgCleanedUtilization(), 1.0);
  EXPECT_GT(st.WriteCost(), 0.99);
}

// The kinds of the blocks logged in `seg` that one of `files` still uses:
// its data blocks, its indirect block, and the inode block the inode map
// names for it. Reads the image as the last checkpoint left it.
std::set<BlockKind> LiveKindsIn(LfsFileSystem* fs, BlockDevice* disk, SegNo seg,
                                const std::vector<std::string>& files) {
  const Superblock& sb = fs->superblock();
  std::set<BlockNo> data, indirect, inode_blocks;
  std::vector<uint8_t> block(sb.block_size);
  for (const std::string& path : files) {
    InodeNum ino = fs->Lookup(path).value();
    std::vector<BlockNo> addrs = fs->FileBlockAddresses(ino).value();
    data.insert(addrs.begin(), addrs.end());
    ImapEntry e = fs->inode_map().Get(ino);
    inode_blocks.insert(e.inode_block);
    EXPECT_OK(disk->Read(e.inode_block, 1, block));
    indirect.insert(Inode::DecodeSlot(block, e.slot).value().single_indirect);
  }
  std::set<BlockKind> live;
  SegmentChain chain(sb, seg, 0, sb.segment_blocks,
                     [disk](BlockNo b, uint64_t n, std::span<uint8_t> out) {
                       return disk->Read(b, n, out);
                     });
  while (chain.Next()) {
    for (uint32_t i = 0; i < chain.payload_blocks(); i++) {
      BlockKind kind = chain.summary().entries[i].kind;
      BlockNo addr = chain.payload_addr() + i;
      if ((kind == BlockKind::kData && data.count(addr) != 0) ||
          (kind == BlockKind::kIndirect && indirect.count(addr) != 0) ||
          (kind == BlockKind::kInodeBlock && inode_blocks.count(addr) != 0)) {
        live.insert(kind);
      }
    }
  }
  return live;
}

TEST_F(LfsCleanerTest, OnePassMovesDataIndirectAndInodeBlocksOfSeveralVictims) {
  // Each victim's live blocks are read into a buffer of its own and migrate
  // from there, after every victim of the pass has been read: one pass over
  // several victims, each holding live data, an indirect block and an inode
  // block, through both read paths.
  for (bool live_only : {false, true}) {
    SCOPED_TRACE(live_only ? "live blocks only" : "whole segments");
    LfsConfig cfg = SmallConfig();
    cfg.cleaner_read_live_blocks_only = live_only;
    Init(cfg);
    // 13 blocks of 1 KB: twelve direct blocks and one behind the indirect
    // block. Each file is synced with a 2-block file deleted below, which
    // leaves every victim of the pass holding all three kinds.
    std::vector<std::string> kept;
    for (int i = 0; i < 8; i++) {
      kept.push_back("/big" + std::to_string(i));
      ASSERT_OK(fs_->WriteFile(kept.back(), TestContent(i, 13 * 1024 - 100)));
      ASSERT_OK(fs_->WriteFile("/junk" + std::to_string(i), TestContent(100 + i, 2 * 1024)));
      ASSERT_OK(fs_->Sync());
    }
    for (int i = 0; i < 8; i++) {
      ASSERT_OK(fs_->Unlink("/junk" + std::to_string(i)));
    }
    ASSERT_OK(fs_->Sync());

    std::vector<SegNo> victims =
        fs_->SelectSegmentsToClean(cfg.segments_per_pass, {cfg.policy, cfg.policy});
    const std::set<BlockKind> all = {BlockKind::kData, BlockKind::kIndirect,
                                     BlockKind::kInodeBlock};
    int full_victims = 0;
    for (SegNo seg : victims) {
      full_victims += LiveKindsIn(fs_.get(), disk_.get(), seg, kept) == all ? 1 : 0;
    }
    ASSERT_GE(full_victims, 3);
    ASSERT_OK_AND_ASSIGN(uint32_t reclaimed, fs_->ForceClean());
    EXPECT_EQ(reclaimed, victims.size());
    for (int i = 0; i < 8; i++) {
      ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile(kept[i]));
      EXPECT_EQ(data, TestContent(i, 13 * 1024 - 100)) << kept[i];
    }
    ASSERT_OK(fs_->Unmount());
    fs_.reset();
    ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(disk_.get()));
    EXPECT_EQ(report.errors, 0u) << report.Summary();
    auto fs = LfsFileSystem::Mount(disk_.get(), cfg);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
    for (int i = 0; i < 8; i++) {
      ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile(kept[i]));
      EXPECT_EQ(data, TestContent(i, 13 * 1024 - 100)) << kept[i];
    }
  }
}

}  // namespace
}  // namespace lfs
