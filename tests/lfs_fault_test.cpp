// Media-fault injection tests: the graceful-degradation ladder.
//
//   normal -> retrying (transient errors absorbed by retry-with-backoff)
//          -> quarantined (cleaner fences off segments with latent damage)
//          -> degraded read-only (both checkpoint regions unwritable)
//
// Plus the detection paths (payload-CRC verification of reads, backup
// superblock at mount) and a seeded fault-matrix stress that must finish
// with zero divergence from an in-memory model and a clean offline check.

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/disk/fault_disk.h"
#include "src/lfs/check.h"
#include "tests/test_util.h"

namespace lfs {
namespace {

using ::lfs::testing::SmallConfig;
using ::lfs::testing::TestContent;

TEST(FaultInjectionTest, TransientReadFaultsAreRetriedTransparently) {
  LfsConfig cfg = SmallConfig();
  FaultDisk disk(std::make_unique<MemDisk>(cfg.block_size, 4096));
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();

  std::vector<uint8_t> content = TestContent(1, 4 * cfg.block_size);
  ASSERT_OK(fs->WriteFile("/f", content));
  ASSERT_OK(fs->Sync());
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs->Lookup("/f"));
  ASSERT_OK_AND_ASSIGN(std::vector<BlockNo> addrs, fs->FileBlockAddresses(ino));
  ASSERT_FALSE(addrs.empty());

  // Remount to empty the read cache, so the read really hits the device.
  ASSERT_OK(fs->Unmount());
  fs.reset();
  fs = std::move(LfsFileSystem::Mount(&disk, cfg)).value();

  disk.AddTransientReadFault(addrs[0], /*fail_count=*/2);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> got, fs->ReadFile("/f"));
  EXPECT_EQ(got, content);
  EXPECT_GE(fs->stats().io_retries, 2u);
  EXPECT_EQ(fs->stats().io_retry_failures, 0u);
  EXPECT_EQ(disk.counters().transient_read_faults, 2u);
  EXPECT_EQ(fs->mount_state(), MountState::kReadWrite);
}

TEST(FaultInjectionTest, TransientCheckpointWriteIsRetried) {
  LfsConfig cfg = SmallConfig();
  FaultDisk disk(std::make_unique<MemDisk>(cfg.block_size, 4096));
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();
  const Superblock& sb = fs->superblock();

  ASSERT_OK(fs->WriteFile("/f", TestContent(2, 2048)));
  // Whichever region the next checkpoint targets, its first write attempt
  // fails once; the retry must succeed without falling back.
  disk.AddTransientWriteFault(sb.cr_base0, 1);
  disk.AddTransientWriteFault(sb.cr_base1, 1);
  ASSERT_OK(fs->Sync());
  EXPECT_GE(fs->stats().io_retries, 1u);
  EXPECT_EQ(fs->stats().io_retry_failures, 0u);
  EXPECT_EQ(fs->stats().checkpoint_fallbacks, 0u);
  EXPECT_EQ(fs->mount_state(), MountState::kReadWrite);
}

TEST(FaultInjectionTest, CheckpointFallsBackToAlternateRegion) {
  LfsConfig cfg = SmallConfig();
  FaultDisk disk(std::make_unique<MemDisk>(cfg.block_size, 4096));
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();
  const Superblock& sb = fs->superblock();

  // One region permanently dead. Checkpoints alternate regions, so within
  // two Syncs one of them must take the fallback path — and stay read-write.
  disk.AddLatentError(sb.cr_base0, sb.cr_blocks);
  std::vector<uint8_t> content = TestContent(9, 3 * cfg.block_size);
  ASSERT_OK(fs->WriteFile("/a", content));
  ASSERT_OK(fs->Sync());
  ASSERT_OK(fs->WriteFile("/b", TestContent(10, 1024)));
  ASSERT_OK(fs->Sync());
  EXPECT_GE(fs->stats().checkpoint_fallbacks, 1u);
  EXPECT_EQ(fs->mount_state(), MountState::kReadWrite);

  // Mount tolerates the unreadable region: the surviving one wins.
  fs.reset();
  fs = std::move(LfsFileSystem::Mount(&disk, cfg)).value();
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> got, fs->ReadFile("/a"));
  EXPECT_EQ(got, content);
  EXPECT_TRUE(fs->Exists("/b"));
}

TEST(FaultInjectionTest, CorruptReadDetectedByPayloadCrc) {
  LfsConfig cfg = SmallConfig();
  cfg.verify_read_crcs = true;
  FaultDisk disk(std::make_unique<MemDisk>(cfg.block_size, 4096));
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();

  ASSERT_OK(fs->WriteFile("/victim", TestContent(3, 6 * cfg.block_size)));
  ASSERT_OK(fs->Sync());  // separate partial, so /clean's CRC extent is undamaged
  ASSERT_OK(fs->WriteFile("/clean", TestContent(4, 2 * cfg.block_size)));
  ASSERT_OK(fs->Sync());
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs->Lookup("/victim"));
  ASSERT_OK_AND_ASSIGN(std::vector<BlockNo> addrs, fs->FileBlockAddresses(ino));
  ASSERT_OK(fs->Unmount());
  fs.reset();

  disk.CorruptOnRead(addrs[0]);
  fs = std::move(LfsFileSystem::Mount(&disk, cfg)).value();
  auto bad = fs->ReadFile("/victim");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption) << bad.status().ToString();
  EXPECT_GE(fs->stats().read_crc_failures, 1u);
  // Undamaged data remains readable; the error is pinpointed, not global.
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> ok_data, fs->ReadFile("/clean"));
  EXPECT_EQ(ok_data, TestContent(4, 2 * cfg.block_size));
  EXPECT_EQ(fs->mount_state(), MountState::kReadWrite);
}

// The CRC walk behind a verified read retries its summary reads like every
// other read: one transient fault on the damaged segment's first summary
// must not end the walk early and let the flipped block through as data.
TEST(FaultInjectionTest, VerifiedReadRetriesTheSummaryRead) {
  LfsConfig cfg = SmallConfig();
  cfg.verify_read_crcs = true;
  FaultDisk disk(std::make_unique<MemDisk>(cfg.block_size, 4096));
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();
  const Superblock sb = fs->superblock();

  ASSERT_OK(fs->WriteFile("/victim", TestContent(3, 6 * cfg.block_size)));
  ASSERT_OK(fs->Sync());
  // Move /victim's inode and the root directory out of the partial that
  // holds its first block, so Lookup and Stat below do not read it.
  ASSERT_OK(fs->Create("/z").status());
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs->Lookup("/victim"));
  ASSERT_OK(fs->WriteAt(ino, 5 * cfg.block_size, TestContent(4, cfg.block_size)));
  ASSERT_OK(fs->Sync());
  ASSERT_OK_AND_ASSIGN(std::vector<BlockNo> addrs, fs->FileBlockAddresses(ino));
  ASSERT_OK(fs->Unmount());
  fs.reset();

  disk.CorruptOnRead(addrs[0]);
  fs = std::move(LfsFileSystem::Mount(&disk, cfg)).value();
  ASSERT_OK_AND_ASSIGN(ino, fs->Lookup("/victim"));
  ASSERT_OK(fs->Stat(ino).status());
  disk.AddTransientReadFault(sb.SegmentBase(sb.SegOf(addrs[0])), 1);
  std::vector<uint8_t> buf(4096);
  Result<uint64_t> got = fs->ReadAt(ino, 0, buf);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << got.status().ToString();
}

TEST(FaultInjectionTest, CleanerQuarantinesDamagedVictims) {
  LfsConfig cfg = SmallConfig();
  FaultDisk disk(std::make_unique<MemDisk>(cfg.block_size, 8192));
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();
  const Superblock& sb = fs->superblock();

  // Dirty a batch of segments, then kill half the files so the survivors
  // leave the segments part-live (cleanable, but not harvestable for free).
  for (int i = 0; i < 12; i++) {
    ASSERT_OK(fs->WriteFile("/q" + std::to_string(i),
                            TestContent(100 + i, 8 * cfg.block_size)));
  }
  ASSERT_OK(fs->Sync());
  for (int i = 0; i < 12; i += 2) {
    ASSERT_OK(fs->Unlink("/q" + std::to_string(i)));
  }
  ASSERT_OK(fs->Sync());

  // Latent-fail the first summary block of every part-live dirty segment:
  // the cleaner cannot walk those chains at all.
  for (SegNo seg = 0; seg < sb.nsegments; seg++) {
    const SegUsageEntry& e = fs->seg_usage().Get(seg);
    if (e.state == SegState::kDirty && e.live_bytes > 0) {
      disk.AddLatentError(sb.SegmentBase(seg), 1);
    }
  }

  ASSERT_OK(fs->ForceClean().status());
  EXPECT_GT(fs->stats().segments_quarantined, 0u);
  EXPECT_GT(fs->seg_usage().quarantined_count(), 0u);

  std::set<SegNo> quarantined;
  for (SegNo seg = 0; seg < sb.nsegments; seg++) {
    if (fs->seg_usage().Get(seg).state == SegState::kQuarantined) {
      quarantined.insert(seg);
    }
  }
  ASSERT_FALSE(quarantined.empty());

  // The filesystem keeps working: survivors readable (their payload blocks
  // are intact even where the summary is not), new writes land elsewhere.
  for (int i = 1; i < 12; i += 2) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> data,
                         fs->ReadFile("/q" + std::to_string(i)));
    EXPECT_EQ(data, TestContent(100 + i, 8 * cfg.block_size));
  }
  for (int i = 0; i < 8; i++) {
    ASSERT_OK(fs->WriteFile("/post" + std::to_string(i),
                            TestContent(200 + i, 4 * cfg.block_size)));
  }
  ASSERT_OK(fs->Sync());

  // Quarantine is sticky: no segment was recycled into allocation.
  for (SegNo seg : quarantined) {
    EXPECT_EQ(fs->seg_usage().Get(seg).state, SegState::kQuarantined) << "seg " << seg;
  }
  EXPECT_EQ(fs->StatFs().quarantined_segments, quarantined.size());

  // Quarantine survives remount, and the offline checker accepts the image
  // (damage confined to quarantined segments is warned about, not an error).
  ASSERT_OK(fs->Unmount());
  fs.reset();
  fs = std::move(LfsFileSystem::Mount(&disk, cfg)).value();
  for (SegNo seg : quarantined) {
    EXPECT_EQ(fs->seg_usage().Get(seg).state, SegState::kQuarantined) << "seg " << seg;
  }
  for (int i = 1; i < 12; i += 2) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> data,
                         fs->ReadFile("/q" + std::to_string(i)));
    EXPECT_EQ(data, TestContent(100 + i, 8 * cfg.block_size));
  }
  ASSERT_OK(fs->Unmount());
  fs.reset();
  auto report = CheckLfsImage(&disk);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->errors, 0u) << report->Summary();
  EXPECT_EQ(report->quarantined_segments, quarantined.size());
}

TEST(FaultInjectionTest, DoubleCheckpointFailureEntersDegradedReadOnly) {
  LfsConfig cfg = SmallConfig();
  FaultDisk disk(std::make_unique<MemDisk>(cfg.block_size, 4096));
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();
  const Superblock& sb = fs->superblock();

  std::vector<uint8_t> durable = TestContent(5, 4 * cfg.block_size);
  ASSERT_OK(fs->WriteFile("/durable", durable));
  ASSERT_OK(fs->Sync());
  std::vector<uint8_t> tail = TestContent(6, 2 * cfg.block_size);
  ASSERT_OK(fs->WriteFile("/tail", tail));

  // Both checkpoint regions go permanently bad: the next checkpoint cannot
  // land anywhere.
  disk.AddLatentError(sb.cr_base0, sb.cr_blocks);
  disk.AddLatentError(sb.cr_base1, sb.cr_blocks);
  Status sync_st = fs->Sync();
  ASSERT_FALSE(sync_st.ok());
  EXPECT_EQ(sync_st.code(), StatusCode::kIoError) << sync_st.ToString();

  EXPECT_EQ(fs->mount_state(), MountState::kDegradedReadOnly);
  EXPECT_TRUE(fs->degraded());
  EXPECT_EQ(fs->StatFs().state, MountState::kDegradedReadOnly);
  EXPECT_GE(fs->stats().degraded_entries, 1u);

  // No mutation gets through...
  Status w = fs->WriteFile("/new", TestContent(7, 512));
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.code(), StatusCode::kReadOnly) << w.ToString();

  // ...but everything already in the log stays readable — no crash, no
  // corruption, including data flushed by the very Sync whose checkpoint
  // failed.
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> d, fs->ReadFile("/durable"));
  EXPECT_EQ(d, durable);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> t, fs->ReadFile("/tail"));
  EXPECT_EQ(t, tail);
}

TEST(FaultInjectionTest, MountFallsBackToBackupSuperblock) {
  LfsConfig cfg = SmallConfig();
  FaultDisk disk(std::make_unique<MemDisk>(cfg.block_size, 4096));
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();
  std::vector<uint8_t> content = TestContent(8, 3 * cfg.block_size);
  ASSERT_OK(fs->WriteFile("/keep", content));
  ASSERT_OK(fs->Unmount());
  fs.reset();

  // The primary superblock becomes unreadable; mount must fall back to the
  // backup copy in the last device block.
  disk.AddLatentError(0);
  fs = std::move(LfsFileSystem::Mount(&disk, cfg)).value();
  EXPECT_EQ(fs->stats().superblock_fallbacks, 1u);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> got, fs->ReadFile("/keep"));
  EXPECT_EQ(got, content);
  ASSERT_OK(fs->Unmount());
  fs.reset();

  // The offline checker takes the same fallback and warns about it.
  auto report = CheckLfsImage(&disk);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->errors, 0u) << report->Summary();
  EXPECT_GE(report->warnings, 1u);
}

// The fault matrix: every operation races a seeded rain of transient read
// and write faults. The retry layer must absorb all of it — the filesystem
// may never diverge from the in-memory model, and the image must check
// clean after a remount. Each seed runs with and without cfg.concurrent
// (the first bool), so the background cleaner thread and the striped read
// cache face the same matrix as a lone caller; the second bool re-runs the
// matrix with adaptive cleaning + partial compaction on, so a fault landing
// mid-drain (victim half-relocated, cursor advanced) must quarantine the
// victim, never corrupt the namespace or the live accounting.
class FaultMatrixTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool, bool>> {};

TEST_P(FaultMatrixTest, SeededTransientStressZeroDivergence) {
  const auto [seed, concurrent, adaptive] = GetParam();
  LfsConfig cfg = SmallConfig();
  cfg.concurrent = concurrent;
  if (adaptive) {
    cfg.adaptive_cleaning = true;
    cfg.partial_compaction = true;
    cfg.partial_compaction_min_u = 0.3;
    cfg.partial_compaction_max_blocks = 8;
  }
  FaultDisk disk(std::make_unique<MemDisk>(cfg.block_size, 8192), seed);
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();
  Rng rng(seed * 31 + 7);

  disk.SetTransientReadFaultRate(0.02);
  disk.SetTransientWriteFaultRate(0.02);

  std::map<std::string, std::vector<uint8_t>> model;
  const int kSteps = 800;
  for (int i = 0; i < kSteps; i++) {
    uint64_t op = rng.NextBelow(100);
    std::string path = "/m" + std::to_string(rng.NextBelow(20));
    if (op < 50) {
      std::vector<uint8_t> content =
          TestContent(seed * 100000 + static_cast<uint64_t>(i),
                      1 + rng.NextBelow(12 * cfg.block_size));
      if (model.count(path)) {
        ASSERT_OK_AND_ASSIGN(InodeNum ino, fs->Lookup(path));
        ASSERT_OK(fs->Truncate(ino, 0));
        ASSERT_OK(fs->WriteAt(ino, 0, content));
      } else {
        ASSERT_OK(fs->WriteFile(path, content));
      }
      model[path] = std::move(content);
    } else if (op < 62) {
      if (model.count(path)) {
        ASSERT_OK(fs->Unlink(path));
        model.erase(path);
      }
    } else if (op < 80) {
      if (model.count(path)) {
        ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> data, fs->ReadFile(path));
        ASSERT_EQ(data, model[path]) << path << " diverged at step " << i;
      }
    } else if (op < 92) {
      ASSERT_OK(fs->Sync());
    } else {
      ASSERT_OK(fs->ForceClean().status());
    }
  }

  // Faults actually fired, and every one of them was absorbed.
  EXPECT_GT(disk.counters().transient_read_faults +
                disk.counters().transient_write_faults,
            0u);
  EXPECT_GT(fs->stats().io_retries, 0u);
  EXPECT_EQ(fs->stats().io_retry_failures, 0u);
  EXPECT_EQ(fs->mount_state(), MountState::kReadWrite);

  ASSERT_OK(fs->Unmount());
  fs.reset();

  // Quiesce the media and verify the full universe after a remount.
  disk.ClearAllFaults();
  fs = std::move(LfsFileSystem::Mount(&disk, cfg)).value();
  for (const auto& [path, content] : model) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> data, fs->ReadFile(path));
    ASSERT_EQ(data, content) << path << " diverged after remount";
  }
  ASSERT_OK(fs->Unmount());
  fs.reset();

  auto report = CheckLfsImage(&disk);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->errors, 0u) << report->Summary();
  for (const auto& m : report->messages) {
    ADD_FAILURE() << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultMatrixTest,
                         ::testing::Combine(::testing::Values(17, 58, 4242),
                                            ::testing::Bool(), ::testing::Bool()));

}  // namespace
}  // namespace lfs
