// Multi-log segregated writing (num_logs > 1): differential correctness
// against a reference model, the offline-checker + remount oracle, format
// compatibility across num_logs settings, crash points mid multi-log write,
// and cleaner interaction with per-temperature segment populations.

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/disk/crash_disk.h"
#include "src/lfs/check.h"
#include "src/util/crc32.h"
#include "tests/test_util.h"

namespace lfs {
namespace {

using ::lfs::testing::SmallConfig;
using ::lfs::testing::TestContent;

LfsConfig MultiLogConfig(uint32_t num_logs) {
  LfsConfig cfg = SmallConfig();
  cfg.num_logs = num_logs;
  return cfg;
}

// WriteFile() refuses to clobber an existing path (Create fails with
// AlreadyExists), so overwrites go through Truncate + WriteAt.
Status Upsert(LfsFileSystem* fs, const std::string& path,
              const std::vector<uint8_t>& data) {
  auto ino = fs->Lookup(path);
  if (!ino.ok()) {
    return fs->WriteFile(path, data);
  }
  Status st = fs->Truncate(ino.value(), 0);
  if (!st.ok()) {
    return st;
  }
  return fs->WriteAt(ino.value(), 0, data);
}

// Mixed-temperature churn: a cold set written once, a hot set overwritten
// many times with the clock advancing, deletions, and enough traffic to
// force cleaning. Mirrors every mutation into `ref`.
void Churn(LfsFileSystem* fs, std::map<std::string, std::vector<uint8_t>>* ref) {
  for (int i = 0; i < 24; i++) {
    std::string path = "/cold" + std::to_string(i);
    auto data = TestContent(1000 + i, 1500 + 97 * i);
    ASSERT_OK(fs->WriteFile(path, data));
    (*ref)[path] = data;
  }
  ASSERT_OK(fs->Sync());
  for (int round = 0; round < 12; round++) {
    for (int i = 0; i < 10; i++) {
      fs->clock().Tick();
      std::string path = "/hot" + std::to_string(i);
      auto data = TestContent(round * 100 + i, 800 + 131 * i);
      ASSERT_OK(Upsert(fs, path, data));
      (*ref)[path] = data;
    }
    if (round % 3 == 2) {
      std::string victim = "/hot" + std::to_string(round % 10);
      ASSERT_OK(fs->Unlink(victim));
      ref->erase(victim);
      ASSERT_OK(fs->Sync());
      ASSERT_OK(fs->ForceClean().status());
    }
  }
  ASSERT_OK(fs->Sync());
}

void VerifyAgainstRef(LfsFileSystem* fs,
                      const std::map<std::string, std::vector<uint8_t>>& ref) {
  for (const auto& [path, expect] : ref) {
    ASSERT_OK_AND_ASSIGN(auto data, fs->ReadFile(path));
    EXPECT_EQ(data, expect) << path;
  }
}

class MultiLogTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MultiLogTest, DifferentialChurnThenCheckThenRemount) {
  LfsConfig cfg = MultiLogConfig(GetParam());
  MemDisk disk(cfg.block_size, 8192);
  std::map<std::string, std::vector<uint8_t>> ref;
  {
    ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mkfs(&disk, cfg));
    Churn(fs.get(), &ref);
    VerifyAgainstRef(fs.get(), ref);
    ASSERT_OK(fs->Unmount());
  }
  // Offline-checker oracle: the unmounted image must be fully consistent.
  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(&disk));
  EXPECT_EQ(report.errors, 0u) << report.Summary();
  // Remount oracle: everything readable and intact.
  ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mount(&disk, cfg));
  VerifyAgainstRef(fs.get(), ref);
  ASSERT_OK(fs->Unmount());
}

TEST_P(MultiLogTest, RecoversAfterCrashMidWorkload) {
  // Crash after every N-th device write during a multi-log workload; every
  // crash point must mount cleanly with a consistent image.
  for (uint64_t crash_after : {3u, 9u, 17u, 33u, 61u, 120u}) {
    LfsConfig cfg = MultiLogConfig(GetParam());
    CrashDisk disk(std::make_unique<MemDisk>(cfg.block_size, 8192));
    std::map<std::string, std::vector<uint8_t>> ref;
    {
      ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mkfs(&disk, cfg));
      // Checkpointed base state the crash can never lose.
      ASSERT_OK(fs->WriteFile("/base", TestContent(7, 5000)));
      ASSERT_OK(fs->Sync());
      disk.CrashAfterWrites(crash_after, /*torn_blocks=*/1);
      for (int i = 0; i < 40; i++) {
        fs->clock().Tick();
        Status st = Upsert(fs.get(), "/f" + std::to_string(i % 8),
                           TestContent(i, 700 + 53 * i));
        if (!st.ok()) {
          break;  // writes started failing post-crash; state is frozen
        }
        if (i % 7 == 6 && !fs->Sync().ok()) {
          break;
        }
      }
    }
    disk.ClearCrash();
    ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(&disk));
    EXPECT_EQ(report.errors, 0u)
        << "crash_after=" << crash_after << ": " << report.Summary();
    ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mount(&disk, cfg));
    ASSERT_OK_AND_ASSIGN(auto base, fs->ReadFile("/base"));
    EXPECT_EQ(base, TestContent(7, 5000));
    // Whatever else was recovered must read back without errors.
    for (int i = 0; i < 8; i++) {
      std::string path = "/f" + std::to_string(i);
      if (fs->Exists(path)) {
        EXPECT_TRUE(fs->ReadFile(path).ok()) << path;
      }
    }
    ASSERT_OK(fs->Unmount());
  }
}

INSTANTIATE_TEST_SUITE_P(NumLogs, MultiLogTest, ::testing::Values(1u, 2u, 4u));

TEST(MultiLogFormatTest, SingleLogCheckpointCarriesNoExtraLogs) {
  // num_logs == 1 must keep the legacy checkpoint encoding: the multi-log
  // extension is present only when extra append points exist.
  LfsConfig cfg = MultiLogConfig(1);
  MemDisk disk(cfg.block_size, 8192);
  ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mkfs(&disk, cfg));
  ASSERT_OK(fs->WriteFile("/f", TestContent(1, 4000)));
  ASSERT_OK(fs->Unmount());
  fs.reset();
  const Superblock sb = [&] {
    std::vector<uint8_t> block(cfg.block_size);
    EXPECT_TRUE(disk.ReadBlock(0, block).ok());
    auto r = Superblock::DecodeFrom(block);
    EXPECT_TRUE(r.ok());
    return r.value();
  }();
  std::vector<uint8_t> region(size_t{sb.cr_blocks} * sb.block_size);
  for (BlockNo base : {sb.cr_base0, sb.cr_base1}) {
    if (!disk.Read(base, sb.cr_blocks, region).ok()) {
      continue;
    }
    Result<Checkpoint> ck = Checkpoint::DecodeFrom(region);
    if (ck.ok()) {
      EXPECT_TRUE(ck->extra_logs.empty());
    }
  }
}

TEST(MultiLogFormatTest, ImagesMountAcrossNumLogsSettings) {
  // An image written with 4 logs mounts with 1 (extra append points are
  // abandoned to the cleaner) and vice versa; data survives both switches.
  MemDisk disk(1024, 8192);
  std::map<std::string, std::vector<uint8_t>> ref;
  {
    ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mkfs(&disk, MultiLogConfig(4)));
    Churn(fs.get(), &ref);
    ASSERT_OK(fs->Unmount());
  }
  {
    ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mount(&disk, MultiLogConfig(1)));
    VerifyAgainstRef(fs.get(), ref);
    auto extra = TestContent(5555, 2000);
    ASSERT_OK(fs->WriteFile("/after_downgrade", extra));
    ref["/after_downgrade"] = extra;
    ASSERT_OK(fs->Unmount());
  }
  {
    ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mount(&disk, MultiLogConfig(2)));
    VerifyAgainstRef(fs.get(), ref);
    ASSERT_OK(fs->Unmount());
  }
  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(&disk));
  EXPECT_EQ(report.errors, 0u) << report.Summary();
}

TEST(MultiLogCleanerTest, ColdMigrationsLandInColdLogs) {
  // With multiple logs, cleaner survivors (old mtimes) must classify into a
  // log other than 0, leaving per-temperature segment populations behind.
  // Interleave cold and hot blocks so every segment holds both; once the hot
  // half is overwritten, cleaning those segments must migrate cold survivors.
  LfsConfig cfg = MultiLogConfig(2);
  MemDisk disk(cfg.block_size, 8192);
  ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mkfs(&disk, cfg));
  std::map<std::string, std::vector<uint8_t>> ref;
  for (int i = 0; i < 32; i++) {
    std::string cold = "/cold" + std::to_string(i);
    auto cdata = TestContent(9000 + i, 2048);
    ASSERT_OK(fs->WriteFile(cold, cdata));
    ref[cold] = cdata;
    std::string hot = "/hot" + std::to_string(i);
    auto hdata = TestContent(100 + i, 2048);
    ASSERT_OK(fs->WriteFile(hot, hdata));
    ref[hot] = hdata;
  }
  ASSERT_OK(fs->Sync());
  // Advance time, then kill the hot half: segments become half-dead with
  // old cold survivors, exactly what cost-benefit cleaning targets.
  for (int round = 0; round < 8; round++) {
    for (int i = 0; i < 32; i++) {
      fs->clock().Tick();
      std::string hot = "/hot" + std::to_string(i);
      auto hdata = TestContent(round * 1000 + i, 2048);
      ASSERT_OK(Upsert(fs.get(), hot, hdata));
      ref[hot] = hdata;
    }
    ASSERT_OK(fs->Sync());
    ASSERT_OK(fs->ForceClean().status());
  }
  // Drain the fully-dead segments (free harvest) until cost-benefit has to
  // pick the half-live cold/hot mixtures and migrate their survivors.
  for (int i = 0; i < 20; i++) {
    fs->clock().Tick();
    ASSERT_OK(fs->ForceClean().status());
  }
  VerifyAgainstRef(fs.get(), ref);
  const SegUsage& usage = fs->seg_usage();
  uint32_t tagged_cold = 0;
  for (SegNo seg = 0; seg < usage.nsegments(); seg++) {
    const SegUsageEntry& e = usage.Get(seg);
    if (e.state != SegState::kClean && e.log_id > 0) {
      tagged_cold++;
    }
  }
  EXPECT_GT(tagged_cold, 0u) << "no segment was ever filled by a cold log";
  ASSERT_OK(fs->Unmount());
}

// Overwrites log block `addr` and re-seals the payload CRC of the partial
// write that holds it, so the image stays otherwise intact.
void RewriteLogBlock(MemDisk* disk, const Superblock& sb, BlockNo addr,
                     const std::vector<uint8_t>& content) {
  SegmentChain chain(sb, sb.SegOf(addr), 0, sb.segment_blocks,
                     [disk](BlockNo b, uint64_t n, std::span<uint8_t> out) {
                       return disk->Read(b, n, out);
                     });
  while (chain.Next()) {
    if (addr < chain.payload_addr() || addr >= chain.payload_addr() + chain.payload_blocks()) {
      continue;
    }
    ASSERT_OK(disk->Write(addr, 1, content));
    std::vector<uint8_t> payload(size_t{chain.payload_blocks()} * sb.block_size);
    ASSERT_OK(disk->Read(chain.payload_addr(), chain.payload_blocks(), payload));
    SegmentSummary sum = chain.summary();
    sum.payload_crc = Crc32(payload);
    std::vector<uint8_t> block(sb.block_size);
    sum.EncodeTo(block);
    ASSERT_OK(disk->Write(chain.payload_addr() - 1, 1, block));
    return;
  }
  FAIL() << "no partial write holds block " << addr;
}

TEST(MultiLogCleanerTest, SegmentTaggedWithAnUnmountedLogIsStillCleaned) {
  // A usage entry may name a log this mount does not have: the image was
  // written with more logs, or the tag is damaged. The adaptive selector,
  // which gives each log its own cursor, must count such a segment as the
  // coldest log's rather than skip it forever.
  LfsConfig cfg = MultiLogConfig(2);
  cfg.adaptive_cleaning = true;
  MemDisk disk(cfg.block_size, 8192);
  std::map<std::string, std::vector<uint8_t>> ref;
  {
    ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mkfs(&disk, cfg));
    Churn(fs.get(), &ref);
    ASSERT_OK(fs->Unmount());
  }

  // Re-tag the least-utilized dirty segment that neither checkpoint region
  // protects (as a host of its chunks) to log 7.
  Status primary;
  ASSERT_OK_AND_ASSIGN(Superblock sb, ReadSuperblock(&disk, &primary));
  CheckpointRegions cr = ReadCheckpointRegions(&disk, sb);
  ASSERT_GE(cr.newest, 0);
  std::set<SegNo> hosts;
  for (const Result<Checkpoint>& region : cr.regions) {
    if (region.ok()) {
      hosts.merge(region->ChunkHosts(sb));
    }
  }
  const std::vector<BlockNo>& chunks = cr.regions[cr.newest]->usage_chunk_addr;
  const uint32_t epc = sb.usage_entries_per_chunk();
  SegNo victim = kNilSeg;
  uint32_t victim_live = UINT32_MAX;
  std::vector<uint8_t> block(sb.block_size);
  for (SegNo seg = 0; seg < sb.nsegments; seg++) {
    ASSERT_OK(disk.Read(chunks[seg / epc], 1, block));
    SegUsageEntry e = SegUsageEntry::DecodeFrom(
        std::span<const uint8_t>(block).subspan(size_t{seg % epc} * kUsageEntrySize));
    if (e.state == SegState::kDirty && !hosts.contains(seg) && e.live_bytes < victim_live) {
      victim = seg;
      victim_live = e.live_bytes;
    }
  }
  ASSERT_NE(victim, kNilSeg);
  ASSERT_OK(disk.Read(chunks[victim / epc], 1, block));
  block[size_t{victim % epc} * kUsageEntrySize + 13] = 7;  // the entry's log_id byte
  ASSERT_NO_FATAL_FAILURE(RewriteLogBlock(&disk, sb, chunks[victim / epc], block));

  ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mount(&disk, cfg));
  ASSERT_EQ(fs->seg_usage().Get(victim).log_id, 7u);
  ASSERT_OK(fs->ForceClean().status());
  EXPECT_EQ(fs->seg_usage().Get(victim).state, SegState::kClean);
  VerifyAgainstRef(fs.get(), ref);
  ASSERT_OK(fs->Unmount());
}

TEST(MultiLogCleanerTest, ReuseCountsPersistAcrossRemount) {
  LfsConfig cfg = MultiLogConfig(2);
  MemDisk disk(cfg.block_size, 8192);
  std::map<std::string, std::vector<uint8_t>> ref;
  {
    ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mkfs(&disk, cfg));
    Churn(fs.get(), &ref);
    ASSERT_OK(fs->Unmount());
  }
  ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mount(&disk, cfg));
  uint64_t total_reuse = 0;
  const SegUsage& usage = fs->seg_usage();
  for (SegNo seg = 0; seg < usage.nsegments(); seg++) {
    total_reuse += usage.Get(seg).reuse_count;
  }
  EXPECT_GT(total_reuse, 0u) << "segment fill cycles were not persisted";
  ASSERT_OK(fs->Unmount());
}

}  // namespace
}  // namespace lfs
