// Tests for the offline checker (lfsck's engine): a healthy image after
// heavy churn must check CLEAN with zero errors; deliberately corrupted
// images must be detected; crashed (tail-bearing) images must remain
// error-free (the tail is recoverable, not corrupt).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/disk/crash_disk.h"
#include "src/disk/fault_disk.h"
#include "src/lfs/check.h"
#include "src/util/json.h"
#include "tests/test_util.h"

namespace lfs {
namespace {

using ::lfs::testing::SmallConfig;
using ::lfs::testing::TestContent;

class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = SmallConfig();
    disk_ = std::make_unique<MemDisk>(cfg_.block_size, 8192);
    auto fs = LfsFileSystem::Mkfs(disk_.get(), cfg_);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(fs).value();
  }

  // Create files, delete some, clean, checkpoint — a well-worn image.
  void ChurnAndUnmount() {
    Rng rng(5);
    for (int i = 0; i < 80; i++) {
      ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i),
                               TestContent(i, 500 + rng.NextBelow(9000))));
    }
    ASSERT_OK(fs_->Mkdir("/sub"));
    ASSERT_OK(fs_->WriteFile("/sub/nested", TestContent(99, 3000)));
    ASSERT_OK(fs_->Link("/f1", "/link_to_f1"));
    for (int i = 0; i < 80; i += 3) {
      ASSERT_OK(fs_->Unlink("/f" + std::to_string(i)));
    }
    ASSERT_OK(fs_->Sync());
    ASSERT_OK(fs_->ForceClean().status());
    ASSERT_OK(fs_->Unmount());
    fs_.reset();
  }

  // Decodes the newest checkpoint region; `base` receives its address.
  void ReadNewestCheckpoint(Checkpoint* newest, BlockNo* base) {
    std::vector<uint8_t> block(cfg_.block_size);
    ASSERT_TRUE(disk_->Read(0, 1, block).ok());
    ASSERT_OK_AND_ASSIGN(Superblock sb, Superblock::DecodeFrom(block));
    std::vector<uint8_t> region(size_t{sb.cr_blocks} * cfg_.block_size);
    bool have = false;
    for (BlockNo b : {sb.cr_base0, sb.cr_base1}) {
      ASSERT_TRUE(disk_->Read(b, sb.cr_blocks, region).ok());
      auto ck = Checkpoint::DecodeFrom(region);
      if (ck.ok() && (!have || ck->ckpt_seq > newest->ckpt_seq)) {
        *newest = std::move(ck).value();
        *base = b;
        have = true;
      }
    }
    ASSERT_TRUE(have);
  }

  // Re-encodes `ck`, with a fresh trailer CRC, into the region at `base`.
  void ResealCheckpoint(const Checkpoint& ck, BlockNo base) {
    std::vector<uint8_t> block(cfg_.block_size);
    ASSERT_TRUE(disk_->Read(0, 1, block).ok());
    ASSERT_OK_AND_ASSIGN(Superblock sb, Superblock::DecodeFrom(block));
    std::vector<uint8_t> region(size_t{sb.cr_blocks} * cfg_.block_size);
    ck.EncodeTo(region);
    ASSERT_OK(disk_->Write(base, sb.cr_blocks, region));
  }

  LfsConfig cfg_;
  std::unique_ptr<MemDisk> disk_;
  std::unique_ptr<LfsFileSystem> fs_;
};

TEST_F(CheckTest, FreshImageIsClean) {
  ASSERT_OK(fs_->Unmount());
  fs_.reset();
  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(disk_.get()));
  EXPECT_EQ(report.errors, 0u) << report.Summary();
  EXPECT_EQ(report.directories, 1u);  // the root
}

TEST_F(CheckTest, ChurnedImageIsCleanAndInventoried) {
  ChurnAndUnmount();
  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(disk_.get()));
  EXPECT_EQ(report.errors, 0u) << report.Summary();
  for (const auto& m : report.messages) {
    ADD_FAILURE_AT("check_test.cpp", __LINE__) << m;
  }
  // 80 files - 27 deleted + 1 nested = 54 regular files; root + /sub dirs.
  EXPECT_EQ(report.files, 54u);
  EXPECT_EQ(report.directories, 2u);
  EXPECT_GT(report.live_data_blocks, 0u);
  EXPECT_GT(report.partial_writes, 0u);
}

TEST_F(CheckTest, RepeatedCheckpointsConvergeToZeroWarnings) {
  // The usage-table snapshot for the active segment lags by one checkpoint;
  // a second checkpoint with no intervening traffic must make it exact.
  ASSERT_OK(fs_->WriteFile("/f", TestContent(1, 5000)));
  ASSERT_OK(fs_->Sync());
  ASSERT_OK(fs_->Sync());
  ASSERT_OK(fs_->Unmount());
  fs_.reset();
  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(disk_.get()));
  EXPECT_EQ(report.errors, 0u) << report.Summary();
  EXPECT_EQ(report.warnings, 0u) << report.Summary();
}

TEST_F(CheckTest, DirectoryPastTheSingleIndirectBlockIsWalkedWhole) {
  // 4,001 entries fill more 512-byte directory blocks than the direct
  // pointers and the single-indirect block name (12 + 64): counting every
  // link means following the double-indirect root.
  fs_.reset();
  cfg_.block_size = 512;
  disk_ = std::make_unique<MemDisk>(cfg_.block_size, 16384);
  ASSERT_OK_AND_ASSIGN(fs_, LfsFileSystem::Mkfs(disk_.get(), cfg_));
  ASSERT_OK(fs_->WriteFile("/f", TestContent(1, 100)));
  for (int i = 0; i < 4000; i++) {
    ASSERT_OK(fs_->Link("/f", "/l" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Unmount());
  fs_.reset();
  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(disk_.get()));
  EXPECT_EQ(report.errors, 0u) << report.Summary();
  EXPECT_EQ(report.warnings, 0u) << report.Summary();
  for (const std::string& m : report.messages) {
    ADD_FAILURE() << m;
  }
}

TEST_F(CheckTest, ToJsonIsParseableAndCarriesFindings) {
  ChurnAndUnmount();
  // Clean image first: valid JSON, ok=true, inventory matches the report.
  ASSERT_OK_AND_ASSIGN(CheckReport clean, CheckLfsImage(disk_.get()));
  ASSERT_OK_AND_ASSIGN(json::Value doc, json::Parse(clean.ToJson()));
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.Find("ok"), nullptr);
  EXPECT_TRUE(doc.Find("ok")->as_bool());
  EXPECT_EQ(doc.Find("errors")->as_number(), 0.0);
  EXPECT_EQ(doc.Find("files")->as_number(), static_cast<double>(clean.files));
  ASSERT_NE(doc.Find("findings"), nullptr);
  ASSERT_TRUE(doc.Find("findings")->is_array());

  // Smash a log block: the findings array must carry structured entries.
  auto raw = disk_->raw();
  std::vector<uint8_t> block(cfg_.block_size);
  ASSERT_TRUE(disk_->Read(0, 1, block).ok());
  ASSERT_OK_AND_ASSIGN(Superblock sb, Superblock::DecodeFrom(block));
  std::fill(raw.begin() + static_cast<long>((sb.seg_start + 1) * cfg_.block_size),
            raw.begin() + static_cast<long>((sb.seg_start + 2) * cfg_.block_size), 0xFF);
  ASSERT_OK_AND_ASSIGN(CheckReport bad, CheckLfsImage(disk_.get()));
  ASSERT_GT(bad.findings.size(), 0u);
  ASSERT_OK_AND_ASSIGN(json::Value bad_doc, json::Parse(bad.ToJson()));
  const json::Value* findings = bad_doc.Find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->as_array().size(), bad.findings.size());
  for (const json::Value& f : findings->as_array()) {
    ASSERT_TRUE(f.is_object());
    ASSERT_NE(f.Find("invariant"), nullptr);
    EXPECT_FALSE(f.Find("invariant")->as_string().empty());
    ASSERT_NE(f.Find("severity"), nullptr);
    const std::string& sev = f.Find("severity")->as_string();
    EXPECT_TRUE(sev == "error" || sev == "warning") << sev;
    ASSERT_NE(f.Find("message"), nullptr);
    EXPECT_FALSE(f.Find("message")->as_string().empty());
  }
}

TEST_F(CheckTest, DetectsCorruptedInodeBlock) {
  ChurnAndUnmount();
  // Find a live inode location via a clean check first, then smash a block
  // in the middle of the log and expect errors.
  ASSERT_OK_AND_ASSIGN(CheckReport before, CheckLfsImage(disk_.get()));
  ASSERT_EQ(before.errors, 0u);
  // Zero a block in the first segment (the log's oldest data). Some block in
  // there is live after churn; zeroing it breaks payload CRCs at minimum.
  auto raw = disk_->raw();
  uint64_t seg0_base = 0;
  {
    std::vector<uint8_t> block(cfg_.block_size);
    ASSERT_TRUE(disk_->Read(0, 1, block).ok());
    auto sb = Superblock::DecodeFrom(block);
    ASSERT_TRUE(sb.ok());
    seg0_base = sb->seg_start;
  }
  std::fill(raw.begin() + static_cast<long>((seg0_base + 1) * cfg_.block_size),
            raw.begin() + static_cast<long>((seg0_base + 2) * cfg_.block_size), 0xFF);
  ASSERT_OK_AND_ASSIGN(CheckReport after, CheckLfsImage(disk_.get()));
  EXPECT_GT(after.errors + after.warnings, 0u) << after.Summary();
}

TEST_F(CheckTest, DetectsTrashedImapChunk) {
  ChurnAndUnmount();
  // Read the newest checkpoint to find an imap chunk, then trash it.
  Checkpoint newest;
  BlockNo base = kNilBlock;
  ASSERT_NO_FATAL_FAILURE(ReadNewestCheckpoint(&newest, &base));
  BlockNo victim = newest.imap_chunk_addr[0];
  auto raw = disk_->raw();
  for (uint32_t i = 0; i < cfg_.block_size; i++) {
    raw[victim * cfg_.block_size + i] ^= 0xA5;
  }
  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(disk_.get()));
  EXPECT_GT(report.errors, 0u) << report.Summary();
}

TEST_F(CheckTest, InodeCountPastMaxInodesIsAFindingNotACrash) {
  // A re-sealed checkpoint whose imap high-water mark exceeds the
  // superblock's max_inodes must come back as a Status from Mount and as a
  // finding from the checker, which would otherwise size its imap copy from
  // it (2^32-1 entries: std::bad_alloc).
  ChurnAndUnmount();
  Checkpoint newest;
  BlockNo base = kNilBlock;
  ASSERT_NO_FATAL_FAILURE(ReadNewestCheckpoint(&newest, &base));
  newest.ninodes = UINT32_MAX;
  ASSERT_NO_FATAL_FAILURE(ResealCheckpoint(newest, base));

  auto mounted = LfsFileSystem::Mount(disk_.get(), cfg_);
  ASSERT_FALSE(mounted.ok());
  EXPECT_EQ(mounted.status().code(), StatusCode::kCorruption);
  EXPECT_NE(mounted.status().message().find("ninodes"), std::string::npos)
      << mounted.status().ToString();
  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(disk_.get()));
  bool flagged = false;
  for (const CheckFinding& f : report.findings) {
    flagged = flagged || (f.error && f.invariant == "checkpoint.ninodes_range");
  }
  EXPECT_TRUE(flagged) << report.Summary();
}

TEST_F(CheckTest, SuperblockUnlikeMkfsLayoutIsCorruptionNotACrash) {
  // A primary superblock re-sealed with cr_blocks near 2^32 decodes and
  // fits the device. Mount and the checker would otherwise size a
  // checkpoint-region buffer from it (about 4 TB: std::bad_alloc) before
  // reading anything.
  ASSERT_OK(fs_->Unmount());
  fs_.reset();
  std::vector<uint8_t> block(cfg_.block_size);
  ASSERT_OK(disk_->Read(0, 1, block));
  ASSERT_OK_AND_ASSIGN(Superblock sb, Superblock::DecodeFrom(block));
  sb.cr_blocks = 0xFFFFFFF0u;
  sb.EncodeTo(block);
  ASSERT_OK(disk_->Write(0, 1, block));

  auto mounted = LfsFileSystem::Mount(disk_.get(), cfg_);
  ASSERT_FALSE(mounted.ok());
  EXPECT_EQ(mounted.status().code(), StatusCode::kCorruption) << mounted.status().ToString();
  auto report = CheckLfsImage(disk_.get());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruption) << report.status().ToString();
}

TEST_F(CheckTest, SummarySeqFromTwoToThe63IsCorruption) {
  // A checkpoint re-sealed with next_summary_seq near 2^64 must not mount:
  // the writer's sequence would wrap to 0, the cleaner would end a victim's
  // chain at the wrapped partial and free live blocks, and files would read
  // back wrong with an OK status. The checker must flag it and still walk
  // the imap.
  ChurnAndUnmount();
  ASSERT_OK_AND_ASSIGN(CheckReport before, CheckLfsImage(disk_.get()));
  ASSERT_EQ(before.errors, 0u) << before.Summary();
  Checkpoint newest;
  BlockNo base = kNilBlock;
  ASSERT_NO_FATAL_FAILURE(ReadNewestCheckpoint(&newest, &base));
  newest.next_summary_seq = UINT64_MAX - 2;
  ASSERT_NO_FATAL_FAILURE(ResealCheckpoint(newest, base));

  auto mounted = LfsFileSystem::Mount(disk_.get(), cfg_);
  ASSERT_FALSE(mounted.ok());
  EXPECT_EQ(mounted.status().code(), StatusCode::kCorruption);
  EXPECT_NE(mounted.status().message().find("next_summary_seq"), std::string::npos)
      << mounted.status().ToString();
  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(disk_.get()));
  ASSERT_EQ(report.errors, 1u) << report.Summary();
  bool flagged = false;
  for (const CheckFinding& f : report.findings) {
    flagged = flagged || (f.error && f.invariant == "checkpoint.seq_range");
  }
  EXPECT_TRUE(flagged) << report.Summary();
  EXPECT_EQ(report.files, before.files);
  EXPECT_EQ(report.directories, before.directories);

  // 2^63 - 1 is still in range.
  newest.next_summary_seq = (uint64_t{1} << 63) - 1;
  ASSERT_NO_FATAL_FAILURE(ResealCheckpoint(newest, base));
  EXPECT_OK(LfsFileSystem::Mount(disk_.get(), cfg_).status());
}

TEST_F(CheckTest, InodeSizePastTheBlockTreeIsCorruptionNotACrash) {
  // A 2^62 size in one inode slot must come back as a Status: sizing a
  // file map (filesystem) or walking a block tree (checker) for it would
  // die in std::bad_alloc.
  ASSERT_OK(fs_->WriteFile("/f", TestContent(1, 3000)));
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Lookup("/f"));
  ASSERT_OK(fs_->Sync());
  // Move the log head past /f's segment, so mounting does not itself
  // liveness-check /f's blocks.
  for (int i = 0; i < 3; i++) {
    ASSERT_OK(fs_->WriteFile("/fill" + std::to_string(i), TestContent(i, 16 * 1024)));
  }
  ASSERT_OK(fs_->Unmount());
  ImapEntry loc = fs_->inode_map().Get(ino);
  fs_.reset();
  std::span<uint8_t> slot = disk_->raw().subspan(
      loc.inode_block * cfg_.block_size + size_t{loc.slot} * kInodeSlotSize, kInodeSlotSize);
  ASSERT_OK_AND_ASSIGN(Inode inode, Inode::DecodeFrom(slot));
  ASSERT_EQ(inode.ino, ino);
  inode.size = uint64_t{1} << 62;
  inode.EncodeTo(slot);

  ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mount(disk_.get(), cfg_));
  EXPECT_EQ(fs->Stat(ino).status().code(), StatusCode::kCorruption);
  fs.reset();
  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(disk_.get()));
  bool flagged = false;
  for (const CheckFinding& f : report.findings) {
    flagged = flagged || (f.error && f.invariant == "inode.size_out_of_range");
  }
  EXPECT_TRUE(flagged) << report.Summary();
}

TEST_F(CheckTest, DirectoryEntryCountPastTheBlockIsCorruptionNotACrash) {
  // A directory block whose u32 entry count has its top bit flipped
  // (1 -> 0x80000001) claims more entries than any block can hold. The
  // checker and the filesystem must refuse it with a Status instead of
  // sizing anything from the count (std::bad_alloc).
  ASSERT_OK(fs_->Mkdir("/d"));
  ASSERT_OK(fs_->WriteFile("/d/a", TestContent(1, 100)));
  ASSERT_OK_AND_ASSIGN(InodeNum dir, fs_->Lookup("/d"));
  ASSERT_OK(fs_->Sync());
  // Move the log head past /d's segment, so mounting does not itself
  // liveness-check /d's blocks.
  for (int i = 0; i < 3; i++) {
    ASSERT_OK(fs_->WriteFile("/fill" + std::to_string(i), TestContent(i, 16 * 1024)));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<BlockNo> addrs, fs_->FileBlockAddresses(dir));
  ASSERT_EQ(addrs.size(), 1u);
  ASSERT_OK(fs_->Unmount());
  fs_.reset();
  uint8_t* count = disk_->raw().data() + addrs[0] * cfg_.block_size;
  ASSERT_EQ(count[0], 1);
  count[3] ^= 0x80;

  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(disk_.get()));
  bool flagged = false;
  for (const CheckFinding& f : report.findings) {
    flagged = flagged || (f.error && f.invariant == "dirtree.block_undecodable");
  }
  EXPECT_TRUE(flagged) << report.Summary();
  ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mount(disk_.get(), cfg_));
  EXPECT_EQ(fs->Lookup("/d/a").status().code(), StatusCode::kCorruption);
}

TEST_F(CheckTest, UnreadableDirectoryBlockIsAFindingNotAnAbort) {
  // A directory block that cannot be read is one finding; the check goes
  // on and still returns its report.
  ASSERT_OK(fs_->Mkdir("/d"));
  ASSERT_OK(fs_->WriteFile("/d/a", TestContent(1, 100)));
  ASSERT_OK_AND_ASSIGN(InodeNum dir, fs_->Lookup("/d"));
  ASSERT_OK(fs_->Sync());
  ASSERT_OK_AND_ASSIGN(std::vector<BlockNo> addrs, fs_->FileBlockAddresses(dir));
  ASSERT_EQ(addrs.size(), 1u);
  ASSERT_OK(fs_->Unmount());
  fs_.reset();
  FaultDisk disk(std::move(disk_));
  disk.AddLatentError(addrs[0]);

  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(&disk));
  bool flagged = false;
  for (const CheckFinding& f : report.findings) {
    flagged = flagged || (f.error && f.invariant == "dirtree.block_unreadable");
  }
  EXPECT_TRUE(flagged) << report.Summary();
}

TEST_F(CheckTest, CrashedImageHasNoErrors) {
  // A crash leaves a log tail past the checkpoint; that is a RECOVERABLE
  // state, and the checker must not call it corruption.
  ASSERT_OK(fs_->WriteFile("/durable", TestContent(1, 4000)));
  ASSERT_OK(fs_->Sync());
  ASSERT_OK(fs_->WriteFile("/tail", TestContent(2, 40 * 1024)));
  fs_.reset();  // crash: no checkpoint for /tail
  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(disk_.get()));
  EXPECT_EQ(report.errors, 0u) << report.Summary();
}

TEST_F(CheckTest, NotAnLfsImage) {
  MemDisk junk(1024, 64);
  auto raw = junk.raw();
  for (size_t i = 0; i < raw.size(); i++) {
    raw[i] = static_cast<uint8_t>(i);
  }
  auto report = CheckLfsImage(&junk);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruption);
}

TEST_F(CheckTest, CleanAfterCrashRecoveryRoundTrip) {
  // crash -> remount (roll-forward) -> unmount -> the image checks clean.
  CrashDisk crash(std::make_unique<MemDisk>(cfg_.block_size, 8192));
  auto fs = std::move(LfsFileSystem::Mkfs(&crash, cfg_)).value();
  ASSERT_OK(fs->WriteFile("/a", TestContent(1, 30000)));
  ASSERT_OK(fs->Sync());
  ASSERT_OK(fs->WriteFile("/b", TestContent(2, 50000)));
  crash.CrashNow();
  fs.reset();
  crash.ClearCrash();
  fs = std::move(LfsFileSystem::Mount(&crash, cfg_)).value();
  ASSERT_OK(fs->Unmount());
  fs.reset();
  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(&crash));
  EXPECT_EQ(report.errors, 0u) << report.Summary();
}

// A checkpoint sweep: after every small write and Sync, the image on the
// raw device must check clean. A checkpoint whose own metadata appends roll
// into a fresh segment after that segment's usage chunk was encoded leaves
// the chunk calling a segment that hosts live metadata CLEAN; the image stays
// corrupt only until a later checkpoint rewrites that chunk, so a concurrent
// storm checked once at the end rarely sees it, while checking after every
// checkpoint of this deterministic run does.
TEST(CheckpointSweepTest, EveryCheckpointLeavesACleanImage) {
  LfsConfig cfg = SmallConfig();
  cfg.segment_blocks = 32;
  MemDisk disk(cfg.block_size, 8192);
  ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mkfs(&disk, cfg));
  constexpr int kFiles = 64;
  constexpr int kSteps = 400;
  std::vector<InodeNum> inos;
  for (int i = 0; i < kFiles; i++) {
    ASSERT_OK_AND_ASSIGN(InodeNum ino, fs->Create("/f" + std::to_string(i)));
    inos.push_back(ino);
  }
  Rng rng(1);
  for (int step = 0; step < kSteps; step++) {
    InodeNum ino = inos[rng.NextBelow(kFiles)];
    ASSERT_OK(fs->WriteAt(ino, 0, TestContent(step, 1 + rng.NextBelow(6 * 1024))));
    ASSERT_OK(fs->Sync());
    ASSERT_OK_AND_ASSIGN(CheckReport report, CheckLfsImage(&disk));
    std::string detail;
    for (const auto& m : report.messages) {
      detail += "\n  " + m;
    }
    ASSERT_EQ(report.errors, 0u) << "step " << step << ": " << report.Summary() << detail;
  }
  ASSERT_OK(fs->Unmount());
}

}  // namespace
}  // namespace lfs
