// Large-file edge cases: the direct / single-indirect / double-indirect
// boundaries, holes spanning whole indirect ranges, truncation at exact
// boundaries, and recovery of multi-level files. SmallConfig uses 1-KB
// blocks (12 direct, 128 pointers per indirect block), so the boundaries
// are at 12 KB and 140 KB — cheap to cross.

#include <string>

#include <gtest/gtest.h>

#include "src/disk/crash_disk.h"
#include "tests/test_util.h"

namespace lfs {
namespace {

using ::lfs::testing::SmallConfig;
using ::lfs::testing::TestContent;

class LargeFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = SmallConfig();
    disk_ = std::make_unique<MemDisk>(cfg_.block_size, 16384);  // 16 MB
    fs_ = std::move(LfsFileSystem::Mkfs(disk_.get(), cfg_)).value();
    bs_ = cfg_.block_size;
    ppb_ = bs_ / 8;
    direct_bytes_ = kNumDirect * bs_;              // 12 KB
    single_bytes_ = direct_bytes_ + ppb_ * bs_;    // 140 KB
  }

  void Remount() {
    ASSERT_OK(fs_->Unmount());
    fs_.reset();
    fs_ = std::move(LfsFileSystem::Mount(disk_.get(), cfg_)).value();
  }

  LfsConfig cfg_;
  std::unique_ptr<MemDisk> disk_;
  std::unique_ptr<LfsFileSystem> fs_;
  uint32_t bs_ = 0;
  uint32_t ppb_ = 0;
  uint64_t direct_bytes_ = 0;
  uint64_t single_bytes_ = 0;
};

TEST_F(LargeFileTest, ExactlyDirectBoundary) {
  for (uint64_t size : {direct_bytes_ - 1, direct_bytes_, direct_bytes_ + 1}) {
    std::string path = "/b" + std::to_string(size);
    ASSERT_OK(fs_->WriteFile(path, TestContent(size, size)));
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile(path));
    EXPECT_EQ(data, TestContent(size, size)) << size;
  }
  Remount();
  for (uint64_t size : {direct_bytes_ - 1, direct_bytes_, direct_bytes_ + 1}) {
    std::string path = "/b" + std::to_string(size);
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile(path));
    EXPECT_EQ(data, TestContent(size, size)) << size;
  }
}

TEST_F(LargeFileTest, ExactlySingleIndirectBoundary) {
  for (uint64_t size : {single_bytes_ - 1, single_bytes_, single_bytes_ + bs_}) {
    std::string path = "/s" + std::to_string(size);
    ASSERT_OK(fs_->WriteFile(path, TestContent(size, size)));
  }
  Remount();
  for (uint64_t size : {single_bytes_ - 1, single_bytes_, single_bytes_ + bs_}) {
    std::string path = "/s" + std::to_string(size);
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile(path));
    EXPECT_EQ(data, TestContent(size, size)) << size;
  }
}

TEST_F(LargeFileTest, DeepIntoDoubleIndirect) {
  // Several indirect blocks under the double-indirect root.
  uint64_t size = single_bytes_ + 3 * ppb_ * bs_ + 777;
  std::vector<uint8_t> content = TestContent(7, size);
  ASSERT_OK(fs_->WriteFile("/deep", content));
  Remount();
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/deep"));
  EXPECT_EQ(data, content);
}

TEST_F(LargeFileTest, HoleSpanningWholeIndirectRange) {
  // Write one block at the start and one far into the double-indirect zone;
  // everything between is a hole, including entire absent indirect blocks.
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Create("/holey"));
  std::vector<uint8_t> head = TestContent(1, bs_);
  std::vector<uint8_t> tail = TestContent(2, bs_);
  uint64_t tail_off = single_bytes_ + 2 * ppb_ * bs_;
  ASSERT_OK(fs_->WriteAt(ino, 0, head));
  ASSERT_OK(fs_->WriteAt(ino, tail_off, tail));
  Remount();
  ASSERT_OK_AND_ASSIGN(ino, fs_->Lookup("/holey"));
  std::vector<uint8_t> buf(bs_);
  ASSERT_OK(fs_->ReadAt(ino, 0, buf).status());
  EXPECT_EQ(buf, head);
  ASSERT_OK(fs_->ReadAt(ino, tail_off, buf).status());
  EXPECT_EQ(buf, tail);
  // Probe several hole offsets: all zeros.
  for (uint64_t off : {direct_bytes_, single_bytes_, single_bytes_ + ppb_ * bs_ / 2}) {
    ASSERT_OK(fs_->ReadAt(ino, off, buf).status());
    EXPECT_TRUE(std::all_of(buf.begin(), buf.end(), [](uint8_t b) { return b == 0; }))
        << off;
  }
}

TEST_F(LargeFileTest, TruncateAcrossIndirectBoundaries) {
  uint64_t size = single_bytes_ + 2 * ppb_ * bs_;
  std::vector<uint8_t> content = TestContent(9, size);
  ASSERT_OK(fs_->WriteFile("/t", content));
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Lookup("/t"));
  // Shrink stepwise across each boundary, verifying after each step.
  for (uint64_t target : {single_bytes_ + 5, single_bytes_, direct_bytes_ + 5,
                          direct_bytes_, uint64_t{100}}) {
    ASSERT_OK(fs_->Truncate(ino, target));
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/t"));
    std::vector<uint8_t> expect = content;
    expect.resize(target);
    EXPECT_EQ(data, expect) << target;
  }
  Remount();
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/t"));
  std::vector<uint8_t> expect = content;
  expect.resize(100);
  EXPECT_EQ(data, expect);
}

TEST_F(LargeFileTest, GrowAfterShrinkReusesBoundariesCleanly) {
  ASSERT_OK(fs_->WriteFile("/g", TestContent(3, single_bytes_ + 5000)));
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Lookup("/g"));
  ASSERT_OK(fs_->Truncate(ino, 500));
  std::vector<uint8_t> more = TestContent(4, 3 * ppb_ * bs_);
  ASSERT_OK(fs_->WriteAt(ino, 500, more));
  Remount();
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/g"));
  ASSERT_EQ(data.size(), 500 + more.size());
  std::vector<uint8_t> head = TestContent(3, single_bytes_ + 5000);
  EXPECT_TRUE(std::equal(data.begin(), data.begin() + 500, head.begin()));
  EXPECT_TRUE(std::equal(data.begin() + 500, data.end(), more.begin()));
}

TEST_F(LargeFileTest, DoubleIndirectFileSurvivesCrashRecovery) {
  LfsConfig cfg = SmallConfig();
  CrashDisk crash(std::make_unique<MemDisk>(cfg.block_size, 16384));
  auto fs = std::move(LfsFileSystem::Mkfs(&crash, cfg)).value();
  ASSERT_OK(fs->Sync());
  uint64_t size = single_bytes_ + ppb_ * bs_ + 4321;
  std::vector<uint8_t> content = TestContent(11, size);
  ASSERT_OK(fs->WriteFile("/big", content));
  crash.CrashNow();
  fs.reset();
  crash.ClearCrash();
  fs = std::move(LfsFileSystem::Mount(&crash, cfg)).value();
  ASSERT_TRUE(fs->Exists("/big"));
  ASSERT_OK_AND_ASSIGN(auto data, fs->ReadFile("/big"));
  // Prefix semantics: whatever was flushed must be intact.
  ASSERT_LE(data.size(), content.size());
  content.resize(data.size());
  EXPECT_EQ(data, content);
}

TEST_F(LargeFileTest, CleaningMovesIndirectBlocksCorrectly) {
  uint64_t size = single_bytes_ + ppb_ * bs_;
  std::vector<uint8_t> content = TestContent(13, size);
  ASSERT_OK(fs_->WriteFile("/victim", content));
  // Fragment around it and clean until the file's segments are compacted.
  for (int i = 0; i < 40; i++) {
    ASSERT_OK(fs_->WriteFile("/x" + std::to_string(i), TestContent(i, 4000)));
  }
  for (int i = 0; i < 40; i += 2) {
    ASSERT_OK(fs_->Unlink("/x" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Sync());
  for (int pass = 0; pass < 12; pass++) {
    ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
    if (n == 0) {
      break;
    }
  }
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/victim"));
  EXPECT_EQ(data, content);
  Remount();
  ASSERT_OK_AND_ASSIGN(data, fs_->ReadFile("/victim"));
  EXPECT_EQ(data, content);
}

TEST_F(LargeFileTest, GrowthPastTheBlockTreeIsRefused) {
  // 12 direct + 128 single-indirect + 128 * 128 double-indirect blocks.
  const uint64_t max_bytes = (kNumDirect + ppb_ + ppb_ * ppb_) * bs_;
  ASSERT_EQ(fs_->superblock().max_file_bytes(), max_bytes);
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Create("/edge"));
  std::vector<uint8_t> byte = {0x5A};
  EXPECT_EQ(fs_->WriteAt(ino, max_bytes, byte).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(fs_->WriteAt(ino, UINT64_MAX, byte).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(fs_->Truncate(ino, max_bytes + 1).code(), StatusCode::kOutOfRange);
  // Exactly the limit is a valid (sparse) file, before and after a remount.
  ASSERT_OK(fs_->Truncate(ino, max_bytes));
  ASSERT_OK(fs_->WriteAt(ino, max_bytes - 1, byte));
  Remount();
  ASSERT_OK_AND_ASSIGN(FileStat st, fs_->Stat(ino));
  EXPECT_EQ(st.size, max_bytes);
  std::vector<uint8_t> back(1);
  ASSERT_OK_AND_ASSIGN(uint64_t n, fs_->ReadAt(ino, max_bytes - 1, back));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(back, byte);
}

// A write that fills the buffer is committed mid-way, and that commit trims
// the file-map cache once more than 16384 maps are loaded. The write must
// not keep using its own map across the commit: the trim may evict it.
TEST(LargeWriteTest, WriteOutlivesEvictionOfItsFileMapAtACommit) {
  LfsConfig cfg;
  cfg.max_inodes = 32768;
  MemDisk disk(cfg.block_size, (64ull << 20) / cfg.block_size);
  ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mkfs(&disk, cfg));
  ASSERT_OK_AND_ASSIGN(InodeNum a, fs->Create("/a"));
  for (int i = 0; i < 16500; i++) {
    ASSERT_OK(fs->Create("/f" + std::to_string(i)).status());
  }
  ASSERT_OK(fs->Sync());  // every loaded map is clean, hence evictable
  std::vector<uint8_t> data = TestContent(3, 2 << 20);
  ASSERT_OK(fs->WriteAt(a, 0, data));
  std::vector<uint8_t> back(data.size());
  ASSERT_OK_AND_ASSIGN(uint64_t n, fs->ReadAt(a, 0, back));
  EXPECT_EQ(n, data.size());
  EXPECT_EQ(back, data);
}

}  // namespace
}  // namespace lfs
