// Basic end-to-end behaviour of LfsFileSystem: namespace operations, data
// I/O, persistence across clean unmount/remount.

#include <algorithm>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace lfs {
namespace {

using ::lfs::testing::SmallConfig;
using ::lfs::testing::TestContent;

class LfsBasicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = SmallConfig();
    disk_ = std::make_unique<MemDisk>(cfg_.block_size, 4096);  // 4 MB
    auto fs = LfsFileSystem::Mkfs(disk_.get(), cfg_);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
  }

  void Remount() {
    ASSERT_OK(fs_->Unmount());
    fs_.reset();
    auto fs = LfsFileSystem::Mount(disk_.get(), cfg_);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
  }

  LfsConfig cfg_;
  std::unique_ptr<MemDisk> disk_;
  std::unique_ptr<LfsFileSystem> fs_;
};

// Stages one block at a time in descending (inode, block) order, for inodes
// whose stripe order differs from their number order, flushes them in one
// batch, and returns each block's log address in (inode, block) order.
void FlushedAddresses(uint32_t inode_shards, std::vector<BlockNo>* out) {
  LfsConfig cfg = SmallConfig();
  cfg.segment_blocks = 64;
  cfg.write_buffer_blocks = 64;  // holds every staged block
  cfg.inode_shards = inode_shards;
  MemDisk disk(cfg.block_size, 8192);
  ASSERT_OK_AND_ASSIGN(auto fs, LfsFileSystem::Mkfs(&disk, cfg));
  std::vector<InodeNum> inos;
  for (int i = 0; i < 70; i++) {
    ASSERT_OK_AND_ASSIGN(InodeNum ino, fs->Create("/f" + std::to_string(i)));
    inos.push_back(ino);
  }
  ASSERT_OK(fs->Sync());
  // With 64 stripes, inode 65 sorts before 2 and 66 by stripe, and 3 after.
  std::vector<InodeNum> targets = {inos[0], inos[1], inos[63], inos[64]};
  ASSERT_EQ(targets, (std::vector<InodeNum>{2, 3, 65, 66}));
  const uint64_t blocks_per_file = 3;
  for (auto ino = targets.rbegin(); ino != targets.rend(); ++ino) {
    for (uint64_t fbn = blocks_per_file; fbn-- > 0;) {
      ASSERT_OK(fs->WriteAt(*ino, fbn * cfg.block_size,
                            TestContent(*ino * 10 + fbn, cfg.block_size)));
    }
  }
  ASSERT_EQ(fs->dirty_buffered_blocks(), targets.size() * blocks_per_file);
  ASSERT_OK(fs->Sync());
  out->clear();
  for (InodeNum ino : targets) {
    ASSERT_OK_AND_ASSIGN(std::vector<BlockNo> addrs, fs->FileBlockAddresses(ino));
    ASSERT_EQ(addrs.size(), blocks_per_file);
    out->insert(out->end(), addrs.begin(), addrs.end());
  }
}

TEST(LfsFlushOrderTest, StagedBlocksReachTheLogInInodeThenBlockOrder) {
  std::vector<BlockNo> one_stripe;
  std::vector<BlockNo> many_stripes;
  ASSERT_NO_FATAL_FAILURE(FlushedAddresses(1, &one_stripe));
  ASSERT_NO_FATAL_FAILURE(FlushedAddresses(64, &many_stripes));
  EXPECT_TRUE(std::is_sorted(many_stripes.begin(), many_stripes.end()));
  EXPECT_EQ(std::adjacent_find(many_stripes.begin(), many_stripes.end()), many_stripes.end());
  EXPECT_EQ(one_stripe, many_stripes);
}

TEST_F(LfsBasicTest, MkfsCreatesEmptyRoot) {
  ASSERT_OK_AND_ASSIGN(auto entries, fs_->ReadDir("/"));
  EXPECT_TRUE(entries.empty());
  ASSERT_OK_AND_ASSIGN(FileStat st, fs_->Stat(kRootInode));
  EXPECT_EQ(st.type, FileType::kDirectory);
}

TEST_F(LfsBasicTest, CreateWriteReadBack) {
  std::vector<uint8_t> content = TestContent(1, 3000);
  ASSERT_OK(fs_->WriteFile("/hello", content));
  ASSERT_OK_AND_ASSIGN(auto read, fs_->ReadFile("/hello"));
  EXPECT_EQ(read, content);
}

TEST_F(LfsBasicTest, CreateFailsOnDuplicate) {
  ASSERT_OK(fs_->Create("/a").status());
  Result<InodeNum> dup = fs_->Create("/a");
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(LfsBasicTest, LookupMissingFails) {
  Result<InodeNum> r = fs_->Lookup("/nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(LfsBasicTest, NestedDirectories) {
  ASSERT_OK(fs_->Mkdir("/a"));
  ASSERT_OK(fs_->Mkdir("/a/b"));
  ASSERT_OK(fs_->Mkdir("/a/b/c"));
  ASSERT_OK(fs_->WriteFile("/a/b/c/f", TestContent(2, 500)));
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/a/b/c/f"));
  EXPECT_EQ(data, TestContent(2, 500));
  ASSERT_OK_AND_ASSIGN(auto entries, fs_->ReadDir("/a/b"));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "c");
  EXPECT_EQ(entries[0].type, FileType::kDirectory);
}

TEST_F(LfsBasicTest, UnlinkRemovesFile) {
  ASSERT_OK(fs_->WriteFile("/f", TestContent(3, 100)));
  ASSERT_OK(fs_->Unlink("/f"));
  EXPECT_FALSE(fs_->Exists("/f"));
  EXPECT_EQ(fs_->Unlink("/f").code(), StatusCode::kNotFound);
}

TEST_F(LfsBasicTest, RmdirRequiresEmpty) {
  ASSERT_OK(fs_->Mkdir("/d"));
  ASSERT_OK(fs_->WriteFile("/d/f", TestContent(4, 10)));
  EXPECT_EQ(fs_->Rmdir("/d").code(), StatusCode::kNotEmpty);
  ASSERT_OK(fs_->Unlink("/d/f"));
  ASSERT_OK(fs_->Rmdir("/d"));
  EXPECT_FALSE(fs_->Exists("/d"));
}

TEST_F(LfsBasicTest, HardLinksShareContent) {
  ASSERT_OK(fs_->WriteFile("/orig", TestContent(5, 64)));
  ASSERT_OK(fs_->Link("/orig", "/alias"));
  ASSERT_OK_AND_ASSIGN(FileStat st, fs_->StatPath("/alias"));
  EXPECT_EQ(st.nlink, 2u);
  ASSERT_OK(fs_->Unlink("/orig"));
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/alias"));
  EXPECT_EQ(data, TestContent(5, 64));
}

TEST_F(LfsBasicTest, RenameMovesAndReplaces) {
  ASSERT_OK(fs_->WriteFile("/a", TestContent(6, 32)));
  ASSERT_OK(fs_->WriteFile("/b", TestContent(7, 32)));
  ASSERT_OK(fs_->Rename("/a", "/b"));  // replaces /b
  EXPECT_FALSE(fs_->Exists("/a"));
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/b"));
  EXPECT_EQ(data, TestContent(6, 32));
}

TEST_F(LfsBasicTest, RenameAcrossDirectories) {
  ASSERT_OK(fs_->Mkdir("/src"));
  ASSERT_OK(fs_->Mkdir("/dst"));
  ASSERT_OK(fs_->WriteFile("/src/f", TestContent(8, 128)));
  ASSERT_OK(fs_->Rename("/src/f", "/dst/g"));
  EXPECT_FALSE(fs_->Exists("/src/f"));
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/dst/g"));
  EXPECT_EQ(data, TestContent(8, 128));
}

TEST_F(LfsBasicTest, RenameDirIntoItselfRejected) {
  ASSERT_OK(fs_->Mkdir("/d"));
  ASSERT_OK(fs_->Mkdir("/d/e"));
  EXPECT_EQ(fs_->Rename("/d", "/d/e/x").code(), StatusCode::kInvalidArgument);
}

TEST_F(LfsBasicTest, OverwriteInPlace) {
  ASSERT_OK(fs_->WriteFile("/f", TestContent(9, 5000)));
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Lookup("/f"));
  std::vector<uint8_t> patch = TestContent(10, 100);
  ASSERT_OK(fs_->WriteAt(ino, 2500, patch));
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f"));
  std::vector<uint8_t> expect = TestContent(9, 5000);
  std::copy(patch.begin(), patch.end(), expect.begin() + 2500);
  EXPECT_EQ(data, expect);
}

TEST_F(LfsBasicTest, SparseFileReadsZeros) {
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Create("/sparse"));
  std::vector<uint8_t> tail = TestContent(11, 10);
  ASSERT_OK(fs_->WriteAt(ino, 50000, tail));
  ASSERT_OK_AND_ASSIGN(FileStat st, fs_->Stat(ino));
  EXPECT_EQ(st.size, 50010u);
  std::vector<uint8_t> mid(100);
  ASSERT_OK_AND_ASSIGN(uint64_t n, fs_->ReadAt(ino, 10000, mid));
  EXPECT_EQ(n, 100u);
  EXPECT_TRUE(std::all_of(mid.begin(), mid.end(), [](uint8_t b) { return b == 0; }));
  std::vector<uint8_t> end(10);
  ASSERT_OK_AND_ASSIGN(n, fs_->ReadAt(ino, 50000, end));
  EXPECT_EQ(end, tail);
}

TEST_F(LfsBasicTest, TruncateShrinkAndGrow) {
  ASSERT_OK(fs_->WriteFile("/f", TestContent(12, 4000)));
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Lookup("/f"));
  ASSERT_OK(fs_->Truncate(ino, 1500));
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f"));
  std::vector<uint8_t> expect = TestContent(12, 4000);
  expect.resize(1500);
  EXPECT_EQ(data, expect);
  ASSERT_OK(fs_->Truncate(ino, 3000));
  ASSERT_OK_AND_ASSIGN(data, fs_->ReadFile("/f"));
  expect.resize(3000, 0);
  EXPECT_EQ(data, expect);
}

TEST_F(LfsBasicTest, TruncateToZeroBumpsVersion) {
  ASSERT_OK(fs_->WriteFile("/f", TestContent(13, 2000)));
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Lookup("/f"));
  uint32_t v0 = fs_->inode_map().Get(ino).version;
  ASSERT_OK(fs_->Truncate(ino, 0));
  EXPECT_GT(fs_->inode_map().Get(ino).version, v0);
}

TEST_F(LfsBasicTest, PersistsAcrossRemount) {
  ASSERT_OK(fs_->Mkdir("/dir"));
  ASSERT_OK(fs_->WriteFile("/dir/file1", TestContent(14, 2345)));
  ASSERT_OK(fs_->WriteFile("/file2", TestContent(15, 100)));
  Remount();
  ASSERT_OK_AND_ASSIGN(auto d1, fs_->ReadFile("/dir/file1"));
  EXPECT_EQ(d1, TestContent(14, 2345));
  ASSERT_OK_AND_ASSIGN(auto d2, fs_->ReadFile("/file2"));
  EXPECT_EQ(d2, TestContent(15, 100));
}

TEST_F(LfsBasicTest, ManySmallFilesSurviveRemount) {
  for (int i = 0; i < 200; i++) {
    ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 100 + i)));
  }
  Remount();
  for (int i = 0; i < 200; i++) {
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f" + std::to_string(i)));
    EXPECT_EQ(data, TestContent(i, 100 + i)) << i;
  }
}

TEST_F(LfsBasicTest, LargeFileUsesIndirectBlocks) {
  // 1-KB blocks, 12 direct => anything over 12 KB exercises indirects; over
  // 12 + 128 blocks exercises the double indirect.
  std::vector<uint8_t> big = TestContent(16, 400 * 1024);
  ASSERT_OK(fs_->WriteFile("/big", big));
  Remount();
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/big"));
  EXPECT_EQ(data, big);
}

TEST_F(LfsBasicTest, DeepPathsAndLongNames) {
  std::string name(255, 'x');
  ASSERT_OK(fs_->WriteFile("/" + name, TestContent(17, 10)));
  EXPECT_TRUE(fs_->Exists("/" + name));
  std::string too_long(256, 'y');
  EXPECT_EQ(fs_->Create("/" + too_long).status().code(), StatusCode::kNameTooLong);
}

TEST_F(LfsBasicTest, WriteToDirectoryRejected) {
  ASSERT_OK(fs_->Mkdir("/d"));
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Lookup("/d"));
  std::vector<uint8_t> data{1, 2, 3};
  EXPECT_EQ(fs_->WriteAt(ino, 0, data).code(), StatusCode::kIsADirectory);
}

TEST_F(LfsBasicTest, ReadDirListsSorted) {
  ASSERT_OK(fs_->Create("/c").status());
  ASSERT_OK(fs_->Create("/a").status());
  ASSERT_OK(fs_->Create("/b").status());
  ASSERT_OK_AND_ASSIGN(auto entries, fs_->ReadDir("/"));
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "a");
  EXPECT_EQ(entries[1].name, "b");
  EXPECT_EQ(entries[2].name, "c");
}

TEST_F(LfsBasicTest, ManyEntriesInOneDirectory) {
  for (int i = 0; i < 500; i++) {
    ASSERT_OK(fs_->Create("/entry" + std::to_string(i)).status());
  }
  ASSERT_OK_AND_ASSIGN(auto entries, fs_->ReadDir("/"));
  EXPECT_EQ(entries.size(), 500u);
  Remount();
  ASSERT_OK_AND_ASSIGN(entries, fs_->ReadDir("/"));
  EXPECT_EQ(entries.size(), 500u);
  EXPECT_TRUE(fs_->Exists("/entry499"));
}

TEST_F(LfsBasicTest, ReadOnlyMountRefusesMutations) {
  ASSERT_OK(fs_->WriteFile("/f", TestContent(50, 2000)));
  ASSERT_OK(fs_->Unmount());
  fs_.reset();
  MountOptions opts;
  opts.read_only = true;
  auto fs = LfsFileSystem::Mount(disk_.get(), cfg_, opts);
  ASSERT_TRUE(fs.ok());
  fs_ = std::move(fs).value();
  // Reads work.
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f"));
  EXPECT_EQ(data, TestContent(50, 2000));
  // Every mutation is refused with kReadOnly.
  EXPECT_EQ(fs_->Create("/new").status().code(), StatusCode::kReadOnly);
  EXPECT_EQ(fs_->Mkdir("/d").code(), StatusCode::kReadOnly);
  EXPECT_EQ(fs_->Unlink("/f").code(), StatusCode::kReadOnly);
  EXPECT_EQ(fs_->Rename("/f", "/g").code(), StatusCode::kReadOnly);
  EXPECT_EQ(fs_->Link("/f", "/h").code(), StatusCode::kReadOnly);
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Lookup("/f"));
  std::vector<uint8_t> byte{1};
  EXPECT_EQ(fs_->WriteAt(ino, 0, byte).code(), StatusCode::kReadOnly);
  EXPECT_EQ(fs_->Truncate(ino, 0).code(), StatusCode::kReadOnly);
  // Sync/Unmount are harmless no-ops.
  ASSERT_OK(fs_->Sync());
  ASSERT_OK(fs_->Unmount());
  fs_.reset();
  // A read-write remount sees the untouched image.
  fs_ = std::move(LfsFileSystem::Mount(disk_.get(), cfg_)).value();
  ASSERT_OK_AND_ASSIGN(data, fs_->ReadFile("/f"));
  EXPECT_EQ(data, TestContent(50, 2000));
}

TEST_F(LfsBasicTest, ManyInodesSpanMultipleImapChunks) {
  // SmallConfig: 1-KB blocks -> 42 imap entries per chunk; 150 files span
  // four chunks, all of which must persist and reload.
  for (int i = 0; i < 150; i++) {
    ASSERT_OK(fs_->Create("/i" + std::to_string(i)).status());
  }
  EXPECT_GT(fs_->inode_map().chunk_of(151), 2u);
  Remount();
  for (int i = 0; i < 150; i++) {
    EXPECT_TRUE(fs_->Exists("/i" + std::to_string(i))) << i;
  }
  EXPECT_EQ(fs_->inode_map().allocated_count(), 151u);  // +1 for the root
}

TEST_F(LfsBasicTest, NoSpaceSurfacesCleanly) {
  // 4-MB disk; write until it refuses, then verify existing data intact.
  std::vector<uint8_t> chunk = TestContent(18, 64 * 1024);
  ASSERT_OK(fs_->WriteFile("/keep", TestContent(19, 1000)));
  Status st = OkStatus();
  int i = 0;
  while (st.ok() && i < 200) {
    st = fs_->WriteFile("/fill" + std::to_string(i++), chunk);
  }
  EXPECT_EQ(st.code(), StatusCode::kNoSpace);
  ASSERT_OK_AND_ASSIGN(auto keep, fs_->ReadFile("/keep"));
  EXPECT_EQ(keep, TestContent(19, 1000));
  // Deleting should make room again.
  for (int j = 0; j < i - 1; j++) {
    ASSERT_OK(fs_->Unlink("/fill" + std::to_string(j)));
  }
  ASSERT_OK(fs_->Sync());
  ASSERT_OK(fs_->WriteFile("/after", TestContent(20, 1000)));
}

}  // namespace
}  // namespace lfs
