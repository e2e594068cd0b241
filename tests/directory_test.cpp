// Tests for the directory module against the model it replaced: a parsed
// entry list per block, placed first-fit and re-encoded whole on every
// change. Every block the module edits in place must equal that model's
// encoding byte for byte, so images written through either are identical.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fs/directory.h"
#include "src/util/codec.h"
#include "src/util/rng.h"

namespace lfs {
namespace {

class ReferenceDirectory {
 public:
  explicit ReferenceDirectory(uint32_t block_size) : block_size_(block_size) {}

  uint64_t Add(const DirEntry& e) {
    for (uint64_t b = 0; b < blocks_.size(); b++) {
      if (Used(b) + Size(e) <= block_size_ - 4) {
        blocks_[b].push_back(e);
        return b;
      }
    }
    blocks_.push_back({e});
    return blocks_.size() - 1;
  }

  uint64_t Remove(const std::string& name) {
    for (uint64_t b = 0; b < blocks_.size(); b++) {
      for (auto it = blocks_[b].begin(); it != blocks_[b].end(); ++it) {
        if (it->name == name) {
          blocks_[b].erase(it);
          return b;
        }
      }
    }
    ADD_FAILURE() << "no entry " << name;
    return 0;
  }

  std::vector<uint8_t> Encode(uint64_t b) const {
    std::vector<uint8_t> buf(block_size_);
    Encoder enc(buf);
    enc.PutU32(static_cast<uint32_t>(blocks_[b].size()));
    for (const DirEntry& e : blocks_[b]) {
      enc.PutU32(e.ino);
      enc.PutU8(static_cast<uint8_t>(e.type));
      enc.PutLengthPrefixedString(e.name);
    }
    enc.ZeroRest();
    return buf;
  }

  uint64_t block_count() const { return blocks_.size(); }

 private:
  static size_t Size(const DirEntry& e) { return 4 + 1 + 2 + e.name.size(); }
  size_t Used(uint64_t b) const {
    size_t used = 0;
    for (const DirEntry& e : blocks_[b]) {
      used += Size(e);
    }
    return used;
  }

  uint32_t block_size_;
  std::vector<std::vector<DirEntry>> blocks_;
};

std::vector<uint8_t> Bytes(std::span<const uint8_t> block) {
  return std::vector<uint8_t>(block.begin(), block.end());
}

void ExpectSameBlocks(const Directory& dir, const ReferenceDirectory& ref) {
  ASSERT_EQ(dir.block_count(), ref.block_count());
  for (uint64_t b = 0; b < ref.block_count(); b++) {
    EXPECT_EQ(Bytes(dir.block(b)), ref.Encode(b)) << "block " << b;
  }
}

std::vector<DirEntry> Entries(std::span<const uint8_t> block) {
  std::vector<DirEntry> out;
  Result<size_t> used =
      Directory::DecodeBlock(block, [&](std::string_view name, InodeNum ino, FileType type) {
        out.push_back(DirEntry{std::string(name), ino, type});
      });
  EXPECT_TRUE(used.ok()) << used.status().ToString();
  return out;
}

TEST(DirectoryTest, RandomAddsAndRemovesMatchTheReferenceEncoding) {
  for (uint64_t seed = 1; seed <= 6; seed++) {
    const uint32_t bs = seed % 2 == 0 ? 4096 : 1024;
    Directory dir(bs);
    ReferenceDirectory ref(bs);
    Rng rng(seed);
    std::vector<DirEntry> live;
    std::set<std::string> gone;
    for (int step = 0; step < 3000; step++) {
      if (live.empty() || rng.NextBelow(100) < 60) {
        std::string name(1 + rng.NextBelow(255), ' ');  // 1-255 bytes
        for (char& c : name) {
          c = static_cast<char>('!' + rng.NextBelow(94));
        }
        if (dir.Find(name).ok()) {
          continue;
        }
        DirEntry e{name, static_cast<InodeNum>(1 + rng.NextBelow(1u << 31)),
                   rng.NextBool(0.2) ? FileType::kDirectory : FileType::kRegular};
        const uint64_t want = ref.Add(e);
        ASSERT_EQ(dir.BlockFor(e.name), want) << "seed " << seed << " step " << step;
        ASSERT_EQ(dir.Add(e.name, e.ino, e.type), want);
        ASSERT_EQ(Bytes(dir.block(want)), ref.Encode(want)) << "seed " << seed << " step " << step;
        live.push_back(e);
        gone.erase(e.name);
      } else {
        const size_t victim = rng.NextBelow(live.size());
        const uint64_t want = ref.Remove(live[victim].name);
        Result<uint64_t> got = dir.Remove(live[victim].name);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(*got, want);
        ASSERT_EQ(Bytes(dir.block(want)), ref.Encode(want)) << "seed " << seed << " step " << step;
        gone.insert(live[victim].name);
        live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
      }
    }
    ExpectSameBlocks(dir, ref);
    for (const DirEntry& e : live) {
      Result<InodeNum> ino = dir.Find(e.name);
      ASSERT_TRUE(ino.ok()) << e.name;
      EXPECT_EQ(*ino, e.ino);
    }
    for (const std::string& name : gone) {
      EXPECT_EQ(dir.Find(name).status().code(), StatusCode::kNotFound);
    }
    EXPECT_EQ(dir.List().size(), live.size());
  }
}

TEST(DirectoryTest, BlockFilledToExactlyItsSizeThenOpensANewBlock) {
  const uint32_t bs = 512;
  Directory dir(bs);
  ReferenceDirectory ref(bs);
  // 4 + 2 * (7 + 247) = 512: the block is full to its last byte.
  for (char c : {'x', 'y'}) {
    DirEntry e{std::string(247, c), static_cast<InodeNum>(c), FileType::kRegular};
    EXPECT_EQ(dir.Add(e.name, e.ino, e.type), ref.Add(e));
  }
  ASSERT_EQ(dir.block_count(), 1u);
  EXPECT_EQ(Bytes(dir.block(0)), ref.Encode(0));
  EXPECT_EQ(dir.block(0)[bs - 1], 'y');
  EXPECT_EQ(dir.BlockFor("z"), 1u);
  DirEntry z{"z", 3, FileType::kDirectory};
  EXPECT_EQ(dir.Add(z.name, z.ino, z.type), ref.Add(z));
  ASSERT_EQ(dir.block_count(), 2u);
  ExpectSameBlocks(dir, ref);
  // Space freed in the first block is reused first-fit.
  ASSERT_TRUE(dir.Remove(std::string(247, 'x')).ok());
  ref.Remove(std::string(247, 'x'));
  DirEntry w{"w", 4, FileType::kRegular};
  EXPECT_EQ(dir.BlockFor(w.name), 0u);
  EXPECT_EQ(dir.Add(w.name, w.ino, w.type), ref.Add(w));
  ExpectSameBlocks(dir, ref);
}

TEST(DirectoryTest, RemovingTheFirstMiddleOrLastEntryShiftsAndZeroes) {
  const std::vector<DirEntry> entries = {
      {"first", 10, FileType::kRegular},
      {"middle-entry", 11, FileType::kDirectory},
      {"last", 12, FileType::kRegular},
  };
  for (const DirEntry& victim : entries) {
    Directory dir(1024);
    ReferenceDirectory ref(1024);
    for (const DirEntry& e : entries) {
      dir.Add(e.name, e.ino, e.type);
      ref.Add(e);
    }
    ASSERT_TRUE(dir.Remove(victim.name).ok());
    ref.Remove(victim.name);
    ExpectSameBlocks(dir, ref);
    std::vector<DirEntry> left = Entries(dir.block(0));
    ASSERT_EQ(left.size(), 2u);
    for (const DirEntry& e : left) {
      EXPECT_NE(e.name, victim.name);
    }
    EXPECT_EQ(dir.Remove(victim.name).status().code(), StatusCode::kNotFound);
  }
}

TEST(DirectoryTest, LoadZeroesBytesAfterTheLastEntry) {
  const uint32_t bs = 1024;
  ReferenceDirectory ref(bs);
  ref.Add({"alpha", 5, FileType::kRegular});
  ref.Add({"beta", 6, FileType::kDirectory});
  std::vector<uint8_t> stored = ref.Encode(0);
  const size_t end = 4 + (7 + 5) + (7 + 4);
  std::fill(stored.begin() + static_cast<ptrdiff_t>(end), stored.end(), 0xEE);
  Result<size_t> used = Directory::DecodeBlock(stored, [](std::string_view, InodeNum, FileType) {});
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(*used, end);

  Directory dir(bs);
  ASSERT_TRUE(dir.Load(stored).ok());
  EXPECT_EQ(Bytes(dir.block(0)), ref.Encode(0));  // written back as zeros
  ASSERT_TRUE(dir.Find("beta").ok());
  EXPECT_EQ(*dir.Find("beta"), 6u);
  DirEntry e{"gamma", 7, FileType::kRegular};
  EXPECT_EQ(dir.Add(e.name, e.ino, e.type), ref.Add(e));
  ExpectSameBlocks(dir, ref);
  // A hole loads as an empty block.
  ASSERT_TRUE(dir.Load(std::vector<uint8_t>(bs, 0)).ok());
  EXPECT_EQ(dir.block_count(), 2u);
  EXPECT_FALSE(dir.empty());
}

TEST(DirectoryTest, DecodeBlockBoundsTheEntryCount) {
  const uint32_t bs = 1024;
  const uint32_t most = (bs - 4) / 7;  // every name empty
  std::vector<uint8_t> block(bs, 0);
  int visited = 0;
  auto count = [&](std::string_view, InodeNum, FileType) { visited++; };
  block[0] = static_cast<uint8_t>(most);
  block[1] = static_cast<uint8_t>(most >> 8);
  Result<size_t> used = Directory::DecodeBlock(block, count);
  ASSERT_TRUE(used.ok()) << used.status().ToString();
  EXPECT_EQ(*used, 4 + 7 * size_t{most});
  EXPECT_EQ(visited, static_cast<int>(most));

  block[0] = static_cast<uint8_t>(most + 1);
  block[1] = static_cast<uint8_t>((most + 1) >> 8);
  visited = 0;
  EXPECT_EQ(Directory::DecodeBlock(block, count).status().code(), StatusCode::kCorruption);
  block[0] = 1;
  block[1] = 0;
  block[3] = 0x80;  // 0x80000001
  EXPECT_EQ(Directory::DecodeBlock(block, count).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(visited, 0);

  // An entry whose name runs past the block: nothing is visited, and a
  // failed Load leaves the directory as it was.
  std::vector<uint8_t> torn(bs, 0);
  torn[0] = 2;             // two entries
  torn[4 + 5] = 1;         // the first has a 1-byte name
  torn[4 + 8 + 5] = 0xFF;  // the second claims 0xFFFF bytes
  torn[4 + 8 + 6] = 0xFF;
  EXPECT_EQ(Directory::DecodeBlock(torn, count).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(visited, 0);
  Directory dir(bs);
  EXPECT_EQ(dir.Load(torn).code(), StatusCode::kCorruption);
  EXPECT_EQ(dir.block_count(), 0u);
  EXPECT_EQ(dir.Find("").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace lfs
