// Tests for the block-pointer tree shared by LFS, FFS and lfsck: an encoded
// tree loads back as it was stored, Shrink gives every dropped block back
// exactly once, and a size past the tree's reach is refused.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fs/block_tree.h"

namespace lfs {
namespace {

constexpr uint32_t kBlockSize = 512;
constexpr uint32_t kPpb = kBlockSize / 8;

// Pointer blocks stored by address, standing in for a disk.
using PointerStore = std::map<BlockNo, std::vector<uint8_t>>;

// A tree of `n` blocks whose data addresses are 1000 + fbn, with a hole at
// every seventh block and at every block of indirect block 2.
BlockTree MakeTree(uint64_t n) {
  BlockTree tree(kBlockSize);
  tree.Grow(n);
  for (uint64_t fbn = 0; fbn < n; fbn++) {
    bool hole = fbn % 7 == 3 || (fbn >= kNumDirect && (fbn - kNumDirect) / kPpb == 2);
    tree.blocks[fbn] = hole ? kNilBlock : 1000 + fbn;
  }
  return tree;
}

// Gives each indirect block with a non-hole pointer, and the root when the
// tree has one, an address, and stores their encodings there.
void StoreTree(BlockTree* tree, PointerStore* store) {
  BlockNo next = 1;
  std::vector<uint8_t> block(kBlockSize);
  for (uint64_t i = 0; i < tree->ind_addrs.size(); i++) {
    tree->EncodeIndirect(i, block);
    bool all_holes = block == std::vector<uint8_t>(kBlockSize, 0);
    tree->ind_addrs[i] = all_holes ? kNilBlock : next++;
    if (!all_holes) {
      (*store)[tree->ind_addrs[i]] = block;
    }
  }
  if (tree->ind_addrs.size() > 1) {
    tree->dind_addr = next++;
    tree->EncodeRoot(block);
    (*store)[tree->dind_addr] = block;
  }
}

TEST(BlockTreeTest, MaxBlocksIsDirectPlusSingleIndirectPlusRoot) {
  EXPECT_EQ(BlockTree::MaxBlocks(kBlockSize), kNumDirect + kPpb + uint64_t{kPpb} * kPpb);
  EXPECT_EQ(BlockTree::MaxBlocks(4096), 12u + 512u + 512u * 512u);
}

TEST(BlockTreeTest, LoadReturnsTheStoredTree) {
  const uint64_t max = BlockTree::MaxBlocks(kBlockSize);
  for (uint64_t n : {uint64_t{kNumDirect}, uint64_t{kNumDirect + kPpb},
                     uint64_t{kNumDirect + kPpb + 1}, max}) {
    SCOPED_TRACE(n);
    BlockTree stored = MakeTree(n);
    PointerStore store;
    StoreTree(&stored, &store);
    BlockNo direct[kNumDirect];
    BlockNo single = 0;
    BlockNo dind = 0;
    stored.StorePointers(direct, &single, &dind);

    uint64_t reads = 0;
    Result<BlockTree> loaded =
        BlockTree::Load(kBlockSize, n * kBlockSize - 100, direct, single, dind,
                        [&](BlockNo addr, std::span<uint8_t> out) -> Status {
                          auto it = store.find(addr);
                          if (it == store.end()) {
                            return NotFoundError("no pointer block " + std::to_string(addr));
                          }
                          std::copy(it->second.begin(), it->second.end(), out.begin());
                          reads++;
                          return OkStatus();
                        });
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->blocks, stored.blocks);
    EXPECT_EQ(loaded->ind_addrs, stored.ind_addrs);
    EXPECT_EQ(loaded->dind_addr, stored.dind_addr);
    EXPECT_EQ(reads, store.size());  // each pointer block read once
    EXPECT_TRUE(loaded->dirty_ind.empty());
    EXPECT_FALSE(loaded->dind_dirty);
  }
}

TEST(BlockTreeTest, LoadRefusesASizePastTheTree) {
  const uint64_t max_bytes = BlockTree::MaxBlocks(kBlockSize) * kBlockSize;
  BlockNo direct[kNumDirect] = {};
  auto no_read = [](BlockNo, std::span<uint8_t>) { return OkStatus(); };
  EXPECT_TRUE(BlockTree::Load(kBlockSize, max_bytes, direct, 0, 0, no_read).ok());
  Result<BlockTree> past = BlockTree::Load(kBlockSize, max_bytes + 1, direct, 0, 0, no_read);
  EXPECT_EQ(past.status().code(), StatusCode::kCorruption);
  past = BlockTree::Load(kBlockSize, UINT64_MAX, direct, 0, 0, no_read);
  EXPECT_EQ(past.status().code(), StatusCode::kCorruption);
}

TEST(BlockTreeTest, ShrinkReleasesEachDroppedBlockOnce) {
  const uint64_t max = BlockTree::MaxBlocks(kBlockSize);
  BlockTree tree(kBlockSize);
  tree.Grow(max);
  for (uint64_t fbn = 0; fbn < max; fbn++) {
    tree.blocks[fbn] = 100000 + fbn;
  }
  for (uint64_t i = 0; i < tree.ind_addrs.size(); i++) {
    tree.ind_addrs[i] = 10 + i;
  }
  tree.dind_addr = 5;
  std::map<BlockNo, int> released;
  auto release = [&](BlockNo addr) { released[addr]++; };
  auto expect_released = [&](std::vector<BlockNo> want) {
    std::map<BlockNo, int> expected;
    for (BlockNo addr : want) {
      expected[addr]++;
    }
    EXPECT_EQ(released, expected);
    released.clear();
  };

  // Down to two indirect blocks: the root stays, and indirect block 1 now
  // ends the file.
  uint64_t n = kNumDirect + kPpb + 1;
  tree.Shrink(n, release);
  std::vector<BlockNo> want;
  for (uint64_t fbn = n; fbn < max; fbn++) {
    want.push_back(100000 + fbn);
  }
  for (uint64_t i = 2; i < 1 + kPpb; i++) {
    want.push_back(10 + i);
  }
  expect_released(want);
  EXPECT_EQ(tree.blocks.size(), n);
  EXPECT_EQ(tree.ind_addrs.size(), 2u);
  EXPECT_EQ(tree.dirty_ind, (std::set<uint64_t>{1}));
  EXPECT_TRUE(tree.dind_dirty);
  EXPECT_EQ(tree.dind_addr, 5u);

  // Into the single-indirect range: indirect block 1 and the root go.
  tree.dirty_ind.clear();
  tree.Shrink(kNumDirect + 3, release);
  want = {10 + 1, 5};
  for (uint64_t fbn = kNumDirect + 3; fbn < n; fbn++) {
    want.push_back(100000 + fbn);
  }
  expect_released(want);
  EXPECT_EQ(tree.dirty_ind, (std::set<uint64_t>{0}));
  EXPECT_FALSE(tree.dind_dirty);
  EXPECT_EQ(tree.dind_addr, kNilBlock);

  // To nothing: the rest of the data and indirect block 0; holes are not
  // released.
  tree.blocks[4] = kNilBlock;
  tree.Shrink(0, release);
  want = {10};
  for (uint64_t fbn = 0; fbn < kNumDirect + 3; fbn++) {
    if (fbn != 4) {
      want.push_back(100000 + fbn);
    }
  }
  expect_released(want);
  EXPECT_TRUE(tree.blocks.empty());
  EXPECT_TRUE(tree.ind_addrs.empty());
  EXPECT_TRUE(tree.dirty_ind.empty());
}

TEST(BlockTreeTest, MarkDirtyNamesTheIndirectBlockAndTheRoot) {
  BlockTree tree(kBlockSize);
  tree.Grow(kNumDirect + 3 * kPpb);
  tree.MarkDirty(kNumDirect - 1);  // the inode holds it
  EXPECT_TRUE(tree.dirty_ind.empty());
  EXPECT_FALSE(tree.dind_dirty);
  tree.MarkDirty(kNumDirect + kPpb - 1);
  EXPECT_EQ(tree.dirty_ind, (std::set<uint64_t>{0}));
  EXPECT_FALSE(tree.dind_dirty);
  tree.MarkDirty(kNumDirect + 2 * kPpb);
  EXPECT_EQ(tree.dirty_ind, (std::set<uint64_t>{0, 2}));
  EXPECT_TRUE(tree.dind_dirty);
}

}  // namespace
}  // namespace lfs
