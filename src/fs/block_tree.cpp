#include "src/fs/block_tree.h"

#include <algorithm>
#include <string>

#include "src/util/codec.h"

namespace lfs {

namespace {

// Indirect blocks a tree of `n` file blocks uses.
uint64_t IndirectCount(uint64_t n, uint32_t ppb) {
  return n > kNumDirect ? (n - kNumDirect + ppb - 1) / ppb : 0;
}

// Encodes addrs[first, first + ppb) into one pointer block, kNilBlock past
// the end of `addrs`.
void EncodePointers(const std::vector<BlockNo>& addrs, uint64_t first, uint32_t ppb,
                    std::span<uint8_t> out) {
  Encoder enc(out);
  for (uint64_t i = first; i < first + ppb; i++) {
    enc.PutU64(i < addrs.size() ? addrs[i] : kNilBlock);
  }
}

// Decodes a pointer block into (*addrs)[first, first + ppb), as far as
// `addrs` reaches.
void DecodePointers(std::span<const uint8_t> block, uint64_t first, uint32_t ppb,
                    std::vector<BlockNo>* addrs) {
  Decoder dec(block);
  for (uint64_t i = first; i < std::min<uint64_t>(first + ppb, addrs->size()); i++) {
    (*addrs)[i] = dec.GetU64();
  }
}

}  // namespace

uint64_t BlockTree::MaxBlocks(uint32_t block_size) {
  const uint64_t ppb = block_size / 8;
  return kNumDirect + (1 + ppb) * ppb;
}

Result<BlockTree> BlockTree::Load(uint32_t block_size, uint64_t size,
                                  std::span<const BlockNo, kNumDirect> direct, BlockNo single,
                                  BlockNo dind, const Reader& read) {
  const uint64_t n = size / block_size + (size % block_size != 0 ? 1 : 0);
  if (n > MaxBlocks(block_size)) {
    return CorruptionError("file size " + std::to_string(size) +
                           " exceeds what its block tree addresses");
  }
  BlockTree tree(block_size);
  tree.blocks.assign(n, kNilBlock);
  std::copy_n(direct.begin(), std::min<uint64_t>(kNumDirect, n), tree.blocks.begin());
  tree.ind_addrs.assign(IndirectCount(n, tree.ppb), kNilBlock);
  if (tree.ind_addrs.empty()) {
    return tree;
  }
  tree.ind_addrs[0] = single;
  std::vector<uint8_t> block(block_size);
  if (tree.ind_addrs.size() > 1 && dind != kNilBlock) {
    tree.dind_addr = dind;
    LFS_RETURN_IF_ERROR(read(dind, block));
    DecodePointers(block, 1, tree.ppb, &tree.ind_addrs);
  }
  for (uint64_t i = 0; i < tree.ind_addrs.size(); i++) {
    if (tree.ind_addrs[i] == kNilBlock) {
      continue;  // a hole spanning a whole indirect range
    }
    LFS_RETURN_IF_ERROR(read(tree.ind_addrs[i], block));
    DecodePointers(block, kNumDirect + i * tree.ppb, tree.ppb, &tree.blocks);
  }
  return tree;
}

void BlockTree::Grow(uint64_t n) {
  if (n > blocks.size()) {
    blocks.resize(n, kNilBlock);
    ind_addrs.resize(IndirectCount(n, ppb), kNilBlock);
  }
}

void BlockTree::Shrink(uint64_t n, const Release& release) {
  auto drop = [&](BlockNo addr) {
    if (addr != kNilBlock) {
      release(addr);
    }
  };
  for (uint64_t fbn = n; fbn < blocks.size(); fbn++) {
    drop(blocks[fbn]);
  }
  blocks.resize(n, kNilBlock);
  const uint64_t ind = IndirectCount(n, ppb);
  for (uint64_t i = ind; i < ind_addrs.size(); i++) {
    drop(ind_addrs[i]);
    dirty_ind.erase(i);
  }
  ind_addrs.resize(ind, kNilBlock);
  if (ind <= 1) {
    drop(dind_addr);
    dind_addr = kNilBlock;
  }
  dind_dirty = ind > 1;
  if (ind > 0) {
    dirty_ind.insert(ind - 1);  // the block that now ends the file
  }
}

void BlockTree::MarkDirty(uint64_t fbn) {
  if (fbn >= kNumDirect) {
    RewriteIndirect((fbn - kNumDirect) / ppb);
  }
}

void BlockTree::RewriteIndirect(uint64_t ind) {
  dirty_ind.insert(ind);
  if (ind >= 1) {
    dind_dirty = true;  // the root must name the new copy
  }
}

void BlockTree::EncodeIndirect(uint64_t ind, std::span<uint8_t> out) const {
  EncodePointers(blocks, kNumDirect + ind * ppb, ppb, out);
}

void BlockTree::EncodeRoot(std::span<uint8_t> out) const {
  EncodePointers(ind_addrs, 1, ppb, out);
}

void BlockTree::StorePointers(std::span<BlockNo, kNumDirect> direct, BlockNo* single,
                              BlockNo* dind) const {
  for (uint32_t i = 0; i < kNumDirect; i++) {
    direct[i] = i < blocks.size() ? blocks[i] : kNilBlock;
  }
  *single = ind_addrs.empty() ? kNilBlock : ind_addrs[0];
  *dind = dind_addr;
}

}  // namespace lfs
