// BlockTree: one file's block-pointer tree, the inode and indirect-block
// index that Section 3.1 keeps from Unix FFS, so that LFS reads a file with
// the same I/Os as FFS.
//
// An inode names its first kNumDirect data blocks directly, then one
// single-indirect block, then a double-indirect root that names more
// single-indirect blocks. A pointer block is ppb = block_size / 8
// little-endian u64 addresses, kNilBlock for a hole. Indirect block i maps
// file blocks [kNumDirect + i * ppb, kNumDirect + (i + 1) * ppb); block 0 is
// the inode's single-indirect block, and the root names blocks 1..ppb.
//
// LFS, FFS and lfsck hold and edit every tree through this module, each
// reading pointer blocks through a reader of its own. Where a pointer block
// is written (LFS appends it to the log, FFS writes it in place) and how a
// dropped block is released stay with the file system.

#ifndef LFS_FS_BLOCK_TREE_H_
#define LFS_FS_BLOCK_TREE_H_

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <vector>

#include "src/disk/block_device.h"
#include "src/util/result.h"

namespace lfs {

inline constexpr uint32_t kNumDirect = 12;  // direct block pointers per inode

struct BlockTree {
  // Reads the pointer block at `addr` into `out` (one block).
  using Reader = std::function<Status(BlockNo addr, std::span<uint8_t> out)>;
  // Gives back one block a Shrink dropped.
  using Release = std::function<void(BlockNo addr)>;

  // The most file blocks a tree of `block_size` blocks addresses.
  static uint64_t MaxBlocks(uint32_t block_size);

  // Loads the tree of a file of `size` bytes from its inode's pointers:
  // reads the root, then every indirect block, through `read`. A size past
  // MaxBlocks blocks is kCorruption; a failed read is returned as it is.
  static Result<BlockTree> Load(uint32_t block_size, uint64_t size,
                                std::span<const BlockNo, kNumDirect> direct, BlockNo single,
                                BlockNo dind, const Reader& read);

  explicit BlockTree(uint32_t block_size) : ppb(block_size / 8) {}

  // Extends the tree to `n` blocks with holes; a no-op if it holds as many.
  void Grow(uint64_t n);
  // Cuts the tree to `n` blocks. Calls `release` once for each dropped data
  // block, then for each dropped indirect block, then for the root once no
  // indirect block hangs off it. The indirect block that now ends the file
  // is marked dirty, and so is the root while it stays.
  void Shrink(uint64_t n, const Release& release);
  // Block `fbn`'s address changed: marks the indirect block holding it
  // dirty, and the root when that block hangs off the root.
  void MarkDirty(uint64_t fbn);
  // Indirect block `ind` must be written again although none of its
  // pointers changed (the cleaner moves a live copy).
  void RewriteIndirect(uint64_t ind);

  // Encodes indirect block `ind`, or the root, into `out` (one block).
  void EncodeIndirect(uint64_t ind, std::span<uint8_t> out) const;
  void EncodeRoot(std::span<uint8_t> out) const;
  // Copies the inode-resident addresses into an inode's pointer fields.
  void StorePointers(std::span<BlockNo, kNumDirect> direct, BlockNo* single,
                     BlockNo* dind) const;

  uint32_t ppb;                    // pointers per pointer block
  std::vector<BlockNo> blocks;     // fbn -> data block address
  std::vector<BlockNo> ind_addrs;  // indirect block i's address
  BlockNo dind_addr = kNilBlock;   // the double-indirect root
  std::set<uint64_t> dirty_ind;    // indirect blocks to write again
  bool dind_dirty = false;         // the root must be written again
};

}  // namespace lfs

#endif  // LFS_FS_BLOCK_TREE_H_
