// On-disk format of the baseline Unix-FFS-style filesystem (McKusick et al.,
// "A Fast File System for UNIX" — the paper's comparison system).
//
// Layout:
//   block 0                          superblock
//   per block group g (cylinder-group analogue):
//     inode bitmap | block bitmap | inode table | data blocks
//
// The behaviours the LFS paper attributes to FFS are reproduced faithfully:
//   - inodes live at fixed disk addresses computed from the inode number;
//   - metadata (inodes, directory blocks) is written SYNCHRONOUSLY, one
//     small seek-paying I/O at a time; new-file inodes are written twice
//     (Figure 1's caption: "...written twice to ease recovery from crashes");
//   - files are spread across block groups (directories round-robin into
//     groups; file data stays near its inode), giving logical locality at
//     the cost of inter-file seeks;
//   - 10% of capacity is reserved so the allocator keeps working well;
//   - crash recovery is an fsck-style full metadata scan.

#ifndef LFS_FFS_FFS_LAYOUT_H_
#define LFS_FFS_FFS_LAYOUT_H_

#include <cstdint>
#include <span>

#include "src/disk/block_device.h"
#include "src/fs/block_tree.h"
#include "src/fs/file_system.h"
#include "src/util/result.h"

namespace lfs::ffs {

inline constexpr uint32_t kFfsMagic = 0x46465331;  // "FFS1"
inline constexpr uint32_t kFfsInodeSize = 160;
inline constexpr double kFfsReserveFraction = 0.10;  // the classic 90% limit

struct FfsSuperblock {
  uint32_t block_size = 0;
  uint64_t total_blocks = 0;
  uint32_t ngroups = 0;
  uint32_t blocks_per_group = 0;
  uint32_t inodes_per_group = 0;
  uint32_t inode_table_blocks = 0;  // per group
  uint32_t data_start = 0;          // first data block index within a group

  uint64_t GroupBase(uint32_t group) const {
    return 1 + uint64_t{group} * blocks_per_group;
  }
  uint64_t InodeBitmapBlock(uint32_t group) const { return GroupBase(group); }
  uint64_t BlockBitmapBlock(uint32_t group) const { return GroupBase(group) + 1; }
  uint64_t InodeTableBlock(uint32_t group) const { return GroupBase(group) + 2; }
  uint64_t DataBase(uint32_t group) const { return GroupBase(group) + data_start; }
  uint32_t data_blocks_per_group() const { return blocks_per_group - data_start; }
  uint32_t inodes_per_block() const { return block_size / kFfsInodeSize; }
  uint32_t max_inodes() const { return ngroups * inodes_per_group; }

  // Fixed disk location of an inode (the calculation Section 3.1 contrasts
  // with the LFS inode map).
  uint64_t InodeBlockOf(InodeNum ino) const {
    uint32_t idx = ino - 1;
    uint32_t group = idx / inodes_per_group;
    uint32_t within = idx % inodes_per_group;
    return InodeTableBlock(group) + within / inodes_per_block();
  }
  uint32_t InodeSlotOf(InodeNum ino) const {
    return ((ino - 1) % inodes_per_group) % inodes_per_block();
  }

  void EncodeTo(std::span<uint8_t> block) const;
  static Result<FfsSuperblock> DecodeFrom(std::span<const uint8_t> block);
  static Result<FfsSuperblock> Compute(uint32_t block_size, uint64_t total_blocks);
};

// The LFS inode's field set, without a version, serialized independently;
// its block pointers form the same block tree (src/fs/block_tree.h).
struct FfsInode {
  InodeNum ino = kNilInode;
  FileType type = FileType::kNone;
  uint16_t nlink = 0;
  uint64_t size = 0;
  uint64_t mtime = 0;
  BlockNo direct[kNumDirect] = {};
  BlockNo single_indirect = kNilBlock;
  BlockNo double_indirect = kNilBlock;

  void EncodeTo(std::span<uint8_t> slot) const;
  static Result<FfsInode> DecodeFrom(std::span<const uint8_t> slot);
};

}  // namespace lfs::ffs

#endif  // LFS_FFS_FFS_LAYOUT_H_
