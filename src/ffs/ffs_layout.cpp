#include "src/ffs/ffs_layout.h"

#include "src/util/codec.h"
#include "src/util/crc32.h"

namespace lfs::ffs {

void FfsSuperblock::EncodeTo(std::span<uint8_t> block) const {
  Encoder enc(block);
  enc.PutU32(kFfsMagic);
  enc.PutU32(block_size);
  enc.PutU64(total_blocks);
  enc.PutU32(ngroups);
  enc.PutU32(blocks_per_group);
  enc.PutU32(inodes_per_group);
  enc.PutU32(inode_table_blocks);
  enc.PutU32(data_start);
  enc.PutU32(Crc32(enc.written()));
  enc.ZeroRest();
}

Result<FfsSuperblock> FfsSuperblock::DecodeFrom(std::span<const uint8_t> block) {
  Decoder dec(block);
  if (dec.GetU32() != kFfsMagic) {
    return CorruptionError("ffs superblock: bad magic");
  }
  FfsSuperblock sb;
  sb.block_size = dec.GetU32();
  sb.total_blocks = dec.GetU64();
  sb.ngroups = dec.GetU32();
  sb.blocks_per_group = dec.GetU32();
  sb.inodes_per_group = dec.GetU32();
  sb.inode_table_blocks = dec.GetU32();
  sb.data_start = dec.GetU32();
  uint32_t crc = dec.GetU32();
  if (!dec.ok() || crc != Crc32(block.subspan(0, dec.pos() - 4))) {
    return CorruptionError("ffs superblock: bad CRC");
  }
  return sb;
}

Result<FfsSuperblock> FfsSuperblock::Compute(uint32_t block_size, uint64_t total_blocks) {
  if (block_size < 512 || (block_size & (block_size - 1)) != 0) {
    return InvalidArgumentError("block_size must be a power of two >= 512");
  }
  FfsSuperblock sb;
  sb.block_size = block_size;
  sb.total_blocks = total_blocks;
  // Groups of ~2K blocks (8 MB at 4-KB blocks), like FFS cylinder groups.
  sb.blocks_per_group = 2048;
  if (total_blocks < sb.blocks_per_group + 1) {
    sb.blocks_per_group = static_cast<uint32_t>(total_blocks > 64 ? total_blocks - 1 : 0);
  }
  if (sb.blocks_per_group < 64) {
    return InvalidArgumentError("device too small for an FFS layout");
  }
  sb.ngroups = static_cast<uint32_t>((total_blocks - 1) / sb.blocks_per_group);
  if (sb.ngroups == 0) {
    return InvalidArgumentError("device too small: no complete block group fits");
  }
  // One inode per 4 data blocks, a classic FFS density.
  uint32_t ipb = block_size / kFfsInodeSize;
  sb.inodes_per_group = (sb.blocks_per_group / 4 + ipb - 1) / ipb * ipb;
  sb.inode_table_blocks = sb.inodes_per_group / ipb;
  sb.data_start = 2 + sb.inode_table_blocks;
  if (sb.data_start >= sb.blocks_per_group) {
    return InvalidArgumentError("block group too small for its inode table");
  }
  return sb;
}

void FfsInode::EncodeTo(std::span<uint8_t> slot) const {
  Encoder enc(slot);
  enc.PutU32(ino);
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutU16(nlink);
  enc.PutU64(size);
  enc.PutU64(mtime);
  for (BlockNo b : direct) {
    enc.PutU64(b);
  }
  enc.PutU64(single_indirect);
  enc.PutU64(double_indirect);
  enc.ZeroRest();
}

Result<FfsInode> FfsInode::DecodeFrom(std::span<const uint8_t> slot) {
  Decoder dec(slot);
  FfsInode ino;
  ino.ino = dec.GetU32();
  ino.type = static_cast<FileType>(dec.GetU8());
  ino.nlink = dec.GetU16();
  ino.size = dec.GetU64();
  ino.mtime = dec.GetU64();
  for (auto& b : ino.direct) {
    b = dec.GetU64();
  }
  ino.single_indirect = dec.GetU64();
  ino.double_indirect = dec.GetU64();
  if (!dec.ok()) {
    return CorruptionError("ffs inode: truncated");
  }
  return ino;
}

}  // namespace lfs::ffs
