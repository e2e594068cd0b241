#include "src/disk/mem_disk.h"

#include <cstring>

namespace lfs {

Status MemDisk::Read(BlockNo block, uint64_t count, std::span<uint8_t> out) {
  LFS_RETURN_IF_ERROR(CheckRange(block, count, out.size()));
  std::lock_guard<std::mutex> lock(mu_);
  std::memcpy(out.data(), data_.data() + block * block_size_, out.size());
  return OkStatus();
}

Status MemDisk::WriteV(BlockNo block, uint64_t count, WriteParts parts) {
  LFS_RETURN_IF_ERROR(CheckRange(block, count, parts));
  std::lock_guard<std::mutex> lock(mu_);
  uint8_t* dst = data_.data() + block * block_size_;
  for (std::span<const uint8_t> part : parts) {
    std::memcpy(dst, part.data(), part.size());
    dst += part.size();
  }
  return OkStatus();
}

}  // namespace lfs
