// MemDisk: flat in-memory block store. This is the "platter"; timing and
// fault behaviour are layered on top by SimDisk / CrashDisk wrappers.

#ifndef LFS_DISK_MEM_DISK_H_
#define LFS_DISK_MEM_DISK_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/disk/block_device.h"

namespace lfs {

// Thread safety: Read/Write serialize on an internal mutex so concurrent
// front-end threads (and the background cleaner) can share one platter.
// raw() stays unsynchronized — it is for quiesced test inspection only.
class MemDisk : public BlockDevice {
 public:
  MemDisk(uint32_t block_size, uint64_t block_count)
      : block_size_(block_size), block_count_(block_count), data_(block_size * block_count, 0) {}

  uint32_t block_size() const override { return block_size_; }
  uint64_t block_count() const override { return block_count_; }

  Status Read(BlockNo block, uint64_t count, std::span<uint8_t> out) override;
  Status Write(BlockNo block, uint64_t count, std::span<const uint8_t> data) override {
    return WriteV(block, count, {&data, 1});
  }
  Status WriteV(BlockNo block, uint64_t count, WriteParts parts) override;
  Status Flush() override { return OkStatus(); }

  // Test/fault-injection access to raw contents.
  std::span<uint8_t> raw() { return data_; }
  std::span<const uint8_t> raw() const { return data_; }

 private:
  std::mutex mu_;
  uint32_t block_size_;
  uint64_t block_count_;
  std::vector<uint8_t> data_;
};

}  // namespace lfs

#endif  // LFS_DISK_MEM_DISK_H_
