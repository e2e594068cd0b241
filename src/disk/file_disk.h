// FileDisk: a BlockDevice backed by a file on the host filesystem, so the
// example programs can keep a persistent LFS image across runs. Not used by
// benchmarks (they need the deterministic timing model over MemDisk).
//
// Reads and writes are pread/pwrite on one file descriptor: they carry their
// own offsets, so concurrent calls cannot interleave, and a write reaches the
// kernel before it returns (no user-space buffer). Flush is fdatasync.

#ifndef LFS_DISK_FILE_DISK_H_
#define LFS_DISK_FILE_DISK_H_

#include <memory>
#include <string>

#include "src/disk/block_device.h"
#include "src/util/result.h"

namespace lfs {

class FileDisk : public BlockDevice {
 public:
  // Opens (or creates, zero-filled) an image of exactly
  // block_count * block_size bytes.
  static Result<std::unique_ptr<FileDisk>> Open(const std::string& path, uint32_t block_size,
                                                uint64_t block_count);
  // Opens an existing image for reading only: never creates, writes or
  // resizes the file. The device spans the file's whole blocks.
  static Result<std::unique_ptr<FileDisk>> OpenReadOnly(const std::string& path,
                                                        uint32_t block_size);
  ~FileDisk() override;
  FileDisk(const FileDisk&) = delete;
  FileDisk& operator=(const FileDisk&) = delete;

  uint32_t block_size() const override { return block_size_; }
  uint64_t block_count() const override { return block_count_; }

  Status Read(BlockNo block, uint64_t count, std::span<uint8_t> out) override;
  Status Write(BlockNo block, uint64_t count, std::span<const uint8_t> data) override;
  Status Flush() override;

 private:
  FileDisk(int fd, uint32_t block_size, uint64_t block_count)
      : fd_(fd), block_size_(block_size), block_count_(block_count) {}

  int fd_;
  uint32_t block_size_;
  uint64_t block_count_;
};

}  // namespace lfs

#endif  // LFS_DISK_FILE_DISK_H_
