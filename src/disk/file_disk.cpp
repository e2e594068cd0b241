#include "src/disk/file_disk.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace lfs {

Result<std::unique_ptr<FileDisk>> FileDisk::Open(const std::string& path, uint32_t block_size,
                                                 uint64_t block_count) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return IoError("cannot open image file '" + path + "'");
  }
  // Extend a fresh or truncated image to the requested size; the new bytes
  // read as zeros. An image larger than requested is fine: reads and writes
  // are bounds-checked against the requested size.
  const uint64_t want = block_count * uint64_t{block_size};
  struct stat st;
  bool sized = ::fstat(fd, &st) == 0 && (static_cast<uint64_t>(st.st_size) >= want ||
                                         ::ftruncate(fd, static_cast<off_t>(want)) == 0);
  if (!sized) {
    ::close(fd);
    return IoError("cannot size image file '" + path + "'");
  }
  return std::unique_ptr<FileDisk>(new FileDisk(fd, block_size, block_count));
}

Result<std::unique_ptr<FileDisk>> FileDisk::OpenReadOnly(const std::string& path,
                                                         uint32_t block_size) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st;
  if (fd < 0 || ::fstat(fd, &st) != 0) {
    if (fd >= 0) {
      ::close(fd);
    }
    return IoError("cannot open image file '" + path + "'");
  }
  return std::unique_ptr<FileDisk>(
      new FileDisk(fd, block_size, static_cast<uint64_t>(st.st_size) / block_size));
}

FileDisk::~FileDisk() { ::close(fd_); }

Status FileDisk::Read(BlockNo block, uint64_t count, std::span<uint8_t> out) {
  LFS_RETURN_IF_ERROR(CheckRange(block, count, out.size()));
  for (size_t done = 0; done < out.size();) {
    ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                        static_cast<off_t>(block * block_size_ + done));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return IoError("short read from image file");
    }
    done += static_cast<size_t>(n);
  }
  return OkStatus();
}

Status FileDisk::Write(BlockNo block, uint64_t count, std::span<const uint8_t> data) {
  LFS_RETURN_IF_ERROR(CheckRange(block, count, data.size()));
  for (size_t done = 0; done < data.size();) {
    ssize_t n = ::pwrite(fd_, data.data() + done, data.size() - done,
                         static_cast<off_t>(block * block_size_ + done));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return IoError("short write to image file");
    }
    done += static_cast<size_t>(n);
  }
  return OkStatus();
}

Status FileDisk::Flush() {
  if (::fdatasync(fd_) != 0) {
    return IoError("fdatasync failed on image file");
  }
  return OkStatus();
}

}  // namespace lfs
