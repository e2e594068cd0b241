#include "src/disk/block_device.h"

#include <string>
#include <vector>

namespace lfs {

Status BlockDevice::CheckRange(BlockNo block, uint64_t count, size_t span_bytes) const {
  if (count == 0) {
    return InvalidArgumentError("zero-length I/O");
  }
  if (block >= block_count() || count > block_count() - block) {
    return OutOfRangeError("I/O beyond device: block " + std::to_string(block) + " count " +
                           std::to_string(count) + " of " + std::to_string(block_count()));
  }
  if (span_bytes != count * block_size()) {
    return InvalidArgumentError("buffer size " + std::to_string(span_bytes) +
                                " != count*block_size " + std::to_string(count * block_size()));
  }
  return OkStatus();
}

Status BlockDevice::CheckRange(BlockNo block, uint64_t count, WriteParts parts) const {
  size_t bytes = 0;
  for (std::span<const uint8_t> part : parts) {
    if (part.size() % block_size() != 0) {
      return InvalidArgumentError("write part is not whole blocks");
    }
    bytes += part.size();
  }
  return CheckRange(block, count, bytes);
}

Status BlockDevice::WriteV(BlockNo block, uint64_t count, WriteParts parts) {
  if (parts.size() == 1) {
    return Write(block, count, parts[0]);
  }
  std::vector<uint8_t> gathered;
  for (std::span<const uint8_t> part : parts) {
    gathered.insert(gathered.end(), part.begin(), part.end());
  }
  return Write(block, count, gathered);
}

}  // namespace lfs
