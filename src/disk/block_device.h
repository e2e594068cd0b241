// BlockDevice: the storage abstraction every filesystem in this repository
// sits on. Fixed-size blocks, addressed by 64-bit block number.
//
// Implementations:
//   MemDisk    - flat in-memory store (the "platter")
//   SimDisk    - wraps another device with a disk timing model + I/O stats
//   CrashDisk  - wraps another device with crash/torn-write fault injection

#ifndef LFS_DISK_BLOCK_DEVICE_H_
#define LFS_DISK_BLOCK_DEVICE_H_

#include <cstdint>
#include <span>

#include "src/obs/modeled_time.h"
#include "src/util/status.h"

namespace lfs {

// Block numbers are absolute device addresses. kNilBlock (0) is never a valid
// target for file data in either filesystem (block 0 holds a superblock), so
// it doubles as the "no block / hole" sentinel in index structures.
using BlockNo = uint64_t;
inline constexpr BlockNo kNilBlock = 0;

// The pieces of one gather write, in device order. Each piece is a whole
// number of blocks.
using WriteParts = std::span<const std::span<const uint8_t>>;

// Every device doubles as a ModeledTimeSource: SimDisk reports its
// accumulated service time (the deterministic clock behind the obs layer's
// latency histograms); wrappers forward to their backing; raw stores stay at
// the default 0.
class BlockDevice : public obs::ModeledTimeSource {
 public:
  ~BlockDevice() override = default;

  virtual uint32_t block_size() const = 0;
  virtual uint64_t block_count() const = 0;

  // Reads/writes `count` consecutive blocks starting at `block`. The span
  // must be exactly count * block_size() bytes. Multi-block calls represent
  // one sequential I/O to the timing model (one seek, streaming transfer) —
  // the LFS issues whole partial-segment writes through a single call.
  virtual Status Read(BlockNo block, uint64_t count, std::span<uint8_t> out) = 0;
  virtual Status Write(BlockNo block, uint64_t count, std::span<const uint8_t> data) = 0;

  // Writes `count` consecutive blocks from `block` on, gathered from
  // `parts`: one request, exactly like a Write of the concatenated parts
  // (the LFS issues each partial-segment write as its summary block plus
  // one part per payload block). The default issues one Write, of the one
  // part as it is or of the parts copied into one buffer; MemDisk, SimDisk
  // and CachedBlockDevice write the parts where they lie.
  virtual Status WriteV(BlockNo block, uint64_t count, WriteParts parts);

  // Ensures previously written data is durable. MemDisk is a no-op; fault-
  // injection devices use this as a barrier marker.
  virtual Status Flush() = 0;

  // TRIM/discard: declares `count` consecutive blocks starting at `block`
  // dead — the filesystem no longer cares about their contents. Devices that
  // can exploit the hint (SsdDisk invalidates the mapped flash pages, caches
  // drop the frames) do so; everything else validates the range and ignores
  // it. After a Trim the contents of the range are unspecified: a device may
  // preserve them (MemDisk) or return zeros (SsdDisk). Never an error to
  // trim blocks that were never written.
  virtual Status Trim(BlockNo block, uint64_t count) {
    return CheckRange(block, count, count * block_size());
  }

  // Convenience single-block forms.
  Status ReadBlock(BlockNo block, std::span<uint8_t> out) { return Read(block, 1, out); }
  Status WriteBlock(BlockNo block, std::span<const uint8_t> data) {
    return Write(block, 1, data);
  }

  uint64_t size_bytes() const { return block_count() * block_size(); }

 protected:
  // Validates a request against the device geometry.
  Status CheckRange(BlockNo block, uint64_t count, size_t span_bytes) const;
  // The same for a gather write; also checks that every part is whole blocks.
  Status CheckRange(BlockNo block, uint64_t count, WriteParts parts) const;
};

}  // namespace lfs

#endif  // LFS_DISK_BLOCK_DEVICE_H_
