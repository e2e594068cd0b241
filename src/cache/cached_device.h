// CachedBlockDevice: a BlockDevice that interposes a BlockCache between a
// filesystem (LFS or FFS) and the real device — the repository's stand-in
// for the large main-memory file cache the paper assumes (Section 1).
//
// Reads are served per-block from the cache; the uncached stretches of a
// multi-block request are fetched with run-granular reads of the inner
// device and admitted as clean frames, so a re-read-heavy workload touches
// the modeled disk only on first access. Writes are write-back: blocks
// become dirty frames and reach the inner device on eviction or Flush(),
// coalesced into sorted sequential runs.
//
// ModeledTime() forwards to the inner device, so cache hits cost zero
// modeled disk time — exactly the paper's "reads that hit in the cache are
// free; the disk sees the writes" premise.
//
// Thread safety: all methods are safe to call concurrently (the cache
// shards its locks; the inner device must itself be thread-safe, which
// MemDisk/SimDisk are).

#ifndef LFS_CACHE_CACHED_DEVICE_H_
#define LFS_CACHE_CACHED_DEVICE_H_

#include <cstdint>
#include <span>

#include "src/cache/block_cache.h"
#include "src/disk/block_device.h"

namespace lfs::cache {

struct CachedDeviceOptions {
  uint64_t capacity_blocks = 4096;
  uint32_t shards = 8;
};

class CachedBlockDevice : public BlockDevice {
 public:
  // `inner` must outlive this device.
  CachedBlockDevice(BlockDevice* inner, const CachedDeviceOptions& options,
                    obs::TraceBuffer* tracer = nullptr);

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  double ModeledTime() const override { return inner_->ModeledTime(); }

  Status Read(BlockNo block, uint64_t count, std::span<uint8_t> out) override;
  Status Write(BlockNo block, uint64_t count, std::span<const uint8_t> data) override {
    return WriteV(block, count, {&data, 1});
  }
  Status WriteV(BlockNo block, uint64_t count, WriteParts parts) override;

  // Writes back all dirty frames (sorted, run-coalesced), then flushes the
  // inner device.
  Status Flush() override;

  // Drops the range's frames (even dirty ones — the contents are declared
  // dead, writing them back would resurrect them) and forwards the trim.
  Status Trim(BlockNo block, uint64_t count) override;

  BlockCache& cache() { return cache_; }
  const BlockCache& cache() const { return cache_; }
  BlockDevice* inner() { return inner_; }

 private:
  BlockDevice* inner_;
  BlockCache cache_;
};

}  // namespace lfs::cache

#endif  // LFS_CACHE_CACHED_DEVICE_H_
