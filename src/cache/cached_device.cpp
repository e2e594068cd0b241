#include "src/cache/cached_device.h"

#include <vector>

namespace lfs::cache {

namespace {

BlockCacheConfig CacheConfigFor(BlockDevice* inner, const CachedDeviceOptions& options) {
  BlockCacheConfig cfg;
  cfg.capacity_blocks = options.capacity_blocks;
  cfg.shards = options.shards;
  cfg.block_size = inner->block_size();
  return cfg;
}

}  // namespace

CachedBlockDevice::CachedBlockDevice(BlockDevice* inner, const CachedDeviceOptions& options,
                                     obs::TraceBuffer* tracer)
    : inner_(inner),
      cache_(CacheConfigFor(inner, options),
             [inner](BlockNo block, uint64_t count, std::span<const uint8_t> data) {
               return inner->Write(block, count, data);
             },
             tracer) {}

Status CachedBlockDevice::Read(BlockNo block, uint64_t count, std::span<uint8_t> out) {
  LFS_RETURN_IF_ERROR(CheckRange(block, count, out.size()));
  const uint32_t bs = block_size();
  // Serve hits per block; fetch each maximal run of misses with one inner
  // read (the inner device charges one seek + streaming transfer per run).
  uint64_t i = 0;
  while (i < count) {
    std::span<uint8_t> slot = out.subspan(i * bs, bs);
    if (cache_.Get(block + i, slot)) {
      i++;
      continue;
    }
    uint64_t run_end = i + 1;
    // A block might be admitted by a racing reader between our miss and the
    // inner read; that is harmless — PutClean keeps the resident frame.
    while (run_end < count && !cache_.Contains(block + run_end)) {
      run_end++;
    }
    std::span<uint8_t> run = out.subspan(i * bs, (run_end - i) * bs);
    cache_.NoteMisses(block + i, run_end - i - 1);  // Get already counted the run head
    LFS_RETURN_IF_ERROR(inner_->Read(block + i, run_end - i, run));
    for (uint64_t k = i; k < run_end; k++) {
      cache_.PutClean(block + k, out.subspan(k * bs, bs));
    }
    i = run_end;
  }
  return OkStatus();
}

Status CachedBlockDevice::WriteV(BlockNo block, uint64_t count, WriteParts parts) {
  LFS_RETURN_IF_ERROR(CheckRange(block, count, parts));
  const uint32_t bs = block_size();
  for (std::span<const uint8_t> part : parts) {
    for (size_t off = 0; off < part.size(); off += bs) {
      cache_.PutDirty(block++, part.subspan(off, bs));
    }
  }
  return OkStatus();
}

Status CachedBlockDevice::Flush() {
  LFS_RETURN_IF_ERROR(cache_.FlushAll());
  return inner_->Flush();
}

Status CachedBlockDevice::Trim(BlockNo block, uint64_t count) {
  LFS_RETURN_IF_ERROR(CheckRange(block, count, count * block_size()));
  cache_.Invalidate(block, count);
  return inner_->Trim(block, count);
}

}  // namespace lfs::cache
