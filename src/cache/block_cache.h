// BlockCache: a sharded, write-back block cache.
//
// The paper's premise (Section 1) is that growing main memories absorb an
// ever larger share of reads, leaving disks dominated by writes — which is
// what motivates a log layout in the first place. This cache is that main
// memory. Interposed between a filesystem and its BlockDevice (see
// CachedBlockDevice), it serves re-reads from DRAM frames, absorbs
// overwrites, and emits dirty frames back to the device in sorted,
// run-coalesced batches. LfsFileSystem keeps another, of clean log blocks
// only, in front of its own device reads.
//
// Structure: capacity is divided across N shards (N rounded down to a power
// of two; block number hashed to a shard); each shard owns a mutex, an
// address->frame hash map, an LRU list and its counters. All operations on
// one block touch exactly one shard, so disjoint traffic scales with the
// shard count while a single mutex acquisition bounds every path.
//
// Tags: every frame carries the tag it was admitted under, and Get() hits
// only under the same tag; a frame found under another tag is dropped. LFS
// tags a block with its segment's write sequence number, which changes
// whenever the segment is recycled, so stale frames need no invalidation
// hooks. CachedBlockDevice uses the default tag 0.
//
// Eviction: least-recently-used frame of the full shard. A dirty victim is
// written back through the writeback callback while the shard lock is held
// — the lock makes writeback-then-drop atomic, so a concurrent reader can
// never observe the device without the frame's latest contents (the reader
// either still hits the frame or misses after the device has them). If
// every dirty victim's writeback fails, the shard overcommits rather than
// lose dirty data.
//
// Thread safety: every public method is safe to call concurrently. The
// writeback callback runs under a shard lock (FlushAll: under all shard
// locks) and must not re-enter the cache.

#ifndef LFS_CACHE_BLOCK_CACHE_H_
#define LFS_CACHE_BLOCK_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/disk/block_device.h"
#include "src/obs/trace.h"
#include "src/util/status.h"

namespace lfs::cache {

struct BlockCacheConfig {
  uint64_t capacity_blocks = 4096;  // total frames across all shards
  uint32_t shards = 8;              // clamped to [1, capacity_blocks], rounded down to 2^k
  uint32_t block_size = 4096;       // bytes per frame
};

// Counters, summed over the shards by BlockCache::stats().
struct BlockCacheStats {
  uint64_t hits = 0;              // Get served from a frame
  uint64_t misses = 0;            // Get found nothing (or a stale tag)
  uint64_t insertions = 0;        // new frames admitted
  uint64_t evictions = 0;         // frames dropped: LRU, stale tag or Invalidate
  uint64_t dirty_evictions = 0;   // evictions that required writeback
  uint64_t writebacks = 0;        // writeback callback invocations
  uint64_t writeback_blocks = 0;  // blocks pushed through the callback
};

class BlockCache {
 public:
  // Writes `count` blocks starting at `block` back to stable storage.
  // `data` holds count * block_size bytes. May be empty for a cache that
  // only ever holds clean frames.
  using WritebackFn =
      std::function<Status(BlockNo block, uint64_t count, std::span<const uint8_t> data)>;

  // `tracer` (optional) receives kCacheEvict/kCacheWriteback/kCacheFlush
  // events; pass the filesystem's trace buffer to interleave cache activity
  // with op events.
  BlockCache(const BlockCacheConfig& config, WritebackFn writeback,
             obs::TraceBuffer* tracer = nullptr);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Copies the cached contents of `block` into `out` (block_size bytes) and
  // marks the frame most-recently-used. Returns false on miss; a frame
  // admitted under a different tag is dropped and misses.
  bool Get(BlockNo block, std::span<uint8_t> out, uint64_t tag = 0);

  // Admits a clean frame for a block just read from the device. If the block
  // is already resident (a racing fill or a dirty frame), the existing frame
  // wins — a read fill must never clobber newer dirty contents. A resident
  // frame under another tag also stays; the next Get under the new tag
  // drops it.
  void PutClean(BlockNo block, std::span<const uint8_t> data, uint64_t tag = 0);

  // Inserts or overwrites the frame and marks it dirty. The contents reach
  // the device on eviction or FlushAll.
  void PutDirty(BlockNo block, std::span<const uint8_t> data);

  bool Contains(BlockNo block) const;
  bool IsDirty(BlockNo block) const;

  // Charges `n` extra misses to the hit-rate accounting (to `block`'s
  // shard). CachedBlockDevice probes run extensions with Contains() (which
  // is stat-silent) rather than Get(), then reports the whole fetched run
  // here so hits and misses stay per-block commensurable.
  void NoteMisses(BlockNo block, uint64_t n);

  // Writes back every dirty frame, coalescing consecutively addressed blocks
  // into single writeback calls (sorted by address), and marks them clean.
  // Frames stay resident. Takes every shard lock for the duration.
  Status FlushAll();

  // Discards the frames of [block, block + count) without writeback — the
  // caller has declared the contents dead (TRIM path), so even dirty frames
  // are dropped rather than flushed.
  void Invalidate(BlockNo block, uint64_t count);

  BlockCacheStats stats() const;
  uint64_t capacity_blocks() const { return capacity_; }
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  uint64_t size() const;             // resident frames, all shards
  uint64_t dirty_count() const;      // resident dirty frames, all shards
  uint64_t shard_size(uint32_t shard) const;
  uint32_t ShardOf(BlockNo block) const;

 private:
  struct Frame {
    std::vector<uint8_t> data;
    bool dirty = false;
    uint64_t tag = 0;
    std::list<BlockNo>::iterator lru_it;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<BlockNo, Frame> frames;
    std::list<BlockNo> lru;  // front = most recently used
    BlockCacheStats stats;
  };
  using FrameIt = std::unordered_map<BlockNo, Frame>::iterator;

  // All helpers run with shard.mu held by the caller. Eviction is
  // best-effort: a victim whose writeback fails is kept (the next flush
  // retries) and the shard overcommits instead of losing dirty data.
  void Touch(Shard& shard, Frame& frame);
  void Drop(Shard& shard, FrameIt it);
  // Returns the buffer of the last frame it evicted (empty if none), for
  // the caller's new frame to reuse.
  std::vector<uint8_t> EvictIfFull(Shard& shard);
  void Insert(Shard& shard, BlockNo block, std::span<const uint8_t> data, bool dirty,
              uint64_t tag);

  uint64_t capacity_;
  uint64_t shard_capacity_;
  uint32_t shard_mask_;  // shard count - 1
  uint32_t block_size_;
  WritebackFn writeback_;
  obs::TraceBuffer* tracer_;
  std::vector<Shard> shards_;
};

}  // namespace lfs::cache

#endif  // LFS_CACHE_BLOCK_CACHE_H_
