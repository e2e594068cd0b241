#include "src/cache/block_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace lfs::cache {

namespace {

// Mixes the block number before taking the shard index so sequential log
// addresses spread across shards instead of marching through one at a time
// (splitmix64 finalizer — fast, and uniform enough for a shard pick).
uint64_t MixBlock(BlockNo block) {
  uint64_t x = block + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

BlockCache::BlockCache(const BlockCacheConfig& config, WritebackFn writeback,
                       obs::TraceBuffer* tracer)
    : capacity_(std::max<uint64_t>(1, config.capacity_blocks)),
      block_size_(config.block_size),
      writeback_(std::move(writeback)),
      tracer_(tracer) {
  uint32_t shards = std::max<uint32_t>(1, config.shards);
  shards = std::bit_floor(static_cast<uint32_t>(std::min<uint64_t>(shards, capacity_)));
  shards_ = std::vector<Shard>(shards);
  shard_mask_ = shards - 1;
  shard_capacity_ = (capacity_ + shards - 1) / shards;
}

BlockCache::~BlockCache() = default;

uint32_t BlockCache::ShardOf(BlockNo block) const {
  return static_cast<uint32_t>(MixBlock(block)) & shard_mask_;
}

void BlockCache::Touch(Shard& shard, Frame& frame) {
  shard.lru.splice(shard.lru.begin(), shard.lru, frame.lru_it);
}

void BlockCache::Drop(Shard& shard, FrameIt it) {
  shard.lru.erase(it->second.lru_it);
  shard.frames.erase(it);
  shard.stats.evictions++;
}

bool BlockCache::Get(BlockNo block, std::span<uint8_t> out, uint64_t tag) {
  Shard& shard = shards_[ShardOf(block)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(block);
  if (it == shard.frames.end() || it->second.tag != tag) {
    if (it != shard.frames.end()) {
      Drop(shard, it);
    }
    shard.stats.misses++;
    return false;
  }
  Frame& frame = it->second;
  std::memcpy(out.data(), frame.data.data(),
              std::min<size_t>(out.size(), frame.data.size()));
  Touch(shard, frame);
  shard.stats.hits++;
  return true;
}

std::vector<uint8_t> BlockCache::EvictIfFull(Shard& shard) {
  std::vector<uint8_t> spare;
  while (shard.frames.size() >= shard_capacity_) {
    // LRU-first scan for a victim whose contents are safe to drop.
    auto victim = shard.frames.end();
    for (auto rit = shard.lru.rbegin(); rit != shard.lru.rend(); ++rit) {
      auto it = shard.frames.find(*rit);
      if (it->second.dirty) {
        // Writeback-then-drop is atomic under the shard lock: no reader
        // can fetch the block from the device in the window where the
        // device copy is stale.
        if (!writeback_(*rit, 1, it->second.data).ok()) {
          continue;  // keep the dirty frame; try the next victim
        }
        shard.stats.dirty_evictions++;
        shard.stats.writebacks++;
        shard.stats.writeback_blocks++;
        LFS_TRACE(tracer_, obs::TraceEventType::kCacheWriteback, obs::OpType::kNone,
                  0, *rit, 1, 0.0);
      }
      victim = it;
      break;
    }
    if (victim == shard.frames.end()) {
      return spare;  // every writeback failed: overcommit
    }
    LFS_TRACE(tracer_, obs::TraceEventType::kCacheEvict, obs::OpType::kNone, 0,
              victim->first, victim->second.dirty ? 1 : 0, 0.0);
    spare = std::move(victim->second.data);
    Drop(shard, victim);
  }
  return spare;
}

void BlockCache::Insert(Shard& shard, BlockNo block, std::span<const uint8_t> data,
                        bool dirty, uint64_t tag) {
  Frame frame;
  frame.data = EvictIfFull(shard);  // the evicted frame's buffer, if any
  shard.lru.push_front(block);
  frame.data.assign(data.begin(), data.end());
  frame.data.resize(block_size_, 0);
  frame.dirty = dirty;
  frame.tag = tag;
  frame.lru_it = shard.lru.begin();
  shard.frames.emplace(block, std::move(frame));
  shard.stats.insertions++;
}

void BlockCache::PutClean(BlockNo block, std::span<const uint8_t> data, uint64_t tag) {
  Shard& shard = shards_[ShardOf(block)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(block);
  if (it != shard.frames.end()) {
    // Resident already (racing fill or newer dirty contents): keep it.
    Touch(shard, it->second);
    return;
  }
  Insert(shard, block, data, /*dirty=*/false, tag);
}

void BlockCache::PutDirty(BlockNo block, std::span<const uint8_t> data) {
  Shard& shard = shards_[ShardOf(block)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(block);
  if (it != shard.frames.end()) {
    Frame& frame = it->second;
    frame.data.assign(data.begin(), data.end());
    frame.data.resize(block_size_, 0);
    frame.dirty = true;
    Touch(shard, frame);
    return;
  }
  Insert(shard, block, data, /*dirty=*/true, /*tag=*/0);
}

bool BlockCache::Contains(BlockNo block) const {
  const Shard& shard = shards_[ShardOf(block)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.frames.count(block) > 0;
}

bool BlockCache::IsDirty(BlockNo block) const {
  const Shard& shard = shards_[ShardOf(block)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(block);
  return it != shard.frames.end() && it->second.dirty;
}

void BlockCache::NoteMisses(BlockNo block, uint64_t n) {
  Shard& shard = shards_[ShardOf(block)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.stats.misses += n;
}

Status BlockCache::FlushAll() {
  // Lock every shard in index order (a total order, so FlushAll never
  // deadlocks with itself) and hold them all: the flush must be a point-in-
  // time barrier — no new dirty frame can slip between collection and the
  // clean-bit reset.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (Shard& shard : shards_) {
    locks.emplace_back(shard.mu);
  }

  std::vector<BlockNo> dirty;
  for (Shard& shard : shards_) {
    for (auto& [block, frame] : shard.frames) {
      if (frame.dirty) {
        dirty.push_back(block);
      }
    }
  }
  std::sort(dirty.begin(), dirty.end());

  Status result = OkStatus();
  size_t total_frames = 0;
  for (const Shard& shard : shards_) {
    total_frames += shard.frames.size();
  }

  // Coalesce consecutively addressed dirty blocks into single writebacks —
  // the log-structured write pattern makes most flushes a handful of long
  // sequential runs.
  std::vector<uint8_t> run;
  size_t i = 0;
  while (i < dirty.size()) {
    size_t j = i + 1;
    while (j < dirty.size() && dirty[j] == dirty[j - 1] + 1) {
      j++;
    }
    uint64_t count = j - i;
    run.clear();
    run.reserve(count * block_size_);
    for (size_t k = i; k < j; k++) {
      Frame& f = shards_[ShardOf(dirty[k])].frames.at(dirty[k]);
      run.insert(run.end(), f.data.begin(), f.data.end());
    }
    Status st = writeback_(dirty[i], count, run);
    if (st.ok()) {
      for (size_t k = i; k < j; k++) {
        shards_[ShardOf(dirty[k])].frames.at(dirty[k]).dirty = false;
      }
      BlockCacheStats& stats = shards_[ShardOf(dirty[i])].stats;
      stats.writebacks++;
      stats.writeback_blocks += count;
      LFS_TRACE(tracer_, obs::TraceEventType::kCacheWriteback, obs::OpType::kNone,
                0, dirty[i], count, 0.0);
    } else if (result.ok()) {
      result = st;  // keep flushing the rest; report the first failure
    }
    i = j;
  }
  LFS_TRACE(tracer_, obs::TraceEventType::kCacheFlush, obs::OpType::kNone, 0,
            dirty.size(), total_frames, 0.0);
  return result;
}

void BlockCache::Invalidate(BlockNo block, uint64_t count) {
  for (uint64_t i = 0; i < count; i++) {
    Shard& shard = shards_[ShardOf(block + i)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.frames.find(block + i);
    if (it != shard.frames.end()) {
      Drop(shard, it);
    }
  }
}

BlockCacheStats BlockCache::stats() const {
  BlockCacheStats sum;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    const BlockCacheStats& s = shard.stats;
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.insertions += s.insertions;
    sum.evictions += s.evictions;
    sum.dirty_evictions += s.dirty_evictions;
    sum.writebacks += s.writebacks;
    sum.writeback_blocks += s.writeback_blocks;
  }
  return sum;
}

uint64_t BlockCache::size() const {
  uint64_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.frames.size();
  }
  return n;
}

uint64_t BlockCache::dirty_count() const {
  uint64_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [block, frame] : shard.frames) {
      n += frame.dirty ? 1 : 0;
    }
  }
  return n;
}

uint64_t BlockCache::shard_size(uint32_t shard) const {
  const Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.frames.size();
}

}  // namespace lfs::cache
