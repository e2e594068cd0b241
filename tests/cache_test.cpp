// BlockCache / CachedBlockDevice unit tests: LRU eviction order, dirty
// write-back ordering and coalescing, tagged lookups, shard distribution,
// and the device wrapper's run-granular miss handling.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/block_cache.h"
#include "src/cache/cached_device.h"
#include "src/disk/mem_disk.h"
#include "src/disk/sim_disk.h"
#include "tests/test_util.h"

namespace lfs::cache {
namespace {

constexpr uint32_t kBs = 512;

std::vector<uint8_t> Fill(uint8_t byte) { return std::vector<uint8_t>(kBs, byte); }

// A writeback sink that records every callback invocation. Mutex-guarded:
// different shards may write back concurrently (a real target device has its
// own lock, so the cache does not serialize the callback across shards).
struct Sink {
  struct Call {
    BlockNo block;
    uint64_t count;
    std::vector<uint8_t> data;
  };
  std::mutex mu;
  std::vector<Call> calls;
  Status fail_with = OkStatus();

  BlockCache::WritebackFn fn() {
    return [this](BlockNo block, uint64_t count, std::span<const uint8_t> data) {
      std::lock_guard<std::mutex> lock(mu);
      if (!fail_with.ok()) {
        return fail_with;
      }
      calls.push_back({block, count, std::vector<uint8_t>(data.begin(), data.end())});
      return OkStatus();
    };
  }
};

BlockCacheConfig Config(uint64_t capacity, uint32_t shards) {
  BlockCacheConfig cfg;
  cfg.capacity_blocks = capacity;
  cfg.shards = shards;
  cfg.block_size = kBs;
  return cfg;
}

TEST(BlockCacheTest, GetMissThenHitAfterPutClean) {
  Sink sink;
  BlockCache cache(Config(8, 1), sink.fn());
  std::vector<uint8_t> out(kBs);
  EXPECT_FALSE(cache.Get(7, out));
  cache.PutClean(7, Fill(0xAB));
  ASSERT_TRUE(cache.Get(7, out));
  EXPECT_EQ(out, Fill(0xAB));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsedFirst) {
  Sink sink;
  BlockCache cache(Config(3, 1), sink.fn());
  cache.PutClean(1, Fill(1));
  cache.PutClean(2, Fill(2));
  cache.PutClean(3, Fill(3));
  // Touch 1 so 2 becomes the LRU victim.
  std::vector<uint8_t> out(kBs);
  ASSERT_TRUE(cache.Get(1, out));
  cache.PutClean(4, Fill(4));  // forces one eviction
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(sink.calls.empty());  // clean victim: no writeback
}

TEST(BlockCacheTest, DirtyVictimIsWrittenBackBeforeEviction) {
  Sink sink;
  BlockCache cache(Config(2, 1), sink.fn());
  cache.PutDirty(10, Fill(0x10));
  cache.PutClean(11, Fill(0x11));
  cache.PutClean(12, Fill(0x12));  // evicts 10 (LRU), which is dirty
  ASSERT_EQ(sink.calls.size(), 1u);
  EXPECT_EQ(sink.calls[0].block, 10u);
  EXPECT_EQ(sink.calls[0].count, 1u);
  EXPECT_EQ(sink.calls[0].data, Fill(0x10));
  EXPECT_EQ(cache.stats().dirty_evictions, 1u);
  EXPECT_FALSE(cache.Contains(10));
}

TEST(BlockCacheTest, PutCleanNeverClobbersDirtyFrame) {
  Sink sink;
  BlockCache cache(Config(4, 1), sink.fn());
  cache.PutDirty(5, Fill(0xDD));
  // A racing read fill must not overwrite newer dirty contents.
  cache.PutClean(5, Fill(0xEE));
  std::vector<uint8_t> out(kBs);
  ASSERT_TRUE(cache.Get(5, out));
  EXPECT_EQ(out, Fill(0xDD));
  EXPECT_TRUE(cache.IsDirty(5));
}

TEST(BlockCacheTest, FrameMissesUnderAnotherTagAndIsDropped) {
  Sink sink;
  BlockCache cache(Config(8, 1), sink.fn());
  std::vector<uint8_t> out(kBs);
  cache.PutClean(7, Fill(0x70), /*tag=*/3);
  ASSERT_TRUE(cache.Get(7, out, 3));
  EXPECT_EQ(out, Fill(0x70));
  // The block's generation moved on: the old frame must not be served...
  EXPECT_FALSE(cache.Get(7, out, 4));
  // ...and is gone, not merely skipped: its old tag misses too.
  EXPECT_FALSE(cache.Contains(7));
  EXPECT_FALSE(cache.Get(7, out, 3));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // A fill under the new tag serves that tag.
  cache.PutClean(7, Fill(0x71), 4);
  ASSERT_TRUE(cache.Get(7, out, 4));
  EXPECT_EQ(out, Fill(0x71));
}

TEST(BlockCacheTest, FlushAllCoalescesSortedRuns) {
  Sink sink;
  BlockCache cache(Config(16, 4), sink.fn());
  // Dirty blocks 7,5,6 (one run once sorted) and 20 (its own run),
  // interleaved with clean blocks that must not be written back.
  cache.PutDirty(7, Fill(7));
  cache.PutClean(9, Fill(9));
  cache.PutDirty(5, Fill(5));
  cache.PutDirty(6, Fill(6));
  cache.PutDirty(20, Fill(20));
  ASSERT_OK(cache.FlushAll());
  ASSERT_EQ(sink.calls.size(), 2u);
  EXPECT_EQ(sink.calls[0].block, 5u);
  EXPECT_EQ(sink.calls[0].count, 3u);
  // Run payload is assembled in ascending block order.
  EXPECT_EQ(std::vector<uint8_t>(sink.calls[0].data.begin(),
                                 sink.calls[0].data.begin() + kBs),
            Fill(5));
  EXPECT_EQ(sink.calls[1].block, 20u);
  EXPECT_EQ(sink.calls[1].count, 1u);
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_EQ(cache.size(), 5u);  // frames stay resident, now clean
  // A second flush has nothing to do.
  ASSERT_OK(cache.FlushAll());
  EXPECT_EQ(sink.calls.size(), 2u);
}

TEST(BlockCacheTest, FlushAllKeepsDirtyBitsOnFailure) {
  Sink sink;
  BlockCache cache(Config(8, 1), sink.fn());
  cache.PutDirty(3, Fill(3));
  sink.fail_with = IoError("injected");
  EXPECT_FALSE(cache.FlushAll().ok());
  EXPECT_TRUE(cache.IsDirty(3));  // retried by the next flush
  sink.fail_with = OkStatus();
  ASSERT_OK(cache.FlushAll());
  EXPECT_FALSE(cache.IsDirty(3));
}

TEST(BlockCacheTest, ShardDistributionCoversAllShards) {
  Sink sink;
  BlockCache cache(Config(1024, 8), sink.fn());
  ASSERT_EQ(cache.shard_count(), 8u);
  for (BlockNo b = 0; b < 1024; b++) {
    cache.PutClean(b, Fill(static_cast<uint8_t>(b)));
  }
  // The splitmix64 shard hash should spread sequential block numbers across
  // every shard without pathological skew (no shard empty, none > 4x fair).
  uint64_t total = 0;
  for (uint32_t s = 0; s < cache.shard_count(); s++) {
    uint64_t n = cache.shard_size(s);
    EXPECT_GT(n, 0u) << "shard " << s << " empty";
    EXPECT_LT(n, 4u * 1024 / 8) << "shard " << s << " skewed";
    total += n;
  }
  EXPECT_EQ(total, cache.size());
}

TEST(BlockCacheTest, ConcurrentMixedTrafficKeepsFramesCoherent) {
  Sink sink;
  BlockCache cache(Config(64, 4), sink.fn());
  // Each block's contents are a function of its number, from every thread,
  // so any torn or crossed frame shows up as a content mismatch.
  constexpr int kThreads = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      std::vector<uint8_t> out(kBs);
      for (int i = 0; i < 4000; i++) {
        BlockNo b = static_cast<BlockNo>((i * 7 + t * 13) % 128);
        if (i % 3 == 0) {
          cache.PutDirty(b, Fill(static_cast<uint8_t>(b)));
        } else if (cache.Get(b, out)) {
          if (out != Fill(static_cast<uint8_t>(b))) {
            failed.store(true);
          }
        } else {
          cache.PutClean(b, Fill(static_cast<uint8_t>(b)));
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
  ASSERT_OK(cache.FlushAll());
  for (const auto& call : sink.calls) {
    for (uint64_t i = 0; i < call.count; i++) {
      EXPECT_EQ(call.data[i * kBs], static_cast<uint8_t>(call.block + i));
    }
  }
}

TEST(CachedDeviceTest, ReReadsAreServedFromCache) {
  MemDisk disk(kBs, 256);
  for (BlockNo b = 0; b < 256; b++) {
    std::vector<uint8_t> d = Fill(static_cast<uint8_t>(b));
    ASSERT_OK(disk.Write(b, 1, d));
  }
  // Count inner reads through a thin wrapper.
  struct CountingDisk : BlockDevice {
    explicit CountingDisk(BlockDevice* d) : d_(d) {}
    uint32_t block_size() const override { return d_->block_size(); }
    uint64_t block_count() const override { return d_->block_count(); }
    Status Read(BlockNo b, uint64_t n, std::span<uint8_t> out) override {
      reads++;
      read_blocks += n;
      return d_->Read(b, n, out);
    }
    Status Write(BlockNo b, uint64_t n, std::span<const uint8_t> data) override {
      return d_->Write(b, n, data);
    }
    Status Flush() override { return d_->Flush(); }
    BlockDevice* d_;
    uint64_t reads = 0;
    uint64_t read_blocks = 0;
  } counting(&disk);

  CachedDeviceOptions opts;
  opts.capacity_blocks = 256;
  CachedBlockDevice dev(&counting, opts);

  std::vector<uint8_t> out(64 * kBs);
  ASSERT_OK(dev.Read(0, 64, out));  // cold: one coalesced inner read
  EXPECT_EQ(counting.reads, 1u);
  EXPECT_EQ(counting.read_blocks, 64u);
  ASSERT_OK(dev.Read(0, 64, out));  // warm: zero inner reads
  EXPECT_EQ(counting.reads, 1u);
  for (BlockNo b = 0; b < 64; b++) {
    EXPECT_EQ(out[b * kBs], static_cast<uint8_t>(b));
  }
  // A partially cached range only fetches the gaps.
  ASSERT_OK(dev.Read(32, 64, out));  // 32..63 cached, 64..95 not
  EXPECT_EQ(counting.reads, 2u);
  EXPECT_EQ(counting.read_blocks, 96u);
  // Warm full re-read (64 hits) plus the cached half of the partial read
  // (32 hits); the cold read was all misses.
  EXPECT_EQ(dev.cache().stats().hits, 64u + 32u);
  EXPECT_EQ(dev.cache().stats().misses, 64u + 32u);
}

TEST(CachedDeviceTest, WriteBackReachesInnerOnFlush) {
  MemDisk disk(kBs, 64);
  CachedDeviceOptions opts;
  opts.capacity_blocks = 64;
  CachedBlockDevice dev(&disk, opts);
  std::vector<uint8_t> d = Fill(0x5A);
  ASSERT_OK(dev.Write(9, 1, d));
  // Write-back: the inner device does not have the data yet.
  std::vector<uint8_t> raw(kBs);
  ASSERT_OK(disk.Read(9, 1, raw));
  EXPECT_NE(raw, d);
  // But a read through the device sees it (from the dirty frame).
  std::vector<uint8_t> out(kBs);
  ASSERT_OK(dev.Read(9, 1, out));
  EXPECT_EQ(out, d);
  ASSERT_OK(dev.Flush());
  ASSERT_OK(disk.Read(9, 1, raw));
  EXPECT_EQ(raw, d);
}

TEST(CachedDeviceTest, WriteVEqualsConcatenatedWrite) {
  // Same frames, same write-back, same bytes and disk statistics below.
  const std::vector<uint8_t> a = Fill(0x11), b = Fill(0x22), c = Fill(0x33);
  const std::span<const uint8_t> parts[] = {a, b, c};
  std::vector<uint8_t> whole;
  for (std::span<const uint8_t> p : parts) {
    whole.insert(whole.end(), p.begin(), p.end());
  }
  CachedDeviceOptions opts;
  opts.capacity_blocks = 64;
  SimDisk disk_v(std::make_unique<MemDisk>(kBs, 64), DiskModelParams::WrenIV());
  SimDisk disk_w(std::make_unique<MemDisk>(kBs, 64), DiskModelParams::WrenIV());
  CachedBlockDevice dev_v(&disk_v, opts);
  CachedBlockDevice dev_w(&disk_w, opts);
  ASSERT_OK(dev_v.WriteV(9, 3, parts));
  ASSERT_OK(dev_w.Write(9, 3, whole));
  EXPECT_EQ(dev_v.cache().stats().insertions, dev_w.cache().stats().insertions);
  std::vector<uint8_t> out(whole.size());
  ASSERT_OK(dev_v.Read(9, 3, out));
  EXPECT_EQ(out, whole);
  ASSERT_OK(dev_v.Flush());
  ASSERT_OK(dev_w.Flush());
  auto raw = [](SimDisk& d) { return static_cast<MemDisk*>(d.backing())->raw(); };
  EXPECT_TRUE(std::ranges::equal(raw(disk_v), raw(disk_w)));
  EXPECT_EQ(disk_v.stats().writes, disk_w.stats().writes);
  EXPECT_EQ(disk_v.stats().bytes_written, disk_w.stats().bytes_written);
  EXPECT_EQ(disk_v.stats().busy_sec, disk_w.stats().busy_sec);
  EXPECT_EQ(dev_v.cache().stats().writeback_blocks, dev_w.cache().stats().writeback_blocks);
}

}  // namespace
}  // namespace lfs::cache
