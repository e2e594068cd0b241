// Unit tests for the disk substrate: MemDisk bounds checking, the Wren IV
// timing model (including its calibration to the spec-sheet average seek),
// SimDisk accounting, CrashDisk fault semantics, and FileDisk persistence.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/disk/crash_disk.h"
#include "src/disk/disk_model.h"
#include "src/disk/fault_disk.h"
#include "src/disk/file_disk.h"
#include "src/disk/mem_disk.h"
#include "src/disk/sim_disk.h"
#include "src/util/rng.h"

namespace lfs {
namespace {

TEST(MemDiskTest, ReadBackWhatWasWritten) {
  MemDisk disk(512, 100);
  std::vector<uint8_t> w(512 * 3, 0x5A);
  ASSERT_TRUE(disk.Write(10, 3, w).ok());
  std::vector<uint8_t> r(512 * 3);
  ASSERT_TRUE(disk.Read(10, 3, r).ok());
  EXPECT_EQ(w, r);
}

TEST(MemDiskTest, RejectsOutOfRange) {
  MemDisk disk(512, 100);
  std::vector<uint8_t> buf(512);
  EXPECT_EQ(disk.Read(100, 1, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk.Read(99, 2, buf).code(), StatusCode::kOutOfRange);  // crosses end
  EXPECT_EQ(disk.Write(0, 1, std::vector<uint8_t>(100)).code(),
            StatusCode::kInvalidArgument);  // wrong buffer size
  EXPECT_EQ(disk.Read(0, 0, {}).code(), StatusCode::kInvalidArgument);
}

TEST(DiskModelTest, SequentialAccessPaysNoSeek) {
  DiskModelParams p = DiskModelParams::WrenIV();
  DiskModel model(p, 100 * 1024 * 1024);
  double first = model.Access(0, 4096);  // includes transfer + overhead
  double second = model.Access(4096, 4096);  // contiguous: no seek/rotation
  EXPECT_GT(first, 0);
  EXPECT_NEAR(second, p.per_request_overhead_sec + 4096 / p.transfer_bandwidth_bytes_per_sec,
              1e-9);
  double jump = model.Access(50 * 1024 * 1024, 4096);  // long seek
  EXPECT_GT(jump, second + p.track_to_track_seek_sec);
}

TEST(DiskModelTest, SeekCurveCalibratedToAverage) {
  // The seek curve is scaled so uniformly random head movements average to
  // the spec-sheet avg_seek_sec.
  DiskModelParams p = DiskModelParams::WrenIV();
  uint64_t size = 1000 * 1024 * 1024ull;
  DiskModel model(p, size);
  Rng rng(3);
  double sum = 0;
  const int n = 200000;
  uint64_t prev = 0;
  for (int i = 0; i < n; i++) {
    uint64_t pos = rng.NextBelow(size);
    sum += model.SeekTime(pos > prev ? pos - prev : prev - pos);
    prev = pos;
  }
  EXPECT_NEAR(sum / n, p.avg_seek_sec, p.avg_seek_sec * 0.05);
}

TEST(DiskModelTest, TransferTimeMatchesBandwidth) {
  DiskModelParams p = DiskModelParams::WrenIV();
  DiskModel model(p, 1 << 30);
  EXPECT_NEAR(model.TransferTime(static_cast<uint64_t>(p.transfer_bandwidth_bytes_per_sec)),
              1.0, 1e-9);
}

TEST(SimDiskTest, AccumulatesStats) {
  SimDisk disk(std::make_unique<MemDisk>(4096, 1000), DiskModelParams::WrenIV());
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(disk.Write(0, 1, buf).ok());
  ASSERT_TRUE(disk.Write(1, 1, buf).ok());   // sequential: no seek
  ASSERT_TRUE(disk.Write(500, 1, buf).ok()); // seek
  ASSERT_TRUE(disk.Read(0, 1, buf).ok());    // seek back
  const DiskStats& st = disk.stats();
  EXPECT_EQ(st.writes, 3u);
  EXPECT_EQ(st.reads, 1u);
  EXPECT_EQ(st.bytes_written, 3u * 4096);
  EXPECT_EQ(st.bytes_read, 4096u);
  EXPECT_EQ(st.seeks, 2u);
  EXPECT_GT(st.busy_sec, 0.0);
  EXPECT_GT(st.seek_sec, 0.0);
  EXPECT_LT(st.seek_sec, st.busy_sec);

  DiskStats snapshot = st;
  ASSERT_TRUE(disk.Read(1, 1, buf).ok());
  DiskStats delta = disk.stats() - snapshot;
  EXPECT_EQ(delta.reads, 1u);
  EXPECT_EQ(delta.writes, 0u);
}

TEST(SimDiskTest, BigSequentialIoBeatsManySmallOnes) {
  std::vector<uint8_t> buf(4096 * 256);
  SimDisk big(std::make_unique<MemDisk>(4096, 1024), DiskModelParams::WrenIV());
  ASSERT_TRUE(big.Write(0, 256, buf).ok());
  double big_time = big.stats().busy_sec;

  SimDisk small(std::make_unique<MemDisk>(4096, 1024), DiskModelParams::WrenIV());
  for (int i = 0; i < 256; i++) {
    ASSERT_TRUE(small.Write(i, 1, std::span<uint8_t>(buf).subspan(0, 4096)).ok());
  }
  double small_time = small.stats().busy_sec;
  // Same bytes, contiguous either way, but per-request overhead piles up —
  // the effect the LFS design exploits with whole-segment writes.
  EXPECT_GT(small_time, big_time * 1.5);
}

// The pieces of one gather write (a block, two blocks, a block) and the same
// bytes as one buffer.
struct GatherFixture {
  static constexpr uint32_t kBs = 512;
  std::vector<uint8_t> a = std::vector<uint8_t>(kBs, 0x11);
  std::vector<uint8_t> b = std::vector<uint8_t>(2 * kBs);
  std::vector<uint8_t> c = std::vector<uint8_t>(kBs, 0x33);
  std::span<const uint8_t> parts[3] = {a, b, c};
  std::vector<uint8_t> whole;

  GatherFixture() {
    for (size_t i = 0; i < b.size(); i++) {
      b[i] = static_cast<uint8_t>(i * 7);
    }
    for (std::span<const uint8_t> p : parts) {
      whole.insert(whole.end(), p.begin(), p.end());
    }
  }
};

TEST(WriteVTest, MemDiskAndSimDiskGatherLikeOneWrite) {
  GatherFixture g;
  SimDisk gathered(std::make_unique<MemDisk>(g.kBs, 64), DiskModelParams::WrenIV());
  SimDisk single(std::make_unique<MemDisk>(g.kBs, 64), DiskModelParams::WrenIV());
  ASSERT_TRUE(single.Write(3, 1, g.a).ok());  // moves the head off block 0
  ASSERT_TRUE(gathered.Write(3, 1, g.a).ok());
  ASSERT_TRUE(gathered.WriteV(20, 4, g.parts).ok());
  ASSERT_TRUE(single.Write(20, 4, g.whole).ok());
  auto raw = [](SimDisk& d) { return static_cast<MemDisk*>(d.backing())->raw(); };
  EXPECT_TRUE(std::ranges::equal(raw(gathered), raw(single)));
  EXPECT_TRUE(std::ranges::equal(raw(gathered).subspan(20 * g.kBs, g.whole.size()), g.whole));
  const DiskStats& x = gathered.stats();
  const DiskStats& y = single.stats();
  EXPECT_EQ(x.writes, y.writes);
  EXPECT_EQ(x.bytes_written, y.bytes_written);
  EXPECT_EQ(x.seeks, y.seeks);
  EXPECT_EQ(x.busy_sec, y.busy_sec);
  EXPECT_EQ(x.seek_sec, y.seek_sec);
  // Every part must be whole blocks, and together exactly the request.
  const std::span<const uint8_t> ragged[] = {std::span<const uint8_t>(g.b).first(100)};
  EXPECT_EQ(gathered.WriteV(0, 1, ragged).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gathered.WriteV(0, 3, g.parts).code(), StatusCode::kInvalidArgument);
}

TEST(WriteVTest, DefaultIssuesOneWrite) {
  // FaultDisk and CrashDisk override only Write: a gather write reaches each
  // as one Write (one CrashDisk journal edge), with the parts in order.
  GatherFixture g;
  FaultDisk fault(std::make_unique<MemDisk>(g.kBs, 64));
  ASSERT_TRUE(fault.WriteV(8, 4, g.parts).ok());
  EXPECT_EQ(fault.counters().writes, 1u);
  std::vector<uint8_t> back(g.whole.size());
  ASSERT_TRUE(fault.Read(8, 4, back).ok());
  EXPECT_EQ(back, g.whole);
  ASSERT_TRUE(fault.WriteV(8, 1, std::span(g.parts, 1)).ok());
  EXPECT_EQ(fault.counters().writes, 2u);

  CrashDisk crash(std::make_unique<MemDisk>(g.kBs, 64));
  ASSERT_TRUE(crash.WriteV(8, 4, g.parts).ok());
  EXPECT_EQ(crash.writes_seen(), 1u);
}

TEST(CrashDiskTest, DropsWritesAfterCrash) {
  CrashDisk disk(std::make_unique<MemDisk>(512, 64));
  std::vector<uint8_t> ones(512, 1);
  std::vector<uint8_t> twos(512, 2);
  ASSERT_TRUE(disk.Write(5, 1, ones).ok());
  disk.CrashNow();
  ASSERT_TRUE(disk.Write(5, 1, twos).ok());  // silently dropped
  EXPECT_EQ(disk.writes_dropped(), 1u);
  std::vector<uint8_t> r(512);
  ASSERT_TRUE(disk.Read(5, 1, r).ok());  // reads still work
  EXPECT_EQ(r, ones);
  disk.ClearCrash();
  ASSERT_TRUE(disk.Write(5, 1, twos).ok());
  ASSERT_TRUE(disk.Read(5, 1, r).ok());
  EXPECT_EQ(r, twos);
}

TEST(CrashDiskTest, TornWritePersistsPrefix) {
  CrashDisk disk(std::make_unique<MemDisk>(512, 64));
  std::vector<uint8_t> zeros(512 * 4, 0);
  ASSERT_TRUE(disk.Write(0, 4, zeros).ok());
  disk.CrashAfterWrites(0, /*torn_blocks=*/2);
  std::vector<uint8_t> ones(512 * 4, 1);
  ASSERT_TRUE(disk.Write(0, 4, ones).ok());  // torn after 2 blocks
  EXPECT_TRUE(disk.crashed());
  std::vector<uint8_t> r(512 * 4);
  ASSERT_TRUE(disk.Read(0, 4, r).ok());
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(r[512], 1);
  EXPECT_EQ(r[1024], 0);  // blocks 2,3 never hit the platter
  EXPECT_EQ(r[1536], 0);
}

TEST(CrashDiskTest, CountdownArmsFutureWrite) {
  CrashDisk disk(std::make_unique<MemDisk>(512, 64));
  disk.CrashAfterWrites(2, 0);
  std::vector<uint8_t> buf(512, 7);
  ASSERT_TRUE(disk.Write(0, 1, buf).ok());
  ASSERT_TRUE(disk.Write(1, 1, buf).ok());
  EXPECT_FALSE(disk.crashed());
  ASSERT_TRUE(disk.Write(2, 1, buf).ok());  // the torn write (0 blocks kept)
  EXPECT_TRUE(disk.crashed());
  std::vector<uint8_t> r(512);
  ASSERT_TRUE(disk.Read(2, 1, r).ok());
  EXPECT_EQ(r[0], 0);
}

TEST(CrashDiskTest, FlushIsACrashPoint) {
  CrashDisk disk(std::make_unique<MemDisk>(512, 64));
  std::vector<uint8_t> ones(512, 1);
  std::vector<uint8_t> twos(512, 2);

  // Countdown of 1: the write consumes it, the flush is the crash point.
  disk.CrashAfterWrites(1, 0);
  ASSERT_TRUE(disk.Write(3, 1, ones).ok());
  EXPECT_FALSE(disk.crashed());
  ASSERT_TRUE(disk.Flush().ok());
  EXPECT_TRUE(disk.crashed());
  EXPECT_EQ(disk.flushes_seen(), 1u);

  // The write before the lost barrier still persisted (completed writes
  // reach the backing store; only the barrier itself is lost)...
  std::vector<uint8_t> r(512);
  ASSERT_TRUE(disk.Read(3, 1, r).ok());
  EXPECT_EQ(r, ones);
  // ...and post-crash writes are dropped as usual.
  ASSERT_TRUE(disk.Write(3, 1, twos).ok());
  ASSERT_TRUE(disk.Read(3, 1, r).ok());
  EXPECT_EQ(r, ones);

  // A flush also decrements a larger countdown, shifting the crash point.
  disk.ClearCrash();
  disk.CrashAfterWrites(2, 0);
  ASSERT_TRUE(disk.Flush().ok());   // countdown 2 -> 1
  ASSERT_TRUE(disk.Write(4, 1, ones).ok());  // countdown 1 -> 0
  EXPECT_FALSE(disk.crashed());
  ASSERT_TRUE(disk.Write(5, 1, twos).ok());  // crash point: torn (0 kept)
  EXPECT_TRUE(disk.crashed());
  ASSERT_TRUE(disk.Read(5, 1, r).ok());
  EXPECT_EQ(r[0], 0);
}

TEST(CrashDiskTest, RecordingJournalsEveryEdgeWithOpMarkers) {
  CrashDisk disk(std::make_unique<MemDisk>(512, 64));
  std::vector<uint8_t> ones(512, 1);
  ASSERT_TRUE(disk.Write(0, 1, ones).ok());  // before recording: not journaled
  disk.StartRecording();
  EXPECT_TRUE(disk.recording());
  disk.SetOpMarker(7);
  std::vector<uint8_t> twos(512 * 2, 2);
  ASSERT_TRUE(disk.Write(3, 2, twos).ok());
  ASSERT_TRUE(disk.Flush().ok());
  disk.SetOpMarker(8);
  ASSERT_TRUE(disk.Trim(10, 4).ok());
  std::vector<CrashEdge> edges = disk.TakeRecording();
  EXPECT_FALSE(disk.recording());
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].kind, CrashEdge::Kind::kWrite);
  EXPECT_EQ(edges[0].block, 3u);
  EXPECT_EQ(edges[0].count, 2u);
  EXPECT_EQ(edges[0].op, 7);
  EXPECT_EQ(edges[0].data, twos);
  EXPECT_EQ(edges[1].kind, CrashEdge::Kind::kFlush);
  EXPECT_EQ(edges[1].op, 7);
  EXPECT_EQ(edges[2].kind, CrashEdge::Kind::kTrim);
  EXPECT_EQ(edges[2].block, 10u);
  EXPECT_EQ(edges[2].count, 4u);
  EXPECT_EQ(edges[2].op, 8);
}

TEST(CrashDiskTest, ResetCountersZeroesTalliesButKeepsCrashState) {
  CrashDisk disk(std::make_unique<MemDisk>(512, 64));
  std::vector<uint8_t> buf(512, 5);
  ASSERT_TRUE(disk.Write(0, 1, buf).ok());
  ASSERT_TRUE(disk.Flush().ok());
  disk.CrashNow();
  ASSERT_TRUE(disk.Write(1, 1, buf).ok());  // dropped
  EXPECT_EQ(disk.writes_seen(), 2u);
  EXPECT_EQ(disk.flushes_seen(), 1u);
  EXPECT_EQ(disk.writes_dropped(), 1u);
  disk.ResetCounters();
  EXPECT_EQ(disk.writes_seen(), 0u);
  EXPECT_EQ(disk.flushes_seen(), 0u);
  EXPECT_EQ(disk.writes_dropped(), 0u);
  EXPECT_TRUE(disk.crashed());  // crash state survives the reset
}

TEST(CrashDiskTest, CaptureModeSweepsTornPrefixesWithoutRerunning) {
  CrashDisk disk(std::make_unique<MemDisk>(512, 64));
  std::vector<uint8_t> zeros(512 * 3, 0);
  ASSERT_TRUE(disk.Write(0, 3, zeros).ok());
  disk.CrashAfterWritesCapture(0);
  std::vector<uint8_t> payload(512 * 3);
  for (int i = 0; i < 3; i++) {
    std::fill(payload.begin() + i * 512, payload.begin() + (i + 1) * 512,
              static_cast<uint8_t>(i + 1));
  }
  ASSERT_TRUE(disk.Write(0, 3, payload).ok());  // the captured crash point
  EXPECT_TRUE(disk.crashed());
  ASSERT_TRUE(disk.has_in_flight());
  EXPECT_EQ(disk.in_flight_block(), 0u);
  EXPECT_EQ(disk.in_flight_count(), 3u);

  // t = 0: nothing persisted yet.
  std::vector<uint8_t> r(512 * 3);
  ASSERT_TRUE(disk.Read(0, 3, r).ok());
  EXPECT_EQ(r, zeros);
  // Walk t = 1, 2, 3: each call extends the durable prefix by one block.
  for (uint64_t t = 1; t <= 3; t++) {
    ASSERT_TRUE(disk.ApplyTornPrefix(t).ok());
    ASSERT_TRUE(disk.Read(0, 3, r).ok());
    for (uint64_t b = 0; b < 3; b++) {
      EXPECT_EQ(r[b * 512], b < t ? static_cast<uint8_t>(b + 1) : 0)
          << "t=" << t << " block " << b;
    }
  }
}

TEST(FaultDiskTest, TransientReadFaultClearsAfterNAttempts) {
  FaultDisk disk(std::make_unique<MemDisk>(512, 64));
  std::vector<uint8_t> w(512, 0xAB);
  ASSERT_TRUE(disk.Write(7, 1, w).ok());
  disk.AddTransientReadFault(7, /*fail_count=*/2);
  std::vector<uint8_t> r(512);
  EXPECT_EQ(disk.Read(7, 1, r).code(), StatusCode::kIoError);
  EXPECT_EQ(disk.Read(7, 1, r).code(), StatusCode::kIoError);
  ASSERT_TRUE(disk.Read(7, 1, r).ok());  // third attempt succeeds
  EXPECT_EQ(r, w);
  EXPECT_EQ(disk.counters().transient_read_faults, 2u);
}

TEST(FaultDiskTest, LatentErrorPersistsUntilCleared) {
  FaultDisk disk(std::make_unique<MemDisk>(512, 64));
  std::vector<uint8_t> buf(512, 1);
  ASSERT_TRUE(disk.Write(10, 1, buf).ok());
  disk.AddLatentError(10);
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(disk.Read(10, 1, buf).code(), StatusCode::kIoError);
  }
  EXPECT_EQ(disk.Write(10, 1, buf).code(), StatusCode::kIoError);
  // A multi-block I/O touching the bad block fails too.
  std::vector<uint8_t> big(512 * 4);
  EXPECT_EQ(disk.Read(8, 4, big).code(), StatusCode::kIoError);
  disk.ClearLatentError(10);
  EXPECT_TRUE(disk.Read(10, 1, buf).ok());
  EXPECT_GE(disk.counters().latent_read_faults, 4u);
  EXPECT_EQ(disk.counters().latent_write_faults, 1u);
}

TEST(FaultDiskTest, CorruptOnReadFlipsOneBit) {
  FaultDisk disk(std::make_unique<MemDisk>(512, 64));
  std::vector<uint8_t> w(512, 0x00);
  ASSERT_TRUE(disk.Write(5, 1, w).ok());
  disk.CorruptOnRead(5);
  std::vector<uint8_t> r(512);
  ASSERT_TRUE(disk.Read(5, 1, r).ok());  // read "succeeds" — silent corruption
  EXPECT_NE(r, w);
  int flipped = 0;
  for (size_t i = 0; i < r.size(); i++) {
    flipped += __builtin_popcount(static_cast<unsigned>(r[i] ^ w[i]));
  }
  EXPECT_EQ(flipped, 1);
  EXPECT_EQ(disk.counters().corrupted_reads, 1u);
  // Rewriting the block heals it.
  ASSERT_TRUE(disk.Write(5, 1, w).ok());
  ASSERT_TRUE(disk.Read(5, 1, r).ok());
  EXPECT_EQ(r, w);
}

TEST(FaultDiskTest, ProbabilisticFaultsAreSeededAndDeterministic) {
  auto run = [](uint64_t seed) {
    FaultDisk disk(std::make_unique<MemDisk>(512, 64), seed);
    disk.SetTransientReadFaultRate(0.3);
    std::vector<uint8_t> buf(512);
    std::string pattern;
    for (int i = 0; i < 50; i++) {
      pattern += disk.Read(0, 1, buf).ok() ? '.' : 'x';
    }
    return pattern;
  };
  EXPECT_EQ(run(42), run(42));      // same seed, same fault schedule
  EXPECT_NE(run(42), run(43));      // different seed, different schedule
  EXPECT_NE(run(42).find('x'), std::string::npos);  // some faults fired
  EXPECT_NE(run(42).find('.'), std::string::npos);  // some reads survived
}

TEST(FileDiskTest, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/lfs_filedisk_test.img";
  std::remove(path.c_str());
  {
    auto disk = FileDisk::Open(path, 512, 128);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    std::vector<uint8_t> buf(512, 0xCD);
    ASSERT_TRUE((*disk)->Write(42, 1, buf).ok());
    ASSERT_TRUE((*disk)->Flush().ok());
  }
  {
    auto disk = FileDisk::Open(path, 512, 128);
    ASSERT_TRUE(disk.ok());
    std::vector<uint8_t> buf(512);
    ASSERT_TRUE((*disk)->Read(42, 1, buf).ok());
    EXPECT_EQ(buf[0], 0xCD);
    ASSERT_TRUE((*disk)->Read(43, 1, buf).ok());
    EXPECT_EQ(buf[0], 0);  // untouched blocks read as zeros
  }
  std::remove(path.c_str());
}

// The offline tools open images this way: a missing file stays missing, a
// short one keeps its size, and the device is sized from the file.
TEST(FileDiskTest, ReadOnlyOpenNeverCreatesWritesOrResizes) {
  std::string path = ::testing::TempDir() + "/lfs_filedisk_readonly.img";
  std::remove(path.c_str());
  EXPECT_FALSE(FileDisk::OpenReadOnly(path, 512).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  {
    auto disk = FileDisk::Open(path, 512, 6);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    std::vector<uint8_t> buf(512, 0x77);
    ASSERT_TRUE((*disk)->Write(5, 1, buf).ok());
  }
  std::filesystem::resize_file(path, 5 * 512 + 100);  // a truncated image
  auto ro = FileDisk::OpenReadOnly(path, 512);
  ASSERT_TRUE(ro.ok()) << ro.status().ToString();
  EXPECT_EQ((*ro)->block_count(), 5u);
  std::vector<uint8_t> buf(512);
  EXPECT_TRUE((*ro)->Read(4, 1, buf).ok());
  EXPECT_FALSE((*ro)->Read(5, 1, buf).ok());
  EXPECT_FALSE((*ro)->Write(0, 1, buf).ok());
  EXPECT_EQ(std::filesystem::file_size(path), 5u * 512 + 100);
  std::remove(path.c_str());
}

// No test here can show that Flush puts the data on stable storage: that
// would take cutting the machine's power. These two show what the file
// descriptor changed: no user-space buffer holds a write, and concurrent
// calls do not share a file offset.
TEST(FileDiskTest, WriteIsVisibleToAnotherOpenBeforeFlush) {
  std::string path = ::testing::TempDir() + "/lfs_filedisk_visible.img";
  std::remove(path.c_str());
  auto writer = FileDisk::Open(path, 512, 128);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<uint8_t> buf(512, 0x5A);
  ASSERT_TRUE((*writer)->Write(7, 1, buf).ok());
  auto reader = FileDisk::Open(path, 512, 128);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<uint8_t> back(512);
  ASSERT_TRUE((*reader)->Read(7, 1, back).ok());
  EXPECT_EQ(back, buf);
  std::remove(path.c_str());
}

TEST(FileDiskTest, ConcurrentThreadsReadBackTheirOwnBlocks) {
  std::string path = ::testing::TempDir() + "/lfs_filedisk_threads.img";
  std::remove(path.c_str());
  constexpr uint32_t kBlocksPerThread = 64;
  constexpr int kRounds = 20000;  // round trips per thread
  auto disk = FileDisk::Open(path, 512, 2 * kBlocksPerThread);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  std::atomic<int> wrong{0};
  auto run = [&](uint32_t t) {
    std::vector<uint8_t> out(512);
    std::vector<uint8_t> in(512);
    for (int i = 0; i < kRounds; i++) {
      BlockNo b = t * kBlocksPerThread + static_cast<uint32_t>(i) % kBlocksPerThread;
      std::fill(out.begin(), out.end(), static_cast<uint8_t>(t * 128 + i % 127));
      if (!(*disk)->Write(b, 1, out).ok() || !(*disk)->Read(b, 1, in).ok() || in != out) {
        wrong++;
      }
    }
  };
  std::thread a(run, 0);
  std::thread b(run, 1);
  a.join();
  b.join();
  EXPECT_EQ(wrong.load(), 0) << "of " << 2 * kRounds << " round trips";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lfs
