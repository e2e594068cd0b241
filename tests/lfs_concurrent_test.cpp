// Multi-threaded front-end stress: N writer threads, M reader threads, and
// the background cleaner thread hammer one filesystem through a shared
// write-back block cache, then the image is checked three ways:
//
//   1. differential: every file must read back exactly what its owning
//      writer thread's in-memory reference model says it wrote;
//   2. lfsck: the offline checker must find a consistent image after
//      unmount (run against the raw device, past the cache);
//   3. remount: a fresh mount must serve the same contents.
//
// Run under ThreadSanitizer (-DLFS_SANITIZE=thread) in CI; any data race in
// the lock regime, the cache shards, or the cleaner handoff fires there.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include "src/cache/cached_device.h"
#include "src/disk/crash_disk.h"
#include "src/lfs/check.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace lfs {
namespace {

using ::lfs::testing::SmallConfig;
using ::lfs::testing::TestContent;

constexpr int kWriters = 4;
constexpr int kReaders = 2;
constexpr int kOpsPerWriter = 300;

LfsConfig ConcurrentConfig() {
  LfsConfig cfg = SmallConfig();
  cfg.segment_blocks = 32;
  cfg.clean_lo = 6;
  cfg.clean_hi = 10;
  cfg.segments_per_pass = 6;
  cfg.write_buffer_blocks = 32;
  cfg.concurrent = true;  // background cleaner + striped read cache
  // CI's TSan job re-runs the whole suite with LFS_TEST_NUM_LOGS=2 so the
  // multi-log append path races against the background cleaner too.
  if (const char* logs = getenv("LFS_TEST_NUM_LOGS")) {
    cfg.num_logs = static_cast<uint32_t>(std::max(1, atoi(logs)));
  }
  return cfg;
}

class ConcurrentStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConcurrentStressTest, WritersReadersAndCleanerRace) {
  const uint64_t seed = GetParam();
  LfsConfig cfg = ConcurrentConfig();
  MemDisk disk(cfg.block_size, 24576);  // 24 MB platter
  cache::CachedDeviceOptions copts;
  copts.capacity_blocks = 512;
  copts.shards = 4;
  cache::CachedBlockDevice dev(&disk, copts);
  auto fs = std::move(LfsFileSystem::Mkfs(&dev, cfg)).value();

  // Each writer owns one file; single-writer-per-file keeps the reference
  // model exact while every structure underneath (log, imap, usage table,
  // caches, cleaner) is fully shared.
  std::vector<InodeNum> inos(kWriters);
  for (int w = 0; w < kWriters; w++) {
    auto created = fs->Create("/w" + std::to_string(w));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    inos[w] = created.value();
  }

  struct Model {
    std::vector<uint8_t> content;
  };
  std::vector<Model> models(kWriters);
  std::atomic<int> failures{0};

  auto writer = [&](int w) {
    Rng rng(seed * 1315423911u + w);
    Model& model = models[w];
    std::vector<uint8_t> out;
    for (int i = 0; i < kOpsPerWriter; i++) {
      uint32_t op = static_cast<uint32_t>(rng.NextU64() % 10);
      if (op < 6) {  // write a random extent
        uint64_t off = rng.NextU64() % (16 * 1024);
        size_t len = 1 + static_cast<size_t>(rng.NextU64() % 4096);
        std::vector<uint8_t> data = TestContent(rng.NextU64(), len);
        if (!fs->WriteAt(inos[w], off, data).ok()) {
          failures++;
          return;
        }
        if (model.content.size() < off + len) {
          model.content.resize(off + len, 0);
        }
        std::copy(data.begin(), data.end(), model.content.begin() + off);
      } else if (op < 8) {  // read back an extent and compare to the model
        if (model.content.empty()) {
          continue;
        }
        uint64_t off = rng.NextU64() % model.content.size();
        size_t len = 1 + static_cast<size_t>(rng.NextU64() % 2048);
        out.assign(len, 0);
        auto got = fs->ReadAt(inos[w], off, out);
        if (!got.ok()) {
          failures++;
          return;
        }
        size_t expect = std::min<size_t>(len, model.content.size() - off);
        if (got.value() != expect ||
            !std::equal(out.begin(), out.begin() + expect,
                        model.content.begin() + off)) {
          failures++;
          return;
        }
      } else if (op == 8) {  // truncate
        uint64_t size = rng.NextU64() % (8 * 1024);
        if (!fs->Truncate(inos[w], size).ok()) {
          failures++;
          return;
        }
        model.content.resize(size, 0);
      } else {  // namespace traffic in a private subtree
        std::string dir = "/w" + std::to_string(w) + "d";
        (void)fs->Mkdir(dir);
        std::string path = dir + "/f" + std::to_string(rng.NextU64() % 4);
        if (rng.NextU64() % 2 == 0) {
          (void)fs->Create(path);
        } else {
          (void)fs->Unlink(path);
        }
      }
    }
  };

  std::atomic<bool> stop{false};
  auto reader = [&](int r) {
    Rng rng(seed * 2654435761u + 1000 + r);
    std::vector<uint8_t> out(4096);
    while (!stop.load(std::memory_order_relaxed)) {
      int w = static_cast<int>(rng.NextU64() % kWriters);
      std::string path = "/w" + std::to_string(w);
      auto ino = fs->Lookup(path);
      if (!ino.ok()) {
        failures++;
        return;
      }
      auto st = fs->Stat(ino.value());
      if (!st.ok()) {
        failures++;
        return;
      }
      // Concurrent reads may observe any committed prefix of the writer's
      // stream; only crashes/races/corruption are failures here.
      uint64_t off = rng.NextU64() % (16 * 1024);
      (void)fs->ReadAt(ino.value(), off, out);
      (void)fs->ReadDir("/");
      (void)fs->StatFs();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back(reader, r);
  }
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back(writer, w);
  }
  for (int w = 0; w < kWriters; w++) {
    threads[kReaders + w].join();
  }
  stop.store(true);
  for (int r = 0; r < kReaders; r++) {
    threads[r].join();
  }
  ASSERT_EQ(failures.load(), 0);

  // Differential check: quiesced, every byte must match the model.
  for (int w = 0; w < kWriters; w++) {
    auto st = fs->Stat(inos[w]);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    ASSERT_EQ(st->size, models[w].content.size()) << "file w" << w;
    std::vector<uint8_t> out(models[w].content.size());
    if (!out.empty()) {
      auto got = fs->ReadAt(inos[w], 0, out);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got.value(), out.size());
      ASSERT_EQ(out, models[w].content) << "content mismatch in w" << w;
    }
  }

  ASSERT_OK(fs->Unmount());
  ASSERT_OK(dev.Flush());  // push any write-back frames to the platter

  // lfsck against the raw platter: the image must be consistent without the
  // cache in the read path.
  auto report = CheckLfsImage(&disk);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->errors, 0u) << report->Summary();

  // Remount (no cache) and re-verify contents survived the unmount.
  auto fs2r = LfsFileSystem::Mount(&disk, cfg);
  ASSERT_TRUE(fs2r.ok()) << fs2r.status().ToString();
  auto fs2 = std::move(fs2r).value();
  for (int w = 0; w < kWriters; w++) {
    auto ino = fs2->Lookup("/w" + std::to_string(w));
    ASSERT_TRUE(ino.ok()) << ino.status().ToString();
    std::vector<uint8_t> out(models[w].content.size());
    if (!out.empty()) {
      auto got = fs2->ReadAt(ino.value(), 0, out);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(out, models[w].content) << "post-remount mismatch in w" << w;
    }
  }
  ASSERT_OK(fs2->Unmount());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentStressTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

// The background cleaner must actually run: fill the filesystem enough to
// cross the low watermark while the foreground stays above the critical
// floor, then observe reclaimed segments without any explicit ForceClean.
TEST(ConcurrentCleanerTest, BackgroundThreadReclaimsSegments) {
  LfsConfig cfg = ConcurrentConfig();
  MemDisk disk(cfg.block_size, 2048);  // 2 MB: 64 segments, easy to exhaust
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();

  // Mixed-liveness churn: many small files rewritten at staggered times, so
  // segments end up partially live and reclaiming them requires a real
  // cleaner pass (copying), not just the free zero-live harvest at
  // checkpoint. Total write volume is several times the platter.
  constexpr int kFiles = 24;
  std::vector<InodeNum> inos(kFiles);
  for (int i = 0; i < kFiles; i++) {
    auto created = fs->Create("/f" + std::to_string(i));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    inos[i] = created.value();
    ASSERT_OK(fs->WriteAt(inos[i], 0, TestContent(i, 4 * 1024)));
  }
  for (int round = 0; round < 1500; round++) {
    int i = (round * 7) % kFiles;
    ASSERT_OK(fs->WriteAt(inos[i], 0, TestContent(1000 + round, 4 * 1024)));
  }
  // Wait on the (atomic) cleaned-segment counter, not clean_segments():
  // the latter reads the usage table, which the cleaner thread may still be
  // mutating under its own lock.
  for (int i = 0; i < 200 && fs->stats().segments_cleaned == 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_OK(fs->Sync());
  EXPECT_GT(fs->stats().segments_cleaned, 0u)
      << "background cleaner never reclaimed a segment";
  ASSERT_OK(fs->Unmount());
  auto report = CheckLfsImage(&disk);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->errors, 0u) << report->Summary();
}

// Rename/link cycles across directories: kStormFiles files rotate between
// four directories, with every thread attempting the rename from every
// possible source directory (at most one can win). A deliberately tiny
// stripe table (inode_shards = 4) forces distinct inodes onto the same
// stripe, so the two-inode ordered acquisition in rename/link is exercised
// under real collision pressure — an ordering bug deadlocks, a lost-update
// bug breaks the exactly-one-home invariant below.
TEST(ConcurrentNamespaceTest, RenameLinkStormAcrossDirectories) {
  LfsConfig cfg = ConcurrentConfig();
  cfg.inode_shards = 4;  // maximize stripe collisions
  MemDisk disk(cfg.block_size, 8192);
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();

  constexpr int kDirs = 4;
  constexpr int kStormFiles = 8;
  constexpr int kStormThreads = 4;
  constexpr int kStormRounds = 200;
  for (int d = 0; d < kDirs; d++) {
    ASSERT_OK(fs->Mkdir("/d" + std::to_string(d)));
  }
  for (int i = 0; i < kStormFiles; i++) {
    auto created = fs->Create("/d0/f" + std::to_string(i));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
  }

  std::atomic<int> failures{0};
  auto storm = [&](int t) {
    Rng rng(0x9e3779b9u * (t + 1));
    for (int r = 0; r < kStormRounds; r++) {
      int i = static_cast<int>(rng.NextU64() % kStormFiles);
      std::string fname = "/f" + std::to_string(i);
      int dst = static_cast<int>(rng.NextU64() % kDirs);
      if (rng.NextU64() % 4 == 0) {
        // Hard-link the file wherever it currently lives under a
        // thread-private name, then remove the link. The link path is
        // touched by no other thread, so a successful Link *must* be
        // followed by a successful Unlink of it.
        int s = static_cast<int>(rng.NextU64() % kDirs);
        std::string link_path = "/d" + std::to_string(s) + "/l" +
                                std::to_string(t) + "_" + std::to_string(i);
        if (fs->Link("/d" + std::to_string(s) + fname, link_path).ok()) {
          if (!fs->Unlink(link_path).ok()) {
            failures++;
            return;
          }
        }
      } else {
        // Try the rename from every source directory; the file lives in
        // exactly one, and concurrent threads race for the same move.
        for (int s = 0; s < kDirs; s++) {
          if (s == dst) {
            continue;
          }
          (void)fs->Rename("/d" + std::to_string(s) + fname,
                           "/d" + std::to_string(dst) + fname);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kStormThreads; t++) {
    threads.emplace_back(storm, t);
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_EQ(failures.load(), 0);

  // Exactly-one-home: each file must exist in precisely one directory with
  // nlink 1 (every transient hard link was removed by its owner).
  auto verify_homes = [&](LfsFileSystem* f) {
    for (int i = 0; i < kStormFiles; i++) {
      int homes = 0;
      for (int d = 0; d < kDirs; d++) {
        auto ino = f->Lookup("/d" + std::to_string(d) + "/f" + std::to_string(i));
        if (!ino.ok()) {
          continue;
        }
        homes++;
        auto st = f->Stat(ino.value());
        ASSERT_TRUE(st.ok()) << st.status().ToString();
        EXPECT_EQ(st->nlink, 1u) << "f" << i << " in d" << d;
        EXPECT_EQ(st->type, FileType::kRegular);
      }
      EXPECT_EQ(homes, 1) << "f" << i << " found in " << homes << " directories";
    }
  };
  verify_homes(fs.get());

  ASSERT_OK(fs->Unmount());
  auto report = CheckLfsImage(&disk);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->errors, 0u) << report->Summary();

  auto fs2 = std::move(LfsFileSystem::Mount(&disk, cfg)).value();
  verify_homes(fs2.get());
  ASSERT_OK(fs2->Unmount());
}

// Create/unlink storm on ONE shared directory: all threads mutate the same
// directory inode (the hottest stripe there is), each through thread-private
// names that admit an exact local model — a create against an absent name
// must succeed, an unlink against a present one must succeed. A shared name
// is hammered too (no model; only structural consistency afterwards).
TEST(ConcurrentNamespaceTest, CreateUnlinkStormOneDirectory) {
  LfsConfig cfg = ConcurrentConfig();
  MemDisk disk(cfg.block_size, 8192);
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();
  ASSERT_OK(fs->Mkdir("/dir"));

  constexpr int kStormThreads = 4;
  constexpr int kNamesPerThread = 4;
  constexpr int kStormOps = 400;
  std::atomic<int> failures{0};
  // Final presence of each thread-private name, filled in as threads exit.
  bool present[kStormThreads][kNamesPerThread] = {};

  auto storm = [&](int t) {
    Rng rng(0x85ebca6bu * (t + 1));
    bool mine[kNamesPerThread] = {};
    for (int i = 0; i < kStormOps; i++) {
      if (rng.NextU64() % 8 == 0) {
        // Racy shared name: outcomes depend on interleaving; only the
        // post-quiesce structural checks judge this traffic.
        if (rng.NextU64() % 2 == 0) {
          (void)fs->Create("/dir/shared");
        } else {
          (void)fs->Unlink("/dir/shared");
        }
        continue;
      }
      int k = static_cast<int>(rng.NextU64() % kNamesPerThread);
      std::string path = "/dir/t" + std::to_string(t) + "_" + std::to_string(k);
      if (!mine[k]) {
        if (!fs->Create(path).ok()) {
          failures++;
          return;
        }
        mine[k] = true;
      } else {
        if (!fs->Unlink(path).ok()) {
          failures++;
          return;
        }
        mine[k] = false;
      }
    }
    for (int k = 0; k < kNamesPerThread; k++) {
      present[t][k] = mine[k];
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kStormThreads; t++) {
    threads.emplace_back(storm, t);
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_EQ(failures.load(), 0);

  // The directory must contain exactly the names the models say survive
  // (plus possibly the racy shared name), and every listed entry must
  // resolve and stat cleanly.
  auto entries = fs->ReadDir("/dir");
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  size_t expected = 0;
  for (int t = 0; t < kStormThreads; t++) {
    for (int k = 0; k < kNamesPerThread; k++) {
      std::string name = "t" + std::to_string(t) + "_" + std::to_string(k);
      bool listed = std::any_of(entries->begin(), entries->end(),
                                [&](const DirEntry& e) { return e.name == name; });
      EXPECT_EQ(listed, present[t][k]) << name;
      if (present[t][k]) {
        expected++;
      }
    }
  }
  bool shared_listed = std::any_of(entries->begin(), entries->end(),
                                   [](const DirEntry& e) { return e.name == "shared"; });
  EXPECT_EQ(entries->size(), expected + (shared_listed ? 1 : 0));
  for (const DirEntry& e : entries.value()) {
    auto ino = fs->Lookup("/dir/" + e.name);
    ASSERT_TRUE(ino.ok()) << e.name << ": " << ino.status().ToString();
    EXPECT_EQ(ino.value(), e.ino);
    auto st = fs->Stat(e.ino);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    EXPECT_EQ(st->nlink, 1u) << e.name;
  }

  ASSERT_OK(fs->Unmount());
  auto report = CheckLfsImage(&disk);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->errors, 0u) << report->Summary();
}

// Group-commit crash-point sweep: writers race through the transaction
// layer while the disk is armed to die after N more writes. Whatever
// half-batch was in flight at the crash must NOT damage state that a Sync()
// made durable before arming, and the surviving image must satisfy lfsck
// after roll-forward. The param is the armed countdown, sweeping crash
// points from "almost immediately" to "deep into the storm".
class GroupCommitCrashTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupCommitCrashTest, CrashMidStormPreservesSyncedState) {
  LfsConfig cfg = ConcurrentConfig();
  CrashDisk disk(std::make_unique<MemDisk>(cfg.block_size, 8192));
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();

  constexpr int kStormThreads = 4;
  constexpr int kStormOps = 300;
  // Durable base state: one file per thread, synced before the crash is
  // armed. The storm never touches these, so recovery must reproduce them
  // byte-for-byte no matter where the crash lands.
  std::vector<std::vector<uint8_t>> base(kStormThreads);
  for (int t = 0; t < kStormThreads; t++) {
    auto created = fs->Create("/base" + std::to_string(t));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    base[t] = TestContent(7000 + t, 6000);
    ASSERT_OK(fs->WriteAt(created.value(), 0, base[t]));
  }
  ASSERT_OK(fs->Sync());

  disk.CrashAfterWrites(GetParam(), /*torn_blocks=*/1);

  auto storm = [&](int t) {
    Rng rng(0xc2b2ae35u * (t + 1));
    for (int i = 0; i < kStormOps && !disk.crashed(); i++) {
      std::string path = "/c" + std::to_string(t) + "_" +
                         std::to_string(rng.NextU64() % 8);
      uint32_t op = static_cast<uint32_t>(rng.NextU64() % 10);
      if (op < 6) {
        auto ino = fs->Lookup(path);
        if (!ino.ok()) {
          auto created = fs->Create(path);
          if (!created.ok()) {
            continue;  // no-space near the crash point is legitimate
          }
          ino = created;
        }
        size_t len = 1 + static_cast<size_t>(rng.NextU64() % 3000);
        (void)fs->WriteAt(ino.value(), rng.NextU64() % 4096,
                          TestContent(rng.NextU64(), len));
      } else if (op < 9) {
        (void)fs->Unlink(path);
      } else {
        (void)fs->Sync();  // group commit under fire
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kStormThreads; t++) {
    threads.emplace_back(storm, t);
  }
  for (auto& th : threads) {
    th.join();
  }

  // Power off: drop the in-memory filesystem without unmounting (the
  // destructor only stops the cleaner — no checkpoint escapes), then
  // "reboot" the device and recover from whatever survived on the platter.
  fs.reset();
  disk.ClearCrash();
  auto remounted = LfsFileSystem::Mount(&disk, cfg);
  ASSERT_TRUE(remounted.ok()) << remounted.status().ToString();
  auto fs2 = std::move(remounted).value();

  // Synced state is sacred: every base file byte-identical.
  for (int t = 0; t < kStormThreads; t++) {
    auto ino = fs2->Lookup("/base" + std::to_string(t));
    ASSERT_TRUE(ino.ok()) << "base" << t << ": " << ino.status().ToString();
    std::vector<uint8_t> out(base[t].size());
    auto got = fs2->ReadAt(ino.value(), 0, out);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got.value(), out.size());
    EXPECT_EQ(out, base[t]) << "synced content lost in base" << t;
  }

  // Namespace self-consistency walk: every entry recovered from the log
  // must resolve, stat, and (for files) read back its full recorded size.
  std::vector<std::string> pending_dirs = {"/"};
  std::vector<uint8_t> buf;
  while (!pending_dirs.empty()) {
    std::string dir = pending_dirs.back();
    pending_dirs.pop_back();
    auto entries = fs2->ReadDir(dir);
    ASSERT_TRUE(entries.ok()) << dir << ": " << entries.status().ToString();
    for (const DirEntry& e : entries.value()) {
      std::string path = (dir == "/" ? "/" : dir + "/") + e.name;
      auto ino = fs2->Lookup(path);
      ASSERT_TRUE(ino.ok()) << path << ": " << ino.status().ToString();
      EXPECT_EQ(ino.value(), e.ino) << path;
      auto st = fs2->Stat(e.ino);
      ASSERT_TRUE(st.ok()) << path << ": " << st.status().ToString();
      if (st->type == FileType::kDirectory) {
        pending_dirs.push_back(path);
      } else if (st->size > 0) {
        buf.assign(st->size, 0);
        auto got = fs2->ReadAt(e.ino, 0, buf);
        ASSERT_TRUE(got.ok()) << path << ": " << got.status().ToString();
        EXPECT_EQ(got.value(), buf.size()) << path;
      }
    }
  }

  ASSERT_OK(fs2->Unmount());
  auto report = CheckLfsImage(&disk);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->errors, 0u) << report->Summary();
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, GroupCommitCrashTest,
                         ::testing::Values(0u, 3u, 12u, 40u, 110u, 260u));

// Per-directory storm: each thread owns one directory and churns a few
// names through create+write, overwrite, read-verify, rename and unlink,
// checking every read against its own reference model. With so few names
// per thread, inode numbers are freed and handed to another thread's Create
// all the time: the schedule in which an unlink that frees the number before
// tearing down the old owner's in-memory state destroys the new owner's.
// Afterwards the mounted namespace is walked against the models, then the
// image goes through Sync, Unmount, lfsck on the raw device, and a remount
// that re-reads every file.
struct StormShape {
  const char* name;
  uint64_t seed;
  uint64_t disk_blocks;
  // 4-KB files written before the storm, every third one overwritten, so
  // the storm starts on segments that mix live and dead blocks.
  int prefill_files;
  // Adaptive cleaning, partial compaction and a cleaner QoS bucket; the
  // test then demands that cleaner passes and partial drains both ran.
  bool fine_grained;
};

// Test listings print the shape's name rather than its bytes.
void PrintTo(const StormShape& shape, std::ostream* os) { *os << shape.name; }

class DirectoryStormTest : public ::testing::TestWithParam<StormShape> {};

// Runs fn(0..n-1) on n threads that start together, each pinned to a CPU of
// its own when the process may use at least n: a scheduler that leaves new
// threads on their parent's CPU would time-slice the storm, and the races it
// exists to open would almost never open.
void RunTogether(int n, const std::function<void(int)>& fn) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; c++) {
      if (CPU_ISSET(c, &allowed)) {
        cpus.push_back(c);
      }
    }
  }
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < n; t++) {
    threads.emplace_back([&, t] {
      if (cpus.size() >= static_cast<size_t>(n)) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[t], &one);
        pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      }
      ready++;
      while (ready.load() < n) {
        std::this_thread::yield();
      }
      fn(t);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
}

TEST_P(DirectoryStormTest, ModelsLfsckAndRemountAgree) {
  const StormShape& shape = GetParam();
  constexpr int kStormThreads = 4;
  constexpr int kStormOps = 1000;
  constexpr uint64_t kNames = 4;  // per thread, and as many rename targets

  LfsConfig cfg = ConcurrentConfig();
  if (shape.fine_grained) {
    cfg.adaptive_cleaning = true;
    cfg.partial_compaction = true;
    cfg.cleaner_qos_bytes_per_sec = 4.0 * 1024 * 1024;
  }
  MemDisk disk(cfg.block_size, shape.disk_blocks);
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();

  struct File {
    InodeNum ino = kNilInode;
    std::vector<uint8_t> content;
  };
  using Model = std::map<std::string, File>;  // name in the directory -> file
  std::map<std::string, Model> dirs;           // directory path -> its model

  if (shape.prefill_files > 0) {
    ASSERT_OK(fs->Mkdir("/pre"));
    Model& pre = dirs["/pre"];
    for (int i = 0; i < shape.prefill_files; i++) {
      ASSERT_OK_AND_ASSIGN(InodeNum ino, fs->Create("/pre/f" + std::to_string(i)));
      File& f = pre["f" + std::to_string(i)];
      f = File{ino, TestContent(i, 4096)};
      ASSERT_OK(fs->WriteAt(ino, 0, f.content));
    }
    for (int i = 0; i < shape.prefill_files; i += 3) {
      File& f = pre["f" + std::to_string(i)];
      f.content = TestContent(100000 + i, 4096);
      ASSERT_OK(fs->WriteAt(f.ino, 0, f.content));
    }
  }
  std::vector<Model*> models;
  for (int t = 0; t < kStormThreads; t++) {
    std::string dir = "/t" + std::to_string(t);
    ASSERT_OK(fs->Mkdir(dir));
    models.push_back(&dirs[dir]);
  }

  auto storm = [&](int t) {
    const std::string dir = "/t" + std::to_string(t) + "/";
    Model& model = *models[t];
    Rng rng(shape.seed * 7919 + t);
    auto any_file = [&] {
      auto it = model.begin();
      std::advance(it, rng.NextBelow(model.size()));
      return it;
    };
    for (int i = 0; i < kStormOps; i++) {
      double dice = rng.NextDouble();
      if (dice < 0.35 || model.empty()) {  // create + write
        std::string name = std::string("f") + std::to_string(rng.NextBelow(kNames));
        if (model.count(name) != 0) {
          continue;
        }
        auto ino = fs->Create(dir + name);
        if (!ino.ok()) {
          ADD_FAILURE() << "create " << dir << name << ": " << ino.status().ToString();
          return;
        }
        std::vector<uint8_t> data =
            TestContent(rng.NextU64(), 512 + rng.NextBelow(8 * 1024));
        Status st = fs->WriteAt(*ino, 0, data);
        if (!st.ok()) {
          ADD_FAILURE() << "write " << dir << name << ": " << st.ToString();
          return;
        }
        model[name] = File{*ino, std::move(data)};
      } else if (dice < 0.55) {  // overwrite a prefix
        auto it = any_file();
        std::vector<uint8_t> data = TestContent(rng.NextU64(), 1 + rng.NextBelow(2 * 1024));
        Status st = fs->WriteAt(it->second.ino, 0, data);
        if (!st.ok()) {
          ADD_FAILURE() << "overwrite " << dir << it->first << ": " << st.ToString();
          return;
        }
        std::vector<uint8_t>& content = it->second.content;
        content.resize(std::max(content.size(), data.size()));
        std::copy(data.begin(), data.end(), content.begin());
      } else if (dice < 0.7) {  // read back and verify
        auto it = any_file();
        std::vector<uint8_t> got(it->second.content.size());
        auto n = fs->ReadAt(it->second.ino, 0, got);
        if (!n.ok() || *n != got.size() || got != it->second.content) {
          ADD_FAILURE() << "read " << dir << it->first << " (ino " << it->second.ino
                        << ") disagrees with the model"
                        << (n.ok() ? "" : ": " + n.status().ToString());
          return;
        }
      } else if (dice < 0.85) {  // rename to an absent target
        auto it = any_file();
        std::string to = std::string("r") + std::to_string(rng.NextBelow(kNames));
        if (model.count(to) != 0) {
          continue;
        }
        Status st = fs->Rename(dir + it->first, dir + to);
        if (!st.ok()) {
          ADD_FAILURE() << "rename " << dir << it->first << " -> " << to << ": "
                        << st.ToString();
          return;
        }
        model[to] = std::move(it->second);
        model.erase(it);
      } else {  // unlink
        auto it = any_file();
        Status st = fs->Unlink(dir + it->first);
        if (!st.ok()) {
          ADD_FAILURE() << "unlink " << dir << it->first << ": " << st.ToString();
          return;
        }
        model.erase(it);
      }
    }
  };
  RunTogether(kStormThreads, storm);
  ASSERT_FALSE(HasFailure()) << "storm failed (seed " << shape.seed << ")";

  // The root lists exactly the model's directories; each directory lists
  // exactly its model's names, each resolving to the model's inode and
  // reading back the model's bytes.
  auto verify = [&](LfsFileSystem* f, const char* when) {
    auto root = f->ReadDir("/");
    ASSERT_TRUE(root.ok()) << when << ": " << root.status().ToString();
    ASSERT_EQ(root->size(), dirs.size()) << when;
    for (const DirEntry& de : *root) {
      auto dir = dirs.find("/" + de.name);
      ASSERT_NE(dir, dirs.end()) << when << ": unexpected /" << de.name;
      auto entries = f->ReadDir(dir->first);
      ASSERT_TRUE(entries.ok()) << when << ": " << entries.status().ToString();
      EXPECT_EQ(entries->size(), dir->second.size()) << when << ": " << dir->first;
      for (const DirEntry& e : *entries) {
        std::string path = dir->first + "/" + e.name;
        auto file = dir->second.find(e.name);
        if (file == dir->second.end()) {
          ADD_FAILURE() << when << ": " << path << " is not in the model";
          continue;
        }
        EXPECT_EQ(e.ino, file->second.ino) << when << ": " << path;
        auto st = f->Stat(e.ino);
        ASSERT_TRUE(st.ok()) << when << ": " << path << ": " << st.status().ToString();
        EXPECT_EQ(st->size, file->second.content.size()) << when << ": " << path;
        std::vector<uint8_t> got(file->second.content.size());
        auto n = f->ReadAt(e.ino, 0, got);
        ASSERT_TRUE(n.ok()) << when << ": " << path << ": " << n.status().ToString();
        EXPECT_EQ(got, file->second.content) << when << ": " << path;
      }
    }
  };
  verify(fs.get(), "mounted");
  ASSERT_FALSE(HasFailure());

  ASSERT_OK(fs->Sync());
  if (shape.fine_grained) {
    EXPECT_GT(fs->stats().cleaner_passes, 0u);
    EXPECT_GT(fs->stats().partial_compactions, 0u);
  }
  ASSERT_OK(fs->Unmount());
  fs.reset();
  auto report = CheckLfsImage(&disk);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::string detail;
  for (const auto& m : report->messages) {
    detail += "\n  " + m;
  }
  EXPECT_EQ(report->errors, 0u) << report->Summary() << detail;

  ASSERT_OK_AND_ASSIGN(auto fs2, LfsFileSystem::Mount(&disk, cfg));
  verify(fs2.get(), "remounted");
  ASSERT_OK(fs2->Unmount());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DirectoryStormTest,
    ::testing::Values(StormShape{"Reuse", 1, 8192, 0, false},
                      StormShape{"Cleaner", 2, 2048, 250, true}),
    [](const ::testing::TestParamInfo<StormShape>& shape) {
      return std::string(shape.param.name);
    });

}  // namespace
}  // namespace lfs
