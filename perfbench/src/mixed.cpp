// mixed: two worker threads on the concurrent front end (plus its cleaner
// thread) over the read cache and the block cache, sharing 1,024 16 KB files
// that exactly fill the 16 MB BlockCache. 70% of ops are 4 KB Zipf reads,
// 25% 4 KB overwrites and 5% create-write-unlink triples on private paths.
// It is the only workload where group commit, the inode stripes and the
// shared caches see contention. Two workers, not four: with four workers and
// the cleaner thread a 4-vCPU host is oversubscribed and throughput follows
// the scheduler rather than the filesystem.
//
// Each worker overwrites only its own half of every file's blocks, so each
// block's version history is known: a read must see a version between the
// last completed and the last issued write of that block. The crash follows
// a Sync, so every block must then read back its last version.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/bench_common.h"
#include "perfbench/src/measure.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kFiles = 1024;
constexpr uint64_t kBlocksPerFile = 4;  // 16 KB files, 16 MB in all
constexpr uint64_t kBlocks = kFiles * kBlocksPerFile;
constexpr int kWorkers = 2;
constexpr double kZipfS = 0.9;
constexpr double kReadShare = 0.70;
constexpr double kOverwriteShare = 0.25;  // the remaining 5% are triples
// Ops per worker per --seconds, sized so the timed phase lasts about
// --seconds on a 4-vCPU host.
constexpr double kOpsPerSecondPerWorker = 55e3;
// Triple files are stamped with ids past the shared set.
constexpr uint64_t kTripleFileBase = 1ull << 32;

struct Op {
  enum Type : uint8_t { kRead, kOverwrite, kTriple, kSync };
  Type type;
  uint32_t target;  // block (file * kBlocksPerFile + block) or triple number
};

std::vector<Op> GenerateWorker(uint64_t seed, int w, double seconds) {
  // One permutation for both workers, so they contend for the same hot files.
  lfs::Rng perm(seed * 0x9E3779B97F4A7C15ull + 0x3D);
  ZipfSampler zipf(kFiles, kZipfS, perm);
  lfs::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x3D + 1 + static_cast<uint64_t>(w));
  std::vector<Op> ops;
  const auto n = static_cast<size_t>(seconds * kOpsPerSecondPerWorker);
  uint64_t since_sync = 0;
  uint32_t triples = 0;
  for (size_t i = 0; i < n; i++) {
    double u = rng.NextDouble();
    auto file = static_cast<uint32_t>(zipf.Next(rng));
    if (u < kReadShare) {
      ops.push_back(Op{Op::kRead, file * 4 + static_cast<uint32_t>(rng.NextBelow(4))});
    } else if (u < kReadShare + kOverwriteShare) {
      // Worker w owns blocks w and w + 2 of every file.
      ops.push_back(
          Op{Op::kOverwrite, file * 4 + 2 * static_cast<uint32_t>(rng.NextBelow(2)) + w});
      since_sync += kBlockBytes;
      if (since_sync >= kSyncEveryBytes / kWorkers) {
        ops.push_back(Op{Op::kSync, 0});
        since_sync = 0;
      }
    } else {
      ops.push_back(Op{Op::kTriple, triples++});
    }
  }
  return ops;
}

struct Shared {
  std::vector<lfs::InodeNum> inos = std::vector<lfs::InodeNum>(kFiles);
  // Per block: the newest version a worker started writing, and the newest
  // whose WriteAt returned.
  std::vector<std::atomic<uint32_t>> issued = std::vector<std::atomic<uint32_t>>(kBlocks);
  std::vector<std::atomic<uint32_t>> done = std::vector<std::atomic<uint32_t>>(kBlocks);
};

struct WorkerOut {
  Latencies lat;  // one group per round
  uint64_t ops = 0;
  uint64_t bytes = 0;
  std::vector<uint64_t> round_ops;
  std::vector<uint64_t> round_bytes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double cpu_s = 0;
};

// Completion of the barrier between rounds: marks the boundary once every
// worker has reached it.
struct RoundMark {
  std::vector<Clocks>* marks;
  Stack* stack;
  void operator()() noexcept { marks->push_back(stack->ReadClocks()); }
};
using RoundBarrier = std::barrier<RoundMark>;

void Worker(int w, const std::vector<Op>& script, Stack* stack, const PayloadPool& pool,
            Shared* sh, RoundBarrier* rounds, WorkerOut* out) {
  lfs::FileSystem* fs = stack->fs();
  std::vector<uint8_t> buf(kBlockBytes);
  const std::string dir = "/m/w" + std::to_string(w) + "/t";
  auto done = [&](bool ok, uint64_t calls) {
    out->ops += calls;
    out->attempted += calls;
    out->failed += ok ? 0 : 1;
  };
  uint64_t waited_ns = 0;
  auto round_boundary = [&] {
    uint64_t t0 = NowNs();
    rounds->arrive_and_wait();
    waited_ns += NowNs() - t0;
  };
  double cpu0 = ThreadCpuSeconds();
  uint64_t start = NowNs();
  round_boundary();
  for (int round = 0; round < kRounds; round++) {
    out->lat.NewGroup();
    Latencies& lat = out->lat;
    uint64_t ops0 = out->ops;
    uint64_t bytes0 = out->bytes;
    auto [first, last] = RoundRange(script.size(), round);
    for (size_t k = first; k < last; k++) {
      DriverOp op(static_cast<uint32_t>(k + 1));
      const Op& o = script[k];
      uint64_t file = o.target / kBlocksPerFile;
      uint64_t block = o.target % kBlocksPerFile;
      switch (o.type) {
        case Op::kRead: {
          uint32_t lo = sh->done[o.target].load(std::memory_order_acquire);
          uint64_t t0 = NowNs();
          auto got = fs->ReadAt(sh->inos[file], block * kBlockBytes, buf);
          lat.read.back().push_back(NowNs() - t0);
          uint32_t hi = sh->issued[o.target].load(std::memory_order_acquire);
          Stamp s = PayloadPool::ReadStamp(buf.data());
          done(got.ok() && *got == kBlockBytes && PayloadPool::StampNames(s, file, block) &&
                   s.version >= lo && s.version <= hi,
               1);
          out->bytes += kBlockBytes;
          break;
        }
        case Op::kOverwrite: {
          uint32_t v = sh->issued[o.target].load(std::memory_order_relaxed) + 1;
          sh->issued[o.target].store(v, std::memory_order_release);
          pool.Fill(file, block, v, buf.data());
          uint64_t t0 = NowNs();
          lfs::Status st = fs->WriteAt(sh->inos[file], block * kBlockBytes, buf);
          lat.write.back().push_back(NowNs() - t0);
          sh->done[o.target].store(v, std::memory_order_release);
          done(st.ok(), 1);
          out->bytes += kBlockBytes;
          break;
        }
        case Op::kTriple: {
          std::string path = dir + std::to_string(o.target);
          pool.Fill(kTripleFileBase + (static_cast<uint64_t>(w) << 24) + o.target, 0, 1,
                    buf.data());
          uint64_t t0 = NowNs();
          auto ino = fs->Create(path);
          lfs::Status st = ino.ok() ? fs->WriteAt(*ino, 0, buf) : ino.status();
          if (st.ok()) {
            st = fs->Unlink(path);
          }
          lat.meta.back().push_back(NowNs() - t0);
          done(st.ok(), 3);
          out->bytes += kBlockBytes;
          break;
        }
        case Op::kSync: {
          uint64_t t0 = NowNs();
          lfs::Status st = fs->Sync();
          lat.sync.back().push_back(NowNs() - t0);
          done(st.ok(), 1);
          break;
        }
      }
    }
    out->round_ops.push_back(out->ops - ops0);
    out->round_bytes.push_back(out->bytes - bytes0);
    round_boundary();
  }
  // The waits at round boundaries lie outside every span, so they are left
  // out of the wall the spans must account for.
  if (Tracer::enabled()) {
    Tracer::Current()->MarkWorker(NowNs() - start - waited_ns);
  }
  out->cpu_s = ThreadCpuSeconds() - cpu0;
}

lfs::Status Populate(Stack* stack, const PayloadPool& pool, Shared* sh) {
  LFS_RETURN_IF_ERROR(stack->Mkfs());
  lfs::FileSystem* fs = stack->fs();
  LFS_RETURN_IF_ERROR(fs->Mkdir("/m"));
  for (int w = 0; w < kWorkers; w++) {
    LFS_RETURN_IF_ERROR(fs->Mkdir("/m/w" + std::to_string(w)));
  }
  std::vector<uint8_t> buf(kBlocksPerFile * kBlockBytes);
  for (uint64_t f = 0; f < kFiles; f++) {
    auto ino = fs->Create("/m/f" + std::to_string(f));
    if (!ino.ok()) {
      return ino.status();
    }
    sh->inos[f] = *ino;
    for (uint64_t b = 0; b < kBlocksPerFile; b++) {
      pool.Fill(f, b, 1, &buf[b * kBlockBytes]);
      sh->issued[f * kBlocksPerFile + b].store(1);
      sh->done[f * kBlocksPerFile + b].store(1);
    }
    LFS_RETURN_IF_ERROR(fs->WriteAt(*ino, 0, buf));
  }
  LFS_RETURN_IF_ERROR(fs->Sync());
  // One untimed pass over the file set fills the caches.
  for (uint64_t f = 0; f < kFiles; f++) {
    for (uint64_t b = 0; b < kBlocksPerFile; b++) {
      LFS_RETURN_IF_ERROR(
          fs->ReadAt(sh->inos[f], b * kBlockBytes, std::span<uint8_t>(buf.data(), kBlockBytes))
              .status());
    }
  }
  return lfs::OkStatus();
}

// SimDisk's counters may be read only while no thread does I/O: waits (up
// to 2 s) until the cleaner thread has refilled clean_hi segments and the
// disk has been still for 2 ms.
void WaitForIdleCleaner(Stack* stack) {
  lfs::LfsFileSystem* lfs = stack->lfs();
  for (int i = 0; i < 1000; i++) {
    double busy = stack->disk()->ModeledTime();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (lfs->clean_segments() >= lfs->config().clean_hi &&
        busy == stack->disk()->ModeledTime()) {
      return;
    }
  }
}

}  // namespace

uint64_t MixedScriptDigest(uint64_t seed, double seconds) {
  uint64_t h = kFnvBasis;
  for (int w = 0; w < kWorkers; w++) {
    for (const Op& o : GenerateWorker(seed, w, seconds)) {
      h = Fnv1a(h, &o.type, sizeof(o.type));
      h = Fnv1a(h, &o.target, sizeof(o.target));
    }
  }
  return h;
}

RunResult RunMixed(const Options& opts) {
  RunResult r;
  r.workers = kWorkers;
  lfs::LfsConfig cfg = lfs::bench::PaperLfsConfig();
  cfg.concurrent = true;  // the one setting mixed changes
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Shared> sh;
  std::unique_ptr<PayloadPool> pool;
  std::vector<std::vector<Op>> scripts(kWorkers);
  for (int i = 0; i < opts.setups; i++) {
    stack.reset();
    uint64_t start = NowNs();
    for (int w = 0; w < kWorkers; w++) {
      scripts[w] = GenerateWorker(opts.seed, w, opts.seconds);
    }
    pool = std::make_unique<PayloadPool>(opts.seed);
    sh = std::make_unique<Shared>();
    stack = std::make_unique<Stack>(cfg, /*cached=*/true, opts.trace);
    lfs::Status st = Populate(stack.get(), *pool, sh.get());
    if (!st.ok()) {
      std::fprintf(stderr, "mixed setup: %s\n", st.ToString().c_str());
      r.failed++;
      return r;
    }
    r.setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }

  WaitForIdleCleaner(stack.get());
  r.before = stack->Snapshot();
  std::vector<WorkerOut> outs(kWorkers);
  std::vector<Clocks> marks;  // round boundaries
  marks.reserve(kRounds + 1);
  RoundBarrier rounds(kWorkers, RoundMark{&marks, stack.get()});
  Clocks start = stack->ReadClocks();
  Tracer::SetEnabled(opts.trace);
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < kWorkers; w++) {
      workers.emplace_back(
          [&, w] { Worker(w, scripts[w], stack.get(), *pool, sh.get(), &rounds, &outs[w]); });
    }
  }
  Clocks end = stack->ReadClocks();
  Tracer::SetEnabled(false);
  r.Timed(start, end);
  for (int k = 0; k < kRounds; k++) {
    uint64_t ops = 0;
    uint64_t bytes = 0;
    for (const WorkerOut& o : outs) {
      ops += o.round_ops[k];
      bytes += o.round_bytes[k];
    }
    r.rounds.emplace_back(marks[k], marks[k + 1], ops, bytes);
  }
  for (const WorkerOut& o : outs) {
    r.ops += o.ops;
    r.attempted += o.attempted;
    r.failed += o.failed;
    r.worker_cpu_s.push_back(o.cpu_s);
    r.lat.Merge(o.lat);
  }
  for (const auto& script : scripts) {
    r.user_write_bytes +=
        std::count_if(script.begin(), script.end(),
                      [](const Op& o) { return o.type != Op::kRead && o.type != Op::kSync; }) *
        kBlockBytes;
  }
  r.write_cost = stack->lfs()->stats().WriteCost();
  WaitForIdleCleaner(stack.get());
  r.after = stack->Snapshot();

  // Every block of the recovered file set reads back at its last version.
  std::vector<uint8_t> buf(kBlockBytes);
  auto verify = [&](lfs::FileSystem* fs) {
    for (uint64_t f = 0; f < kFiles; f++) {
      r.attempted++;
      auto ino = fs->Lookup("/m/f" + std::to_string(f));
      if (!ino.ok()) {
        r.failed++;
        continue;
      }
      for (uint64_t b = 0; b < kBlocksPerFile; b++) {
        r.attempted++;
        auto got = fs->ReadAt(*ino, b * kBlockBytes, buf);
        uint32_t version = sh->done[f * kBlocksPerFile + b].load();
        if (!got.ok() || *got != kBlockBytes || !pool->Matches(buf.data(), f, b, version)) {
          r.failed++;
        }
      }
    }
  };
  lfs::Status st = CrashAndRecover(stack.get(), *pool, &r, verify);
  if (!st.ok()) {
    std::fprintf(stderr, "mixed recovery: %s\n", st.ToString().c_str());
    r.failed++;
  }
  return r;
}

}  // namespace perfbench
