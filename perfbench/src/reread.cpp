// reread: one client does 4 KB ReadAt calls with Zipf(0.9) skew over a file
// set twice the size of the caches, so the read path, the LFS read cache
// (PaperLfsConfig's 8 MB) and the 16 MB CachedBlockDevice do the work. The
// timed phase writes nothing and never cleans: it is the contrast for any
// write-path change. The set-up's file writes, creates and Syncs give this
// workload's write, meta and sync latencies.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "perfbench/src/measure.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kFiles = 3072;
constexpr uint64_t kBlocksPerFile = 4;  // 16 KB files, 48 MB in all
constexpr double kZipfS = 0.9;
// Reads per --seconds, sized so the timed phase lasts about --seconds on a
// 4-vCPU host.
constexpr double kReadsPerSecond = 650e3;
// Untimed reads before the timed phase, enough to cycle both caches twice.
constexpr uint64_t kWarmupReads = 2 * (kBlockCacheBlocks + 2048);
// The set-up Syncs every 2 MB, so that each set-up has the 20 Syncs its own
// median needs and sync_p50_ms is a median over set-ups. The first set-up
// runs on freshly mapped memory and is slower.
constexpr uint64_t kSetupSyncEveryBytes = 2ull << 20;

struct Script {
  std::vector<uint32_t> warmup;  // file * kBlocksPerFile + block
  std::vector<uint32_t> timed;
};

Script Generate(uint64_t seed, double seconds) {
  lfs::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5E);
  ZipfSampler zipf(kFiles, kZipfS, rng);
  auto draw = [&] {
    return static_cast<uint32_t>(zipf.Next(rng) * kBlocksPerFile + rng.NextBelow(kBlocksPerFile));
  };
  Script s;
  s.warmup.resize(kWarmupReads);
  for (uint32_t& b : s.warmup) {
    b = draw();
  }
  s.timed.resize(static_cast<size_t>(seconds * kReadsPerSecond));
  for (uint32_t& b : s.timed) {
    b = draw();
  }
  return s;
}

std::string PathOf(uint64_t file) { return "/r/f" + std::to_string(file); }

// mkfs and the file set; every set-up call is timed into a new group of `lat`.
lfs::Status Populate(Stack* stack, const PayloadPool& pool, std::vector<lfs::InodeNum>* inos,
                     Latencies* lat, RunResult* r) {
  LFS_RETURN_IF_ERROR(stack->Mkfs());
  lfs::FileSystem* fs = stack->fs();
  LFS_RETURN_IF_ERROR(fs->Mkdir("/r"));
  lat->NewGroup();
  lfs::Status st;
  std::vector<uint8_t> buf(kBlocksPerFile * kBlockBytes);
  uint64_t since_sync = 0;
  auto sync = [&] {
    uint64_t start = NowNs();
    lfs::Status s = fs->Sync();
    lat->sync.back().push_back(NowNs() - start);
    return s;
  };
  for (uint64_t f = 0; f < kFiles; f++) {
    r->attempted += 2;
    uint64_t start = NowNs();
    auto ino = fs->Create(PathOf(f));
    lat->meta.back().push_back(NowNs() - start);
    if (!ino.ok()) {
      return ino.status();
    }
    (*inos)[f] = *ino;
    for (uint64_t b = 0; b < kBlocksPerFile; b++) {
      pool.Fill(f, b, 1, &buf[b * kBlockBytes]);
    }
    start = NowNs();
    st = fs->WriteAt(*ino, 0, buf);
    lat->write.back().push_back(NowNs() - start);
    if (!st.ok()) {
      return st;
    }
    since_sync += buf.size();
    if (since_sync >= kSetupSyncEveryBytes) {
      r->attempted++;
      LFS_RETURN_IF_ERROR(sync());
      since_sync = 0;
    }
  }
  r->attempted++;
  return sync();
}

}  // namespace

uint64_t RereadScriptDigest(uint64_t seed, double seconds) {
  Script s = Generate(seed, seconds);
  uint64_t h = Fnv1a(kFnvBasis, s.warmup.data(), s.warmup.size() * sizeof(s.warmup[0]));
  return Fnv1a(h, s.timed.data(), s.timed.size() * sizeof(s.timed[0]));
}

RunResult RunReread(const Options& opts) {
  RunResult r;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Script> script;
  std::unique_ptr<PayloadPool> pool;
  std::vector<lfs::InodeNum> inos(kFiles);
  std::vector<uint8_t> buf(kBlockBytes);
  for (int i = 0; i < opts.setups; i++) {
    stack.reset();
    uint64_t start = NowNs();
    script = std::make_unique<Script>(Generate(opts.seed, opts.seconds));
    pool = std::make_unique<PayloadPool>(opts.seed);
    stack = std::make_unique<Stack>(lfs::bench::PaperLfsConfig(), /*cached=*/true, opts.trace);
    lfs::Status st = Populate(stack.get(), *pool, &inos, &r.lat, &r);
    for (size_t k = 0; st.ok() && k < script->warmup.size(); k++) {
      uint32_t b = script->warmup[k];
      st = stack->fs()
               ->ReadAt(inos[b / kBlocksPerFile], b % kBlocksPerFile * kBlockBytes, buf)
               .status();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "reread setup: %s\n", st.ToString().c_str());
      r.failed++;
      return r;
    }
    r.setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }

  lfs::FileSystem* fs = stack->fs();
  const size_t n = script->timed.size();
  r.before = stack->Snapshot();
  double cpu0 = ThreadCpuSeconds();
  Clocks start = stack->ReadClocks();
  Tracer::SetEnabled(opts.trace);
  uint64_t failed = 0;
  for (int round = 0; round < kRounds; round++) {
    auto [first, last] = RoundRange(n, round);
    r.lat.NewGroup();
    std::vector<uint64_t>& lat = r.lat.read.back();
    lat.reserve(last - first);
    Clocks round_start = stack->ReadClocks();
    for (size_t k = first; k < last; k++) {
      DriverOp op(static_cast<uint32_t>(k + 1));
      uint32_t b = script->timed[k];
      uint64_t file = b / kBlocksPerFile;
      uint64_t block = b % kBlocksPerFile;
      uint64_t t0 = NowNs();
      auto got = fs->ReadAt(inos[file], block * kBlockBytes, buf);
      lat.push_back(NowNs() - t0);
      Stamp s = PayloadPool::ReadStamp(buf.data());
      if (!got.ok() || *got != kBlockBytes || !PayloadPool::StampNames(s, file, block) ||
          s.version != 1) {
        failed++;
      }
    }
    r.rounds.emplace_back(round_start, stack->ReadClocks(), last - first,
                          (last - first) * kBlockBytes);
  }
  Clocks end = stack->ReadClocks();
  Tracer::SetEnabled(false);
  r.Timed(start, end);
  if (opts.trace) {
    Tracer::Current()->MarkWorker(end.ns - start.ns);
  }
  r.worker_cpu_s.push_back(ThreadCpuSeconds() - cpu0);
  r.ops = n;
  r.attempted += n;
  r.failed += failed;
  r.after = stack->Snapshot();
  r.write_cost = stack->lfs()->stats().WriteCost();

  // Every block of the recovered file set reads back at version 1.
  auto verify = [&](lfs::FileSystem* recovered) {
    for (uint64_t f = 0; f < kFiles; f++) {
      r.attempted++;
      auto ino = recovered->Lookup(PathOf(f));
      if (!ino.ok()) {
        r.failed++;
        continue;
      }
      for (uint64_t b = 0; b < kBlocksPerFile; b++) {
        r.attempted++;
        auto got = recovered->ReadAt(*ino, b * kBlockBytes, buf);
        if (!got.ok() || *got != kBlockBytes || !pool->Matches(buf.data(), f, b, 1)) {
          r.failed++;
        }
      }
    }
  };
  lfs::Status st = CrashAndRecover(stack.get(), *pool, &r, verify);
  if (!st.ok()) {
    std::fprintf(stderr, "reread recovery: %s\n", st.ToString().c_str());
    r.failed++;
  }
  return r;
}

}  // namespace perfbench
