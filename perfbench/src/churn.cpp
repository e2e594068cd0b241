// churn: one client churns small files on a disk held at 75% utilization,
// so the write path, the cleaner, checkpoints and recovery do the work.
//
// The file-size mix and the deletion pattern follow the Table 2 production
// workloads (bench_common's RunWorkload): exponential sizes with a 24 KB mean
// and a 3% tail up to 4 MB, half of the prefill never touched again, and
// deletions in runs of files created together, which is what empties whole
// segments. Files are created, written in 64 KB calls and closed through
// FdTable; Unlink and Sync go to the filesystem directly.
//
// Sizes are dealt from a deck holding the distribution's quantiles, shuffled
// by the seed, so every seed sees the same size mix in a different order; a
// freely sampled 3% tail made bytes per op differ by ~10% between seeds.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "perfbench/src/measure.h"
#include "perfbench/src/workloads.h"
#include "src/fs/fd_table.h"

namespace perfbench {
namespace {

constexpr uint64_t kMeanFileBytes = 24 * 1024;
constexpr uint64_t kMaxFileBytes = 4ull << 20;
// Live user bytes are held at 72% of the disk, which the filesystem's own
// accounting (user data plus metadata over the segment area) reads as 74-75%.
// At 75% user bytes, a large file now and then crosses LFS's 80% allocation
// limit and fails with NoSpace.
constexpr double kTargetUtilization = 0.72;
constexpr double kColdShare = 0.5;
constexpr uint64_t kWriteCallBytes = 64 * 1024;
constexpr size_t kMaxUnlinkRun = 12;
constexpr uint64_t kDeckBodies = 970;  // per deck of 1,000 sizes; the rest are tail sizes
// User bytes churned per --seconds. Sized so that a run's timed phase lasts
// about --seconds on a 4-vCPU host; the volume, not the clock, ends the run.
constexpr double kChurnBytesPerSecond = 60e6;

struct Event {
  enum Type : uint8_t { kCreate, kUnlink, kSync };
  Type type;
  uint32_t file;
};

struct Script {
  std::vector<uint64_t> size;     // bytes, by file id
  std::vector<std::string> path;  // by file id
  std::vector<Event> prefill;
  std::vector<Event> timed;
};

// Deals file sizes from a seeded shuffle of the size distribution's quantiles.
class SizeDeck {
 public:
  SizeDeck() {
    constexpr uint64_t kTail = 1000 - kDeckBodies;
    auto quantile = [](double mean, double u, uint64_t cap) {
      return std::min(static_cast<uint64_t>(-mean * std::log(1.0 - u)) + 1, cap);
    };
    for (uint64_t i = 0; i < kDeckBodies; i++) {
      sizes_.push_back(quantile(kMeanFileBytes * 2.0 / 5.0, (i + 0.5) / kDeckBodies, 256 * 1024));
    }
    for (uint64_t i = 0; i < kTail; i++) {
      sizes_.push_back(quantile(kMeanFileBytes * 20.0, (i + 0.5) / kTail, kMaxFileBytes));
    }
  }

  uint64_t Deal(lfs::Rng& rng) {
    if (next_ == sizes_.size()) {
      next_ = 0;
    }
    if (next_ == 0) {
      for (size_t i = sizes_.size() - 1; i > 0; i--) {
        std::swap(sizes_[i], sizes_[rng.NextBelow(i + 1)]);
      }
    }
    return sizes_[next_++];
  }

 private:
  std::vector<uint64_t> sizes_;
  size_t next_ = 0;
};

uint64_t BlockRound(uint64_t bytes) {
  return (bytes + kBlockBytes - 1) / kBlockBytes * kBlockBytes;
}

Script Generate(uint64_t seed, double seconds) {
  Script s;
  lfs::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC4);
  std::vector<uint32_t> hot;  // churnable files, in creation order
  uint64_t live = 0;          // block-rounded bytes of live files
  const double target = kTargetUtilization * static_cast<double>(kDiskBytes);
  auto below_target = [&] { return static_cast<double>(live + kMeanFileBytes) < target; };
  SizeDeck deck;
  auto create = [&](bool may_be_cold, std::vector<Event>* out, uint64_t size) {
    auto id = static_cast<uint32_t>(s.size.size());
    s.size.push_back(size);
    s.path.push_back("/c/f" + std::to_string(id));
    out->push_back(Event{Event::kCreate, id});
    live += BlockRound(size);
    if (!may_be_cold || !rng.NextBool(kColdShare)) {
      hot.push_back(id);
    }
    return size;
  };
  auto unlink_run = [&](std::vector<Event>* out) {
    size_t run = 1 + rng.NextBelow(kMaxUnlinkRun);
    size_t idx = rng.NextBelow(hot.size());
    size_t end = std::min(idx + run, hot.size());
    for (size_t i = idx; i < end; i++) {
      out->push_back(Event{Event::kUnlink, hot[i]});
      live -= BlockRound(s.size[hot[i]]);
    }
    hot.erase(hot.begin() + static_cast<std::ptrdiff_t>(idx),
              hot.begin() + static_cast<std::ptrdiff_t>(end));
  };

  while (below_target()) {
    create(true, &s.prefill, deck.Deal(rng));
  }
  s.prefill.push_back(Event{Event::kSync, 0});

  // Syncs come every 8 MB on average, at gaps drawn from [4 MB, 12 MB). A
  // fixed 8 MB gap is a whole number of segments, so the write buffer held
  // about the same amount at every Sync of a run, and the Sync's cost (mostly
  // the CRC of the buffered blocks) followed the seed.
  auto sync_gap = [&] { return kSyncEveryBytes / 2 + rng.NextBelow(kSyncEveryBytes); };
  const auto volume = static_cast<uint64_t>(seconds * kChurnBytesPerSecond);
  uint64_t written = 0;
  uint64_t since_sync = 0;
  uint64_t gap = sync_gap();
  while (written < volume && !hot.empty()) {
    unlink_run(&s.timed);
    while (below_target()) {
      uint64_t n = create(false, &s.timed, deck.Deal(rng));
      written += n;
      since_sync += n;
      if (since_sync >= gap) {
        s.timed.push_back(Event{Event::kSync, 0});
        since_sync = 0;
        gap = sync_gap();
      }
    }
  }
  s.timed.push_back(Event{Event::kSync, 0});
  return s;
}

// Runs script events against the stack; `lat` is null outside the timed phase
// and otherwise takes the samples into its last group.
class Driver {
 public:
  Driver(Stack* stack, const Script& script, const PayloadPool& pool, RunResult* r)
      : stack_(stack), fds_(stack->fs()), script_(script), pool_(pool), r_(r),
        buf_(kWriteCallBytes) {}

  void Run(const Event& e, Latencies* lat) {
    switch (e.type) {
      case Event::kCreate:
        Create(e.file, lat);
        break;
      case Event::kUnlink: {
        DriverOp op(++op_id_);
        uint64_t start = NowNs();
        lfs::Status st = stack_->fs()->Unlink(script_.path[e.file]);
        Done(st, start, lat ? &lat->meta : nullptr);
        break;
      }
      case Event::kSync: {
        // A Sync inside which a cleaning pass ran (churn cleans on the
        // calling thread) takes 30-90 ms instead of 0.1-4 ms. Such Syncs are
        // 15-25% of a run, a share that follows the seed and moved the
        // median by 40% between seeds, so they are left out of the samples;
        // the traced run counts them as cleaner stalls.
        DriverOp op(++op_id_);
        const uint64_t passes = stack_->lfs()->stats().cleaner_passes;
        uint64_t start = NowNs();
        lfs::Status st = stack_->fs()->Sync();
        bool cleaned = stack_->lfs()->stats().cleaner_passes != passes;
        Done(st, start, lat && !cleaned ? &lat->sync : nullptr);
        break;
      }
    }
  }

  uint64_t ops() const { return ops_; }
  uint64_t bytes() const { return bytes_; }

 private:
  void Create(uint32_t id, Latencies* lat) {
    int fd = -1;
    {
      DriverOp op(++op_id_);
      uint64_t start = NowNs();
      ScopedSpan span(SpanKind::kFdOpen);
      auto opened =
          fds_.Open(script_.path[id], lfs::kWrOnly | lfs::kCreate | lfs::kExclusive);
      Done(opened.status(), start, nullptr);
      if (!opened.ok()) {
        return;
      }
      fd = *opened;
    }
    const uint64_t size = script_.size[id];
    for (uint64_t off = 0; off < size; off += kWriteCallBytes) {
      DriverOp op(++op_id_);
      uint64_t n = std::min(kWriteCallBytes, size - off);
      for (uint64_t b = 0; b * kBlockBytes < n; b++) {
        pool_.Fill(id, off / kBlockBytes + b, 1, &buf_[b * kBlockBytes]);
      }
      uint64_t start = NowNs();
      ScopedSpan span(SpanKind::kFdWrite);
      auto wrote = fds_.Write(fd, std::span<const uint8_t>(buf_.data(), n));
      Done(wrote.status(), start, lat ? &lat->write : nullptr);
      bytes_ += n;
    }
    DriverOp op(++op_id_);
    uint64_t start = NowNs();
    ScopedSpan span(SpanKind::kFdClose);
    Done(fds_.Close(fd), start, nullptr);
  }

  void Done(const lfs::Status& st, uint64_t start_ns, SampleGroups* samples) {
    if (samples != nullptr) {
      samples->back().push_back(NowNs() - start_ns);
    }
    ops_++;
    r_->attempted++;
    if (!st.ok()) {
      if (r_->failed < 10) {
        std::fprintf(stderr, "churn: %s\n", st.ToString().c_str());
      }
      r_->failed++;
    }
  }

  Stack* stack_;
  lfs::FdTable fds_;
  const Script& script_;
  const PayloadPool& pool_;
  RunResult* r_;
  std::vector<uint8_t> buf_;
  uint32_t op_id_ = 0;
  uint64_t ops_ = 0;
  uint64_t bytes_ = 0;
};

// Checks the recovered namespace against the script: /c holds exactly the
// files live at the last Sync, and each reads back intact. Each call's
// cached re-read is one of churn's read latency samples, one group per
// mount.
void Verify(lfs::FileSystem* fs, const Script& s, const PayloadPool& pool, RunResult* r) {
  const size_t n = s.size.size();
  std::vector<uint8_t> live(n, 0), seen(n, 0);
  for (const auto* phase : {&s.prefill, &s.timed}) {
    for (const Event& e : *phase) {
      if (e.type != Event::kSync) {
        live[e.file] = e.type == Event::kCreate;
      }
    }
  }
  auto fail = [&](const std::string& what) {
    if (r->failed < 10) {
      std::fprintf(stderr, "churn verify: %s\n", what.c_str());
    }
    r->failed++;
  };
  r->attempted++;
  auto entries = fs->ReadDir("/c");
  if (!entries.ok()) {
    fail("readdir /c: " + entries.status().ToString());
    return;
  }
  for (const lfs::DirEntry& e : *entries) {
    uint64_t id = e.name.size() > 1 ? std::strtoull(e.name.c_str() + 1, nullptr, 10) : n;
    if (id >= n || !live[id]) {
      fail("unexpected file " + e.name);
      continue;
    }
    seen[id] = 1;
  }

  // Files are read back in the 64 KB calls they were written in, each call
  // twice. The first, cold read is checked. The second finds the blocks in
  // the LFS read cache and is timed: cold reads follow the host's memory
  // contention, and their p50 and p99 spread by 24-25% over ten seeds.
  std::vector<uint8_t> got(kWriteCallBytes), want(kBlockBytes);
  r->lat.read.emplace_back();
  for (size_t id = 0; id < n; id++) {
    if (!live[id]) {
      continue;
    }
    r->attempted += 2;
    auto ino = seen[id] ? fs->Lookup(s.path[id]) : lfs::Result<lfs::InodeNum>(lfs::NotFoundError(s.path[id]));
    auto st = ino.ok() ? fs->Stat(*ino) : lfs::Result<lfs::FileStat>(ino.status());
    if (!st.ok() || st->size != s.size[id]) {
      fail("missing or bad size: " + s.path[id]);
      continue;
    }
    for (uint64_t off = 0; off < st->size; off += kWriteCallBytes) {
      const std::span<uint8_t> call(got.data(), std::min<uint64_t>(kWriteCallBytes, st->size - off));
      r->attempted++;
      auto cold = fs->ReadAt(*ino, off, call);
      if (!cold.ok() || *cold != call.size()) {
        fail("bad read at " + std::to_string(off) + " of " + s.path[id]);
        continue;
      }
      for (uint64_t b = 0; b * kBlockBytes < call.size(); b++) {
        uint64_t block_len = std::min<uint64_t>(kBlockBytes, call.size() - b * kBlockBytes);
        pool.Fill(id, off / kBlockBytes + b, 1, want.data());
        if (std::memcmp(&got[b * kBlockBytes], want.data(), block_len) != 0) {
          fail("bad block " + std::to_string(off / kBlockBytes + b) + " of " + s.path[id]);
        }
      }
      r->attempted++;
      uint64_t start = NowNs();
      auto cached = fs->ReadAt(*ino, off, call);
      r->lat.read.back().push_back(NowNs() - start);
      if (!cached.ok() || *cached != call.size()) {
        fail("bad cached read at " + std::to_string(off) + " of " + s.path[id]);
      }
    }
  }
}

}  // namespace

uint64_t ChurnScriptDigest(uint64_t seed, double seconds) {
  Script s = Generate(seed, seconds);
  uint64_t h = Fnv1a(kFnvBasis, s.size.data(), s.size.size() * sizeof(s.size[0]));
  for (const auto* events : {&s.prefill, &s.timed}) {
    for (const Event& e : *events) {
      h = Fnv1a(h, &e.type, sizeof(e.type));
      h = Fnv1a(h, &e.file, sizeof(e.file));
    }
  }
  return h;
}

RunResult RunChurn(const Options& opts) {
  RunResult r;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Script> script;
  std::unique_ptr<PayloadPool> pool;
  for (int i = 0; i < opts.setups; i++) {
    stack.reset();
    uint64_t start = NowNs();
    script = std::make_unique<Script>(Generate(opts.seed, opts.seconds));
    pool = std::make_unique<PayloadPool>(opts.seed);
    stack = std::make_unique<Stack>(lfs::bench::PaperLfsConfig(), /*cached=*/false, opts.trace);
    lfs::Status st = stack->Mkfs();
    if (st.ok()) {
      st = stack->fs()->Mkdir("/c");
    }
    if (!st.ok()) {
      std::fprintf(stderr, "churn setup: %s\n", st.ToString().c_str());
      r.failed++;
      return r;
    }
    Driver prefill(stack.get(), *script, *pool, &r);
    for (const Event& e : script->prefill) {
      prefill.Run(e, nullptr);
    }
    r.setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }

  Driver timed(stack.get(), *script, *pool, &r);
  r.before = stack->Snapshot();
  double cpu0 = ThreadCpuSeconds();
  Clocks start = stack->ReadClocks();
  Tracer::SetEnabled(opts.trace);
  for (int k = 0; k < kRounds; k++) {
    r.lat.NewGroup();
    Clocks round_start = stack->ReadClocks();
    uint64_t ops0 = timed.ops();
    uint64_t bytes0 = timed.bytes();
    auto [first, last] = RoundRange(script->timed.size(), k);
    for (size_t i = first; i < last; i++) {
      timed.Run(script->timed[i], &r.lat);
    }
    r.rounds.emplace_back(round_start, stack->ReadClocks(), timed.ops() - ops0,
                          timed.bytes() - bytes0);
  }
  Clocks end = stack->ReadClocks();
  Tracer::SetEnabled(false);
  r.Timed(start, end);
  if (opts.trace) {
    Tracer::Current()->MarkWorker(end.ns - start.ns);
  }
  r.worker_cpu_s.push_back(ThreadCpuSeconds() - cpu0);
  r.ops = timed.ops();
  r.user_write_bytes = timed.bytes();
  r.after = stack->Snapshot();
  r.write_cost = stack->lfs()->stats().WriteCost();

  lfs::Status st = CrashAndRecover(stack.get(), *pool, &r,
                                   [&](lfs::FileSystem* fs) { Verify(fs, *script, *pool, &r); });
  if (!st.ok()) {
    std::fprintf(stderr, "churn recovery: %s\n", st.ToString().c_str());
    r.failed++;
  }
  return r;
}

}  // namespace perfbench
