#include <cstdio>
#include <cstring>
#include <string>

#include "perfbench/src/workloads.h"
#include "src/disk/mem_disk.h"

namespace perfbench {

namespace {
constexpr uint64_t kTailFiles = 128;
constexpr uint64_t kTailFileBytes = 32 * 1024;
constexpr uint64_t kTailFileBase = 1ull << 40;  // tail files' stamp ids

std::string TailPath(uint64_t i) { return "/tail/f" + std::to_string(i); }

void VerifyCrashTail(lfs::FileSystem* fs, const PayloadPool& pool, RunResult* r) {
  std::vector<uint8_t> got(kBlockBytes), want(kBlockBytes);
  const std::vector<uint8_t> zeros(kBlockBytes, 0);
  for (uint64_t i = 0; i < kTailFiles; i++) {
    r->attempted++;
    auto ino = fs->Lookup(TailPath(i));
    if (!ino.ok()) {
      continue;  // not recovered
    }
    auto st = fs->Stat(*ino);
    if (!st.ok() || st->size > kTailFileBytes) {
      std::fprintf(stderr, "tail verify: bad size for %s\n", TailPath(i).c_str());
      r->failed++;
      continue;
    }
    for (uint64_t off = 0; off < st->size; off += kBlockBytes) {
      uint64_t len = std::min<uint64_t>(kBlockBytes, st->size - off);
      r->attempted++;
      auto n = fs->ReadAt(*ino, off, std::span<uint8_t>(got.data(), len));
      pool.Fill(kTailFileBase + i, off / kBlockBytes, 1, want.data());
      if (!n.ok() || *n != len ||
          (std::memcmp(got.data(), want.data(), len) != 0 &&
           std::memcmp(got.data(), zeros.data(), len) != 0)) {
        std::fprintf(stderr, "tail verify: bad block in %s\n", TailPath(i).c_str());
        r->failed++;
      }
    }
  }
}
}  // namespace

Stack::Stack(const lfs::LfsConfig& cfg, bool cached, bool traced)
    : cfg_(cfg),
      cached_(cached),
      traced_(traced),
      disk_(std::make_unique<lfs::SimDisk>(
          std::make_unique<lfs::MemDisk>(cfg.block_size, kDiskBytes / cfg.block_size),
          lfs::DiskModelParams::WrenIV())) {
  if (traced_) {
    disk_probe_ = std::make_unique<TracedDevice>(disk_.get(), Layer::kDisk, !cached_);
  }
}

Stack::~Stack() = default;

void Stack::BuildUpper() {
  lfs::BlockDevice* lower = traced_ ? static_cast<lfs::BlockDevice*>(disk_probe_.get())
                                    : static_cast<lfs::BlockDevice*>(disk_.get());
  top_ = lower;
  if (cached_) {
    lfs::cache::CachedDeviceOptions opts;
    opts.capacity_blocks = kBlockCacheBlocks;
    cache_ = std::make_unique<lfs::cache::CachedBlockDevice>(lower, opts);
    top_ = cache_.get();
    if (traced_) {
      cache_probe_ = std::make_unique<TracedDevice>(cache_.get(), Layer::kBlockCache, true);
      top_ = cache_probe_.get();
    }
  }
}

lfs::Status Stack::Adopt(lfs::Result<std::unique_ptr<lfs::LfsFileSystem>> fs) {
  if (!fs.ok()) {
    return fs.status();
  }
  lfs_ = std::move(fs).value();
  if (traced_) {
    traced_fs_ = std::make_unique<TracedFileSystem>(lfs_.get(), &lfs_->stats());
  }
  return lfs::OkStatus();
}

lfs::Status Stack::Mkfs() {
  BuildUpper();
  return Adopt(lfs::LfsFileSystem::Mkfs(top_, cfg_));
}

lfs::Status Stack::Mount() {
  BuildUpper();
  return Adopt(lfs::LfsFileSystem::Mount(top_, cfg_));
}

void Stack::Crash() {
  traced_fs_.reset();
  lfs_.reset();
  cache_probe_.reset();
  cache_.reset();
}

std::span<uint8_t> Stack::image() {
  return static_cast<lfs::MemDisk*>(disk_->backing())->raw();
}

Clocks Stack::ReadClocks() const {
  return Clocks{NowNs(), ProcessCpuSeconds(), disk_->ModeledTime()};
}

Counters Stack::Snapshot() {
  Counters c;
  c.lfs = lfs_->stats();
  if (cache_) {
    c.cache = cache_->cache().stats();
  }
  c.disk = disk_->stats();
  if (TracedDevice* probe = under_lfs()) {
    c.under_lfs_write_calls = probe->counts().write_calls.load();
    c.under_lfs_write_blocks = probe->counts().write_blocks.load();
  }
  c.steal_s = StealSeconds();
  return c;
}

namespace {

lfs::Status PrepareAndWriteTail(Stack* stack, const PayloadPool& pool, RunResult* r) {
  lfs::LfsFileSystem* lfs = stack->lfs();
  lfs::Status st;
  for (int pass = 0; st.ok() && pass < 32 && lfs->clean_segments() < 2 * lfs->config().clean_hi;
       pass++) {
    st = lfs->ForceClean().status();
  }
  lfs::FileSystem* fs = stack->fs();
  r->attempted += 2;
  LFS_RETURN_IF_ERROR(st);
  LFS_RETURN_IF_ERROR(fs->Sync());
  r->attempted++;
  LFS_RETURN_IF_ERROR(fs->Mkdir("/tail"));
  std::vector<uint8_t> buf(kTailFileBytes);
  for (uint64_t i = 0; i < kTailFiles; i++) {
    for (uint64_t b = 0; b * kBlockBytes < kTailFileBytes; b++) {
      pool.Fill(kTailFileBase + i, b, 1, &buf[b * kBlockBytes]);
    }
    r->attempted += 2;
    auto ino = fs->Create(TailPath(i));
    LFS_RETURN_IF_ERROR(ino.ok() ? fs->WriteAt(*ino, 0, buf) : ino.status());
  }
  if (stack->cache() != nullptr) {
    r->attempted++;
    LFS_RETURN_IF_ERROR(stack->cache()->Flush());
  }
  return lfs::OkStatus();
}

}  // namespace

lfs::Status CrashAndRecover(Stack* stack, const PayloadPool& pool, RunResult* r,
                            const std::function<void(lfs::FileSystem*)>& verify) {
  LFS_RETURN_IF_ERROR(PrepareAndWriteTail(stack, pool, r));
  stack->Crash();
  std::span<uint8_t> image = stack->image();
  const std::vector<uint8_t> crashed(image.begin(), image.end());
  for (int i = 0; i < kRecoveryMounts; i++) {
    if (i > 0) {
      stack->Crash();
      std::memcpy(image.data(), crashed.data(), crashed.size());
    }
    // The disk decorator's counters are atomic, so they can be read while a
    // concurrent mount's cleaner thread is already running.
    TracedDevice* probe = stack->disk_probe();
    uint64_t read_before = probe ? probe->counts().read_blocks.load() : 0;
    uint64_t start = NowNs();
    r->attempted++;
    LFS_RETURN_IF_ERROR(stack->Mount());
    r->recovery_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    if (i == 0) {
      r->recovery_partials = stack->lfs()->stats().rollforward_partials;
      r->recovery_read_blocks = probe ? probe->counts().read_blocks.load() - read_before : 0;
    }
    verify(stack->fs());
    VerifyCrashTail(stack->fs(), pool, r);
  }
  return lfs::OkStatus();
}

}  // namespace perfbench
