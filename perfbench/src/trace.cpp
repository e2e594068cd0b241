#include "perfbench/src/trace.h"

#include <algorithm>
#include <cstdio>

#include "perfbench/src/measure.h"

namespace perfbench {

Layer LayerOf(SpanKind kind) {
  switch (kind) {
    case SpanKind::kDriverOp:
      return Layer::kDriver;
    case SpanKind::kFdOpen:
    case SpanKind::kFdWrite:
    case SpanKind::kFdClose:
      return Layer::kFdTable;
    case SpanKind::kLfsCreate:
    case SpanKind::kLfsWrite:
    case SpanKind::kLfsRead:
    case SpanKind::kLfsUnlink:
    case SpanKind::kLfsSync:
    case SpanKind::kLfsOther:
      return Layer::kLfs;
    case SpanKind::kCacheRead:
    case SpanKind::kCacheWrite:
    case SpanKind::kCacheOther:
      return Layer::kBlockCache;
    case SpanKind::kDiskRead:
    case SpanKind::kDiskWrite:
    case SpanKind::kDiskOther:
    case SpanKind::kCount:
      break;
  }
  return Layer::kDisk;
}

const char* SpanName(SpanKind kind) {
  static constexpr const char* kNames[kSpanKinds] = {
      "driver.op",         "fd_table.open",     "fd_table.write", "fd_table.close",
      "lfs.create",        "lfs.write",         "lfs.read",       "lfs.unlink",
      "lfs.sync",          "lfs.other",         "block_cache.read", "block_cache.write",
      "block_cache.other", "disk.read",         "disk.write",     "disk.other"};
  return kNames[static_cast<size_t>(kind)];
}

// --- ThreadTrace ---------------------------------------------------------------

void ThreadTrace::Begin(SpanKind kind, uint64_t now_ns) {
  stack_.push_back(Open{kind, now_ns, 0, next_id_++});
}

void ThreadTrace::End(uint64_t now_ns) {
  Open open = stack_.back();
  stack_.pop_back();
  uint64_t dur = now_ns - open.start_ns;
  SpanAgg& a = agg_[static_cast<size_t>(open.kind)];
  a.calls++;
  a.total_ns += dur;
  a.self_ns += dur - std::min(dur, open.child_ns);
  uint32_t parent = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    parent = stack_.back().id;
  }
  if (records_.size() < kMaxRecords) {
    records_.push_back(SpanRecord{open.start_ns, now_ns, open.id, parent, op_, open.kind});
  }
}

// --- Tracer ----------------------------------------------------------------------

std::atomic<bool> Tracer::enabled_{false};
std::mutex Tracer::mu_;
std::vector<std::unique_ptr<ThreadTrace>> Tracer::threads_;

ThreadTrace* Tracer::Current() {
  // The registry owns every trace, so a thread's spans outlive the thread
  // (the cleaner thread exits before its spans are read).
  thread_local ThreadTrace* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadTrace>());
    mine = threads_.back().get();
  }
  return mine;
}

std::vector<const ThreadTrace*> Tracer::All() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ThreadTrace*> out;
  for (const auto& t : threads_) {
    out.push_back(t.get());
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "thread,id,parent,op,name,start_ns,end_ns\n");
  size_t thread = 0;
  for (const ThreadTrace* t : All()) {
    for (const SpanRecord& r : t->records()) {
      std::fprintf(f, "%zu,%u,%u,%u,%s,%llu,%llu\n", thread, r.id, r.parent, r.op,
                   SpanName(r.kind), static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
    }
    thread++;
  }
  return std::fclose(f) == 0;
}

uint64_t ScopedSpan::NowNsForTrace() { return NowNs(); }

// --- TracedFileSystem ------------------------------------------------------------

template <typename F>
auto TracedFileSystem::Call(SpanKind kind, F&& f) {
  if (!Tracer::enabled()) {
    return f();
  }
  ThreadTrace* t = Tracer::Current();
  uint64_t passes = stats_->cleaner_passes;
  uint64_t start = NowNs();
  t->Begin(kind, start);
  auto result = f();
  uint64_t end = NowNs();
  t->End(end);
  if (stats_->cleaner_passes != passes) {
    t->cleaner_stall_ops++;
    t->cleaner_stall_ns += end - start;
  }
  return result;
}

lfs::Result<lfs::InodeNum> TracedFileSystem::Create(std::string_view path) {
  return Call(SpanKind::kLfsCreate, [&] { return inner_->Create(path); });
}
lfs::Status TracedFileSystem::Mkdir(std::string_view path) {
  return Call(SpanKind::kLfsOther, [&] { return inner_->Mkdir(path); });
}
lfs::Status TracedFileSystem::Unlink(std::string_view path) {
  return Call(SpanKind::kLfsUnlink, [&] { return inner_->Unlink(path); });
}
lfs::Status TracedFileSystem::Rmdir(std::string_view path) {
  return Call(SpanKind::kLfsOther, [&] { return inner_->Rmdir(path); });
}
lfs::Status TracedFileSystem::Link(std::string_view existing, std::string_view link_path) {
  return Call(SpanKind::kLfsOther, [&] { return inner_->Link(existing, link_path); });
}
lfs::Status TracedFileSystem::Rename(std::string_view from, std::string_view to) {
  return Call(SpanKind::kLfsOther, [&] { return inner_->Rename(from, to); });
}
lfs::Result<lfs::InodeNum> TracedFileSystem::Lookup(std::string_view path) {
  return Call(SpanKind::kLfsOther, [&] { return inner_->Lookup(path); });
}
lfs::Result<lfs::FileStat> TracedFileSystem::Stat(lfs::InodeNum ino) {
  return Call(SpanKind::kLfsOther, [&] { return inner_->Stat(ino); });
}
lfs::Result<std::vector<lfs::DirEntry>> TracedFileSystem::ReadDir(std::string_view path) {
  return Call(SpanKind::kLfsOther, [&] { return inner_->ReadDir(path); });
}
lfs::Status TracedFileSystem::WriteAt(lfs::InodeNum ino, uint64_t offset,
                                      std::span<const uint8_t> data) {
  return Call(SpanKind::kLfsWrite, [&] { return inner_->WriteAt(ino, offset, data); });
}
lfs::Result<uint64_t> TracedFileSystem::ReadAt(lfs::InodeNum ino, uint64_t offset,
                                               std::span<uint8_t> out) {
  return Call(SpanKind::kLfsRead, [&] { return inner_->ReadAt(ino, offset, out); });
}
lfs::Status TracedFileSystem::Truncate(lfs::InodeNum ino, uint64_t new_size) {
  return Call(SpanKind::kLfsOther, [&] { return inner_->Truncate(ino, new_size); });
}
lfs::Status TracedFileSystem::Sync() {
  return Call(SpanKind::kLfsSync, [&] { return inner_->Sync(); });
}

// --- TracedDevice ----------------------------------------------------------------

SpanKind TracedDevice::Kind(int op) const {
  static constexpr SpanKind kCache[3] = {SpanKind::kCacheRead, SpanKind::kCacheWrite,
                                         SpanKind::kCacheOther};
  static constexpr SpanKind kDisk[3] = {SpanKind::kDiskRead, SpanKind::kDiskWrite,
                                        SpanKind::kDiskOther};
  return layer_ == Layer::kBlockCache ? kCache[op] : kDisk[op];
}

lfs::Status TracedDevice::Read(lfs::BlockNo block, uint64_t count, std::span<uint8_t> out) {
  counts_.read_calls.fetch_add(1, std::memory_order_relaxed);
  counts_.read_blocks.fetch_add(count, std::memory_order_relaxed);
  if (under_lfs_ && Tracer::enabled()) {
    ThreadTrace* t = Tracer::Current();
    if (t->Innermost() == SpanKind::kLfsRead) {
      t->lfs_read_device_blocks += count;
    }
  }
  ScopedSpan span(Kind(0));
  return inner_->Read(block, count, out);
}

lfs::Status TracedDevice::Write(lfs::BlockNo block, uint64_t count,
                                std::span<const uint8_t> data) {
  counts_.write_calls.fetch_add(1, std::memory_order_relaxed);
  counts_.write_blocks.fetch_add(count, std::memory_order_relaxed);
  ScopedSpan span(Kind(1));
  return inner_->Write(block, count, data);
}

lfs::Status TracedDevice::Flush() {
  ScopedSpan span(Kind(2));
  return inner_->Flush();
}

lfs::Status TracedDevice::Trim(lfs::BlockNo block, uint64_t count) {
  ScopedSpan span(Kind(2));
  return inner_->Trim(block, count);
}

}  // namespace perfbench
