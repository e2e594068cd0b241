// Benchmark-side tracing: spans recorded around every call that crosses a
// layer boundary, by decorators the traced run inserts into the stack
//
//   driver -> FdTable -> TracedFileSystem -> LfsFileSystem
//          -> TracedDevice("block_cache") -> CachedBlockDevice
//          -> TracedDevice("disk") -> SimDisk
//
// A span has a kind (which names its layer), a start and an end, a parent and
// the driver op it belongs to. Each thread keeps its own open-span stack,
// per-kind aggregates and a capped list of raw spans; nothing is shared
// between threads while spans are recorded. A span's self time is its
// duration minus the durations of the child spans it encloses. Calls made
// by a thread with no open span (the cleaner thread) are roots of their own.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/disk/block_device.h"
#include "src/fs/file_system.h"
#include "src/lfs/stats.h"

namespace perfbench {

enum class Layer : uint8_t { kDriver, kFdTable, kLfs, kBlockCache, kDisk };

enum class SpanKind : uint8_t {
  kDriverOp,  // one scripted op of the driver loop
  kFdOpen,
  kFdWrite,
  kFdClose,
  kLfsCreate,
  kLfsWrite,
  kLfsRead,
  kLfsUnlink,
  kLfsSync,
  kLfsOther,  // lookup, stat, mkdir, ... (namespace calls FdTable makes)
  kCacheRead,
  kCacheWrite,
  kCacheOther,  // flush, trim
  kDiskRead,
  kDiskWrite,
  kDiskOther,
  kCount
};
inline constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::kCount);

Layer LayerOf(SpanKind kind);
const char* SpanName(SpanKind kind);

struct SpanAgg {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

struct SpanRecord {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 for a root
  uint32_t op = 0;      // driver op id, 0 outside the driver loop
  SpanKind kind = SpanKind::kDriverOp;
};

// One thread's spans. Only its own thread mutates it; readers wait until the
// thread has stopped recording (the run has quiesced).
class ThreadTrace {
 public:
  static constexpr size_t kMaxRecords = 1 << 16;

  // Timestamps are explicit so the self-time arithmetic can be tested.
  void Begin(SpanKind kind, uint64_t now_ns);
  void End(uint64_t now_ns);
  // The innermost open span's kind, or kCount when none is open.
  SpanKind Innermost() const {
    return stack_.empty() ? SpanKind::kCount : stack_.back().kind;
  }

  void set_op(uint32_t op) { op_ = op; }
  // Marks this thread as a driver worker whose timed loop lasted `wall_ns`.
  void MarkWorker(uint64_t wall_ns) { worker_wall_ns_ = wall_ns; }
  uint64_t worker_wall_ns() const { return worker_wall_ns_; }

  const std::array<SpanAgg, kSpanKinds>& agg() const { return agg_; }
  const std::vector<SpanRecord>& records() const { return records_; }

  // Per-layer counts measured at the boundaries.
  uint64_t lfs_read_device_blocks = 0;  // blocks LFS asked its device for inside ReadAt
  uint64_t cleaner_stall_ops = 0;       // FS calls across which a cleaning pass ran
  uint64_t cleaner_stall_ns = 0;

 private:
  struct Open {
    SpanKind kind;
    uint64_t start_ns;
    uint64_t child_ns;
    uint32_t id;
  };
  std::vector<Open> stack_;
  std::array<SpanAgg, kSpanKinds> agg_{};
  std::vector<SpanRecord> records_;
  uint32_t next_id_ = 1;
  uint32_t op_ = 0;
  uint64_t worker_wall_ns_ = 0;
};

// Process-wide switch and registry of per-thread traces.
class Tracer {
 public:
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  // The calling thread's trace, created on first use.
  static ThreadTrace* Current();
  // Every thread's trace. Call only once recording threads have quiesced.
  static std::vector<const ThreadTrace*> All();
  // Writes every raw span as CSV (thread,id,parent,op,name,start_ns,end_ns).
  static bool WriteCsv(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
  static std::mutex mu_;
  static std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

// Opens a span for its lifetime when tracing is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) : t_(Tracer::enabled() ? Tracer::Current() : nullptr) {
    if (t_ != nullptr) {
      t_->Begin(kind, NowNsForTrace());
    }
  }
  ~ScopedSpan() {
    if (t_ != nullptr) {
      t_->End(NowNsForTrace());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static uint64_t NowNsForTrace();
  ThreadTrace* t_;
};

// FileSystem decorator: one lfs.* span per call, plus the cleaner-stall count
// (calls across which the filesystem's cleaner_passes counter advanced).
class TracedFileSystem : public lfs::FileSystem {
 public:
  TracedFileSystem(lfs::FileSystem* inner, const lfs::LfsStats* stats)
      : inner_(inner), stats_(stats) {}

  lfs::Result<lfs::InodeNum> Create(std::string_view path) override;
  lfs::Status Mkdir(std::string_view path) override;
  lfs::Status Unlink(std::string_view path) override;
  lfs::Status Rmdir(std::string_view path) override;
  lfs::Status Link(std::string_view existing, std::string_view link_path) override;
  lfs::Status Rename(std::string_view from, std::string_view to) override;
  lfs::Result<lfs::InodeNum> Lookup(std::string_view path) override;
  lfs::Result<lfs::FileStat> Stat(lfs::InodeNum ino) override;
  lfs::Result<std::vector<lfs::DirEntry>> ReadDir(std::string_view path) override;
  lfs::Status WriteAt(lfs::InodeNum ino, uint64_t offset,
                      std::span<const uint8_t> data) override;
  lfs::Result<uint64_t> ReadAt(lfs::InodeNum ino, uint64_t offset,
                               std::span<uint8_t> out) override;
  lfs::Status Truncate(lfs::InodeNum ino, uint64_t new_size) override;
  lfs::Status Sync() override;

 private:
  template <typename F>
  auto Call(SpanKind kind, F&& f);

  lfs::FileSystem* inner_;
  const lfs::LfsStats* stats_;
};

// Call and block counts a TracedDevice saw, from every thread.
struct DeviceCounts {
  std::atomic<uint64_t> read_calls{0};
  std::atomic<uint64_t> read_blocks{0};
  std::atomic<uint64_t> write_calls{0};
  std::atomic<uint64_t> write_blocks{0};
};

// BlockDevice decorator: one span per call in the layer of the device it
// wraps (kBlockCache above CachedBlockDevice, kDisk above SimDisk). The
// decorator directly under LFS also charges read blocks to an enclosing
// lfs.read span, which gives the LFS read cache's miss traffic.
class TracedDevice : public lfs::BlockDevice {
 public:
  TracedDevice(lfs::BlockDevice* inner, Layer layer, bool under_lfs)
      : inner_(inner), layer_(layer), under_lfs_(under_lfs) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  double ModeledTime() const override { return inner_->ModeledTime(); }

  lfs::Status Read(lfs::BlockNo block, uint64_t count, std::span<uint8_t> out) override;
  lfs::Status Write(lfs::BlockNo block, uint64_t count, std::span<const uint8_t> data) override;
  lfs::Status Flush() override;
  lfs::Status Trim(lfs::BlockNo block, uint64_t count) override;

  const DeviceCounts& counts() const { return counts_; }

 private:
  SpanKind Kind(int op) const;  // 0 read, 1 write, 2 other

  lfs::BlockDevice* inner_;
  Layer layer_;
  bool under_lfs_;
  DeviceCounts counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
