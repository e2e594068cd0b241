// SimDisk: wraps a backing BlockDevice with a DiskModel and accumulates I/O
// statistics. All of the paper's performance claims are ratios of disk-time
// quantities (write cost, fraction of bandwidth used for new data, disk %
// busy), which these counters reproduce directly.

#ifndef LFS_DISK_SIM_DISK_H_
#define LFS_DISK_SIM_DISK_H_

#include <memory>
#include <mutex>

#include "src/disk/block_device.h"
#include "src/disk/disk_model.h"
#include "src/obs/latency.h"

namespace lfs {

struct DiskStats {
  uint64_t reads = 0;           // read operations
  uint64_t writes = 0;          // write operations
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t seeks = 0;           // I/Os that required head movement
  double busy_sec = 0.0;        // total modeled service time
  double seek_sec = 0.0;        // time spent seeking + in rotational latency

  DiskStats operator-(const DiskStats& other) const;
  uint64_t total_bytes() const { return bytes_read + bytes_written; }
};

class SimDisk : public BlockDevice {
 public:
  SimDisk(std::unique_ptr<BlockDevice> backing, DiskModelParams params)
      : backing_(std::move(backing)),
        model_(params, backing_->size_bytes()) {}

  uint32_t block_size() const override { return backing_->block_size(); }
  uint64_t block_count() const override { return backing_->block_count(); }

  Status Read(BlockNo block, uint64_t count, std::span<uint8_t> out) override;
  Status Write(BlockNo block, uint64_t count, std::span<const uint8_t> data) override {
    return WriteV(block, count, {&data, 1});
  }
  // One request to the model, whatever the number of parts.
  Status WriteV(BlockNo block, uint64_t count, WriteParts parts) override;
  Status Flush() override { return backing_->Flush(); }
  // Trims are free on the timing model (a queued command, no data transfer)
  // and forward to the backing so an SSD backing can invalidate pages.
  Status Trim(BlockNo block, uint64_t count) override {
    return backing_->Trim(block, count);
  }

  // Quiesced snapshot access; concurrent readers should use ModeledTime().
  const DiskStats& stats() const { return stats_; }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = DiskStats{};
    read_latency_.Clear();
    write_latency_.Clear();
  }

  // Accumulated modeled service time: the deterministic clock the obs layer
  // derives per-operation latencies from. Thread-safe: the model and stats
  // are charged under the same mutex this read takes.
  double ModeledTime() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.busy_sec;
  }

  // Per-request service-time distributions (log2 buckets, microseconds).
  const obs::LatencyHistogram& read_latency() const { return read_latency_; }
  const obs::LatencyHistogram& write_latency() const { return write_latency_; }

  // Full-stream sequential bandwidth of the modeled device (bytes/sec); the
  // denominator in "fraction of raw bandwidth" metrics.
  double raw_bandwidth() const { return model_.params().transfer_bandwidth_bytes_per_sec; }

  BlockDevice* backing() { return backing_.get(); }

 private:
  void Charge(BlockNo block, uint64_t count, bool is_write);

  // Serializes model head movement + stats accumulation so concurrent
  // requests charge deterministic-per-request service times without racing.
  mutable std::mutex mu_;
  std::unique_ptr<BlockDevice> backing_;
  DiskModel model_;
  DiskStats stats_;
  obs::LatencyHistogram read_latency_;
  obs::LatencyHistogram write_latency_;
};

}  // namespace lfs

#endif  // LFS_DISK_SIM_DISK_H_
