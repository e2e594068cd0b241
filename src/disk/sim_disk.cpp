#include "src/disk/sim_disk.h"

namespace lfs {

DiskStats DiskStats::operator-(const DiskStats& other) const {
  DiskStats d;
  d.reads = reads - other.reads;
  d.writes = writes - other.writes;
  d.bytes_read = bytes_read - other.bytes_read;
  d.bytes_written = bytes_written - other.bytes_written;
  d.seeks = seeks - other.seeks;
  d.busy_sec = busy_sec - other.busy_sec;
  d.seek_sec = seek_sec - other.seek_sec;
  return d;
}

void SimDisk::Charge(BlockNo block, uint64_t count, bool is_write) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t offset = block * block_size();
  uint64_t bytes = count * block_size();
  bool seeked = offset != model_.head_position();
  double service = model_.Access(offset, bytes);
  stats_.busy_sec += service;
  if (seeked) {
    stats_.seeks++;
    stats_.seek_sec += service - model_.TransferTime(bytes);
  }
  if (is_write) {
    stats_.writes++;
    stats_.bytes_written += bytes;
    write_latency_.Record(service);
  } else {
    stats_.reads++;
    stats_.bytes_read += bytes;
    read_latency_.Record(service);
  }
}

Status SimDisk::Read(BlockNo block, uint64_t count, std::span<uint8_t> out) {
  LFS_RETURN_IF_ERROR(backing_->Read(block, count, out));
  Charge(block, count, /*is_write=*/false);
  return OkStatus();
}

Status SimDisk::WriteV(BlockNo block, uint64_t count, WriteParts parts) {
  LFS_RETURN_IF_ERROR(backing_->WriteV(block, count, parts));
  Charge(block, count, /*is_write=*/true);
  return OkStatus();
}

}  // namespace lfs
