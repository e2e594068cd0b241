#include "src/lfs/segment_writer.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "src/util/crc32.h"

namespace lfs {

void Frame::GiveBack::operator()(uint8_t* data) const { pool->Give(data); }

Frame FramePool::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) {
    return Frame(this, new uint8_t[block_size_], block_size_);
  }
  Frame frame(this, free_.back().release(), block_size_);
  free_.pop_back();
  return frame;
}

void FramePool::Give(uint8_t* data) {
  std::unique_ptr<uint8_t[]> frame(data);  // freed after the unlock unless kept
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.size() < max_free_) {
    free_.push_back(std::move(frame));
  }
}

void SegmentWriter::Init(SegNo segment, uint32_t offset, uint64_t next_seq) {
  InitLog(0, segment, offset);
  for (uint32_t log = 1; log < logs_.size(); log++) {
    InitLog(log, kNilSeg, 0);
  }
  next_seq_ = next_seq;
  age_ewma_ = 0.0;
}

void SegmentWriter::InitLog(uint32_t log, SegNo segment, uint32_t offset) {
  Log& l = logs_[log];
  std::lock_guard<std::mutex> lk(l.mu);
  l.cur_seg = segment;
  l.cur_offset = offset;
  l.partial.entries.clear();
  l.partial.youngest_mtime = 0;
  l.frames.clear();
  l.frames.push_back(pool_.Take());  // the summary block
  l.parts.assign(1, l.frames[0].span());
}

Status SegmentWriter::AdvanceSegment(Log& log, uint32_t log_index) {
  if (log.cur_seg != kNilSeg) {
    usage_->SetState(log.cur_seg, SegState::kDirty);
  }
  if (!cleaning_ && !privileged_ && usable_clean_segments() == 0) {
    return NoSpaceError("no clean segments available to the write path (clean=" +
                        std::to_string(usage_->clean_count()) + " reserve=" +
                        std::to_string(reserve_segments_) + ")");
  }
  SegNo next = usage_->PickClean(/*include_pending=*/privileged_);
  if (next == kNilSeg) {
    return NoSpaceError("no clean segments at all; log is full");
  }
  usage_->SetState(next, SegState::kActive);
  usage_->SetLogId(next, static_cast<uint8_t>(log_index));
  log.cur_seg = next;
  log.cur_offset = 0;
  return OkStatus();
}

Status SegmentWriter::EnsureRoom(Log& log, uint32_t log_index) {
  if (const size_t n = log.partial.entries.size(); n > 0) {
    // Room inside the open partial: segment space and summary entry space.
    bool segment_full = log.cur_offset + 1 + n >= sb_->segment_blocks;
    bool summary_full = n >= sb_->max_summary_entries();
    if (!segment_full && !summary_full) {
      return OkStatus();
    }
    LFS_RETURN_IF_ERROR(FlushLog(log));
  }
  // Open a new partial: need space for a summary block plus one payload
  // block in the current segment.
  if (log.cur_seg == kNilSeg || log.cur_offset + 2 > sb_->segment_blocks) {
    LFS_RETURN_IF_ERROR(AdvanceSegment(log, log_index));
  }
  return OkStatus();
}

uint32_t SegmentWriter::ClassifyLog(const SummaryEntry& entry, uint64_t mtime,
                                    uint32_t cold_hint) {
  if (logs_.size() == 1) {
    return 0;
  }
  // Metadata churns fast and dies fast: it always rides the hot log.
  if (entry.kind != BlockKind::kData) {
    return 0;
  }
  // Migration ladder: the cleaner has already decided where a migrated
  // block belongs (cold_hint = 1 + target log); just clamp to the logs we
  // actually have.
  if (cold_hint > 0) {
    return std::min(cold_hint - 1, static_cast<uint32_t>(logs_.size() - 1));
  }
  // Direct writes: an age heuristic against the live clock (timestamp_ only
  // refreshes at mount and checkpoint, which would make everything look
  // brand-new in between). The boundary adapts to the workload via a slow
  // EWMA of observed data ages; fresh writes (age 0) keep it near zero, so
  // demand a 4x margin over the mean before calling anything cold.
  uint64_t now = clock_ != nullptr ? clock_->Now() : timestamp_.load();
  uint64_t age = now > mtime ? now - mtime : 0;
  age_ewma_ += (static_cast<double>(age) - age_ewma_) / 16.0;
  uint32_t idx = 0;
  double bound = std::max(age_ewma_.load(), 1.0) * 4.0;
  while (idx + 1 < logs_.size() && static_cast<double>(age) > bound) {
    idx++;
    bound *= 4.0;
  }
  return idx;
}

Result<BlockNo> SegmentWriter::AppendBlock(const SummaryEntry& entry,
                                           std::span<const uint8_t> data, Frame* frame,
                                           uint64_t mtime, uint32_t live_bytes,
                                           uint32_t cold_hint) {
  if (data.size() != sb_->block_size) {
    return InvalidArgumentError("Append: payload must be exactly one block");
  }
  uint32_t log_index = ClassifyLog(entry, mtime, cold_hint);
  // Log-order barrier for recovery: a metadata block (inode, imap/usage
  // chunk, dirlog) incorporates every data block flushed before it, so the
  // partial carrying it must carry a HIGHER sequence number than any partial
  // holding data it references. Metadata rides log 0; data buffered in the
  // cold logs would otherwise flush after it (and with a higher seq) at the
  // batch-closing Flush. Push the cold logs out first so their data
  // sequences below the metadata — then a crash between the two makes
  // roll-forward's contiguous-prefix rule drop the metadata, not the data.
  if (log_index == 0 && entry.kind != BlockKind::kData && logs_.size() > 1) {
    for (size_t i = 1; i < logs_.size(); i++) {
      std::lock_guard<std::mutex> cold_lk(logs_[i].mu);
      LFS_RETURN_IF_ERROR(FlushLog(logs_[i]));
    }
  }
  Log& log = logs_[log_index];
  // Per-log append lock: concurrent appends to distinct logs stay safe with
  // respect to each other (multi-log with concurrent callers).
  std::lock_guard<std::mutex> lk(log.mu);
  LFS_RETURN_IF_ERROR(EnsureRoom(log, log_index));
  const uint32_t bs = sb_->block_size;
  std::vector<SummaryEntry>& entries = log.partial.entries;
  BlockNo addr = sb_->SegmentBase(log.cur_seg) + log.cur_offset + 1 + entries.size();
  log.partial.youngest_mtime = std::max(log.partial.youngest_mtime, mtime);
  log.parts.push_back(data);
  if (frame != nullptr) {
    log.frames.push_back(std::move(*frame));
  }
  entries.push_back(entry);
  entries.back().mtime = mtime;  // per-block age travels in the summary
  usage_->AddLive(log.cur_seg, live_bytes, mtime);
  usage_->SetWriteSeq(log.cur_seg, next_seq_.load());

  // Traffic accounting (Table 4 composition; write-cost numerator).
  stats_->log_bytes_by_kind[static_cast<size_t>(entry.kind)] += bs;
  if (cleaning_) {
    stats_->clean_write_bytes += bs;
  } else {
    stats_->new_payload_bytes += bs;
    if (entry.kind == BlockKind::kData) {
      stats_->new_data_bytes += bs;
    }
  }
  return addr;
}

Status SegmentWriter::FlushLog(Log& log) {
  SegmentSummary& summary = log.partial;
  if (summary.entries.empty()) {
    return OkStatus();
  }
  const uint32_t bs = sb_->block_size;
  const uint32_t n = static_cast<uint32_t>(summary.entries.size());

  // [summary | payload...] goes out as one sequential gather write. The
  // payload CRC taken block by block equals one pass over the payload.
  summary.seq = next_seq_++;
  summary.timestamp = timestamp_;
  uint32_t crc = Crc32Init();
  for (uint32_t i = 1; i <= n; i++) {
    crc = Crc32Update(crc, log.parts[i]);
  }
  summary.payload_crc = Crc32Finish(crc);
  summary.EncodeTo(log.frames[0].span());

  Status write_st = write_(sb_->SegmentBase(log.cur_seg) + log.cur_offset, 1 + n, log.parts);
  if (!write_st.ok()) {
    // The partial was never durable; roll the sequence number back so the
    // caller can re-drive the flush (possibly into a different segment)
    // without leaving a gap that would end roll-forward early.
    next_seq_--;
    return write_st;
  }
  stats_->summary_bytes += bs;
  usage_->SetWriteSeq(log.cur_seg, summary.seq);

  log.cur_offset += 1 + n;
  summary.entries.clear();
  summary.youngest_mtime = 0;
  log.parts.resize(1);
  log.frames.erase(log.frames.begin() + 1, log.frames.end());  // back to the pool
  return OkStatus();
}

Status SegmentWriter::Flush() {
  // Cold logs first, the metadata log (0) last: log 0's open partial may end
  // with inode/imap blocks that reference data buffered in the cold logs,
  // and recovery only accepts a contiguous sequence prefix — the metadata
  // must take the highest sequence number of the batch.
  for (size_t i = logs_.size(); i-- > 0;) {
    Log& log = logs_[i];
    std::lock_guard<std::mutex> lk(log.mu);
    LFS_RETURN_IF_ERROR(FlushLog(log));
  }
  return OkStatus();
}

bool SegmentWriter::ReadBuffered(BlockNo addr, std::span<uint8_t> out) const {
  for (const Log& log : logs_) {
    if (log.partial.entries.empty() || log.cur_seg == kNilSeg) {
      continue;
    }
    BlockNo summary = sb_->SegmentBase(log.cur_seg) + log.cur_offset;
    if (addr <= summary || addr > summary + log.partial.entries.size()) {
      continue;
    }
    std::memcpy(out.data(), log.parts[addr - summary].data(), out.size());
    return true;
  }
  return false;
}

}  // namespace lfs
