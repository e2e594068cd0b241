#include "src/lfs/seg_usage.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace lfs {

void SegUsage::SyncIndex(SegNo seg) {
  const SegUsageEntry& e = entries_[seg];
  if (e.state == SegState::kDirty) {
    victim_index_.Insert(seg, e.live_bytes, e.last_write);  // insert-or-update
  } else {
    victim_index_.Remove(seg);
  }
  bool zero = e.state == SegState::kDirty && e.live_bytes == 0;
  uint64_t& word = zero_live_words_[seg >> 6];
  uint64_t bit = uint64_t{1} << (seg & 63);
  if (zero && (word & bit) == 0) {
    word |= bit;
    zero_live_dirty_count_++;
  } else if (!zero && (word & bit) != 0) {
    word &= ~bit;
    zero_live_dirty_count_--;
  }
}

void SegUsage::AppendZeroLiveDirty(std::vector<SegNo>* out) const {
  for (size_t w = 0; w < zero_live_words_.size(); w++) {
    uint64_t word = zero_live_words_[w];
    while (word != 0) {
      int bit = std::countr_zero(word);
      word &= word - 1;
      out->push_back(static_cast<SegNo>(w * 64 + bit));
    }
  }
}

void SegUsage::AddLive(SegNo seg, uint32_t bytes, uint64_t mtime) {
  assert(seg < entries_.size());
  std::lock_guard<std::mutex> lock(mu_);
  SegUsageEntry& e = entries_[seg];
  e.live_bytes += bytes;
  total_live_ += bytes;
  assert(e.live_bytes <= segment_bytes_);
  e.last_write = std::max(e.last_write, mtime);
  MarkDirty(seg);
  if (e.state != SegState::kActive) {  // the active segment is never a victim
    SyncIndex(seg);
  }
}

void SegUsage::SubLive(SegNo seg, uint32_t bytes) {
  assert(seg < entries_.size());
  std::lock_guard<std::mutex> lock(mu_);
  SegUsageEntry& e = entries_[seg];
  // Clamp rather than assert: after crash recovery the counts for pre-crash
  // segments are best-effort (Section 4.2's adjustments), so a decrement can
  // race a conservative recomputation.
  uint32_t sub = e.live_bytes >= bytes ? bytes : e.live_bytes;
  e.live_bytes -= sub;
  total_live_ -= sub;
  MarkDirty(seg);
  SyncIndex(seg);
}

void SegUsage::SetState(SegNo seg, SegState state) {
  assert(seg < entries_.size());
  std::lock_guard<std::mutex> lock(mu_);
  SegUsageEntry& e = entries_[seg];
  if (e.state == SegState::kClean && state != SegState::kClean) {
    clean_count_--;
    pending_reuse_.erase(seg);
    if (state == SegState::kActive) {
      e.reuse_count++;  // one fill cycle: the segment's wear counter
    }
  } else if (e.state != SegState::kClean && state == SegState::kClean) {
    clean_count_++;
    total_live_ -= e.live_bytes;
    e.live_bytes = 0;
    e.last_write = 0;
    freed_.push_back(seg);        // TRIM candidate once a checkpoint covers the free
    pending_reuse_.insert(seg);   // unpickable until then (see PickClean)
  }
  if (e.state != SegState::kQuarantined && state == SegState::kQuarantined) {
    quarantined_count_++;
  } else if (e.state == SegState::kQuarantined && state != SegState::kQuarantined) {
    quarantined_count_--;
  }
  if (state != SegState::kDirty) {
    compact_cursors_.erase(seg);  // a drain in progress ends with the segment
  }
  e.state = state;
  MarkDirty(seg);
  SyncIndex(seg);
}

void SegUsage::SetLogId(SegNo seg, uint8_t log_id) {
  assert(seg < entries_.size());
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_[seg].log_id == log_id) {
    return;
  }
  entries_[seg].log_id = log_id;
  MarkDirty(seg);
}

SegNo SegUsage::PickClean(bool include_pending) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (SegNo seg = 0; seg < entries_.size(); seg++) {
    if (entries_[seg].state == SegState::kClean &&
        (include_pending || pending_reuse_.count(seg) == 0)) {
      return seg;
    }
  }
  return kNilSeg;
}

void SegUsage::MarkFreesDurable() {
  std::lock_guard<std::mutex> lock(mu_);
  pending_reuse_.clear();
}

double SegUsage::DiskUtilization() const {
  return static_cast<double>(total_live_) /
         (static_cast<double>(entries_.size()) * segment_bytes_);
}

void SegUsage::EncodeChunk(uint32_t chunk, std::span<uint8_t> block) const {
  std::memset(block.data(), 0, block.size());
  SegNo base = chunk * entries_per_chunk_;
  for (uint32_t i = 0; i < entries_per_chunk_; i++) {
    SegNo seg = base + i;
    if (seg >= entries_.size()) {
      break;
    }
    entries_[seg].EncodeTo(block.subspan(size_t{i} * kUsageEntrySize, kUsageEntrySize));
  }
}

void SegUsage::LoadChunk(uint32_t chunk, std::span<const uint8_t> block) {
  std::lock_guard<std::mutex> lock(mu_);
  SegNo base = chunk * entries_per_chunk_;
  for (uint32_t i = 0; i < entries_per_chunk_; i++) {
    SegNo seg = base + i;
    if (seg >= entries_.size()) {
      break;
    }
    total_live_ -= entries_[seg].live_bytes;
    entries_[seg] = SegUsageEntry::DecodeFrom(block.subspan(size_t{i} * kUsageEntrySize,
                                                            kUsageEntrySize));
    total_live_ += entries_[seg].live_bytes;
    SyncIndex(seg);
  }
}

void SegUsage::RecountClean() {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t clean = 0;
  uint32_t quarantined = 0;
  for (const SegUsageEntry& e : entries_) {
    if (e.state == SegState::kClean) {
      clean++;
    } else if (e.state == SegState::kQuarantined) {
      quarantined++;
    }
  }
  clean_count_ = clean;
  quarantined_count_ = quarantined;
}

}  // namespace lfs
