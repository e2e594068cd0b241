#include "src/sim/sim.h"

#include <algorithm>
#include <cassert>

namespace lfs::sim {

double FormulaWriteCost(double u) {
  if (u <= 0.0) {
    return 1.0;  // an empty segment need not be read at all
  }
  return 2.0 / (1.0 - u);
}

CleaningSimulator::CleaningSimulator(const SimConfig& config)
    : cfg_(config), rng_(config.seed) {
  uint64_t total_blocks = uint64_t{cfg_.nsegments} * cfg_.blocks_per_segment;
  nfiles_ = static_cast<uint32_t>(cfg_.disk_utilization * static_cast<double>(total_blocks));
  // Leave headroom so the cleaner can always make progress.
  uint32_t max_files = static_cast<uint32_t>(
      (uint64_t{cfg_.nsegments} - cfg_.clean_target - 2) * cfg_.blocks_per_segment);
  nfiles_ = std::min(nfiles_, max_files);
  assert(nfiles_ > 0);
  hot_files_ = static_cast<uint32_t>(cfg_.hot_file_fraction * nfiles_);
  hot_files_ = std::max<uint32_t>(hot_files_, 1);

  segments_.resize(cfg_.nsegments);
  for (Segment& s : segments_) {
    s.slots.reserve(cfg_.blocks_per_segment);
  }
  victim_index_.Reset(cfg_.nsegments, cfg_.blocks_per_segment);
  clean_count_ = cfg_.nsegments;
  file_seg_.resize(nfiles_);
  file_mtime_.assign(nfiles_, 0);
  file_slot_.resize(nfiles_);

  // Initial state: write every file once, sequentially.
  for (uint32_t f = 0; f < nfiles_; f++) {
    AppendFile(static_cast<int32_t>(f), /*cleaning=*/false);
  }
  // The initial fill is not part of any measurement.
  new_blocks_ = 0;
}

int32_t CleaningSimulator::PickFileToOverwrite() {
  if (cfg_.pattern == AccessPattern::kUniform) {
    return static_cast<int32_t>(rng_.NextBelow(nfiles_));
  }
  if (rng_.NextBool(cfg_.hot_access_fraction)) {
    return static_cast<int32_t>(rng_.NextBelow(hot_files_));
  }
  if (hot_files_ >= nfiles_) {
    return static_cast<int32_t>(rng_.NextBelow(nfiles_));
  }
  return static_cast<int32_t>(hot_files_ + rng_.NextBelow(nfiles_ - hot_files_));
}

void CleaningSimulator::EnsureWritableSegment(bool cleaning) {
  bool use_clean_cursor = cleaning && cfg_.separate_cleaning_cursor;
  uint32_t& cursor = use_clean_cursor ? clean_cursor_ : new_cursor_;
  if (cursor != UINT32_MAX && segments_[cursor].slots.size() < cfg_.blocks_per_segment) {
    return;
  }
  if (!cleaning && clean_count_ <= cfg_.clean_reserve) {
    RunCleaner();
  }
  for (uint32_t s = 0; s < segments_.size(); s++) {
    if (segments_[s].clean && s != new_cursor_ && s != clean_cursor_) {
      segments_[s].clean = false;
      segments_[s].slots.clear();
      segments_[s].live = 0;
      segments_[s].last_write = 0;
      victim_index_.Insert(s, 0, 0);
      clean_count_--;
      cursor = s;
      return;
    }
  }
  assert(false && "simulator ran out of segments; utilization too high");
}

void CleaningSimulator::AppendFile(int32_t file, bool cleaning) {
  EnsureWritableSegment(cleaning);
  uint32_t cursor =
      (cleaning && cfg_.separate_cleaning_cursor) ? clean_cursor_ : new_cursor_;
  Segment& seg = segments_[cursor];
  seg.slots.push_back(file);
  seg.live++;
  seg.last_write = std::max(seg.last_write, file_mtime_[file]);
  victim_index_.Update(cursor, seg.live, seg.last_write);
  file_seg_[file] = cursor;
  file_slot_[file] = static_cast<uint32_t>(seg.slots.size() - 1);
  if (cleaning) {
    copied_blocks_++;
  } else {
    new_blocks_++;
  }
}

uint32_t CleaningSimulator::PickVictim() {
  VictimIndex::Cursor cursor =
      victim_index_.Select(cfg_.policy == Policy::kGreedy, now_);
  uint32_t best = VictimIndex::kNone;
  for (uint32_t s = cursor.Next(); s != VictimIndex::kNone; s = cursor.Next()) {
    if (s == new_cursor_ || s == clean_cursor_) {
      continue;  // the write cursors are never victims
    }
    best = s;
    break;
  }
  return best;  // kNone == UINT32_MAX, the historical "no victim" value
}

void CleaningSimulator::RunCleaner() {
  // Snapshot the utilization of every segment available to the cleaner at
  // the moment cleaning is initiated (the Figure 5/6 distributions).
  for (uint32_t s = 0; s < segments_.size(); s++) {
    if (!segments_[s].clean && s != new_cursor_ && s != clean_cursor_) {
      segment_distribution_.Add(static_cast<double>(segments_[s].live) /
                                cfg_.blocks_per_segment);
    }
  }

  while (clean_count_ < cfg_.clean_target) {
    uint32_t victim = PickVictim();
    if (victim == UINT32_MAX) {
      break;
    }
    Segment& seg = segments_[victim];
    double u = static_cast<double>(seg.live) / cfg_.blocks_per_segment;
    segments_cleaned_++;
    cleaned_distribution_.Add(u);
    if (seg.live == 0) {
      empty_cleaned_++;  // no read required (write cost contribution 1.0)
    } else {
      sum_cleaned_u_ += u;
      read_blocks_ += cfg_.blocks_per_segment;
    }

    std::vector<int32_t> live;
    live.reserve(seg.live);
    for (int32_t f : seg.slots) {
      if (f >= 0) {
        live.push_back(f);
      }
    }
    seg.slots.clear();
    seg.live = 0;
    seg.last_write = 0;
    seg.clean = true;
    victim_index_.Remove(victim);
    clean_count_++;

    if (cfg_.age_sort) {
      // Group blocks of similar age together (Section 3.4, policy 4).
      std::stable_sort(live.begin(), live.end(), [this](int32_t a, int32_t b) {
        return file_mtime_[a] < file_mtime_[b];
      });
    }
    for (int32_t f : live) {
      AppendFile(f, /*cleaning=*/true);
    }
  }
}

void CleaningSimulator::Step() {
  int32_t f = PickFileToOverwrite();
  now_++;
  steps_++;
  // Kill the old copy.
  Segment& old_seg = segments_[file_seg_[f]];
  old_seg.slots[file_slot_[f]] = -1;
  old_seg.live--;
  victim_index_.Update(file_seg_[f], old_seg.live, old_seg.last_write);
  file_mtime_[f] = now_;
  AppendFile(f, /*cleaning=*/false);
}

void CleaningSimulator::ResetMeasurement() {
  new_blocks_ = copied_blocks_ = read_blocks_ = 0;
  segments_cleaned_ = empty_cleaned_ = 0;
  sum_cleaned_u_ = 0.0;
  steps_ = 0;
  segment_distribution_ = Histogram(50);
  cleaned_distribution_ = Histogram(50);
}

SimResult CleaningSimulator::Snapshot() const {
  SimResult r;
  r.steps = steps_;
  r.segments_cleaned = segments_cleaned_;
  if (new_blocks_ > 0) {
    r.write_cost = static_cast<double>(read_blocks_ + copied_blocks_ + new_blocks_) /
                   static_cast<double>(new_blocks_);
  }
  uint64_t nonempty = segments_cleaned_ - empty_cleaned_;
  r.avg_cleaned_utilization =
      nonempty > 0 ? sum_cleaned_u_ / static_cast<double>(nonempty) : 0.0;
  r.empty_cleaned_fraction =
      segments_cleaned_ > 0
          ? static_cast<double>(empty_cleaned_) / static_cast<double>(segments_cleaned_)
          : 0.0;
  r.segment_distribution = segment_distribution_;
  r.cleaned_distribution = cleaned_distribution_;
  return r;
}

uint32_t CleaningSimulator::clean_segments() const { return clean_count_; }

double CleaningSimulator::ActualDiskUtilization() const {
  return static_cast<double>(nfiles_) /
         (static_cast<double>(cfg_.nsegments) * cfg_.blocks_per_segment);
}

SimResult CleaningSimulator::Run() {
  uint64_t warmup = cfg_.warmup_overwrites_per_file * nfiles_;
  for (uint64_t i = 0; i < warmup; i++) {
    Step();
  }
  ResetMeasurement();
  uint64_t measure = cfg_.measure_overwrites_per_file * nfiles_;
  for (uint64_t i = 0; i < measure; i++) {
    Step();
  }
  return Snapshot();
}

}  // namespace lfs::sim
