// The Section 3.5 cleaning-policy simulator.
//
// "The simulator models a file system as a fixed number of 4-kbyte files,
// with the number chosen to produce a particular overall disk capacity
// utilization. At each step, the simulator overwrites one of the files with
// new data, using one of two pseudo-random access patterns [uniform /
// hot-and-cold]. ... The simulator runs until all clean segments are
// exhausted, then simulates the actions of a cleaner until a threshold
// number of clean segments is available again."
//
// This module reproduces that model exactly — it is deliberately abstract
// (no real disk), because its purpose is to compare cleaning policies under
// controlled conditions (Figures 4-7). The real filesystem in src/lfs runs
// the same policies against real segments.

#ifndef LFS_SIM_SIM_H_
#define LFS_SIM_SIM_H_

#include <cstdint>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/victim_index.h"

namespace lfs::sim {

enum class AccessPattern {
  kUniform,     // every file equally likely
  kHotAndCold,  // hot_file_fraction of files get hot_access_fraction of writes
};

enum class Policy {
  kGreedy,       // clean the least-utilized segments
  kCostBenefit,  // max (1-u)*age/(1+u)
};

struct SimConfig {
  uint32_t nsegments = 128;
  uint32_t blocks_per_segment = 128;  // 512-KB segments of 4-KB files
  double disk_utilization = 0.75;     // live blocks / total blocks

  AccessPattern pattern = AccessPattern::kUniform;
  double hot_file_fraction = 0.10;    // paper: 10% of files ...
  double hot_access_fraction = 0.90;  // ... receive 90% of writes

  Policy policy = Policy::kGreedy;
  bool age_sort = false;  // sort live blocks by age when rewriting

  // When false (the paper's simulator), cleaned live blocks are written to
  // the same log head as new data, so cold survivors from cleaning mix into
  // hot segments — the effect behind Figure 4's surprising result. When
  // true, the cleaner keeps its own output segments (an ablation showing
  // how much pure segregation alone is worth).
  bool separate_cleaning_cursor = false;

  // Cleaning runs when clean segments are exhausted (below `clean_reserve`)
  // and stops once `clean_target` segments are clean. Small episodes match
  // the paper's dynamics: cleaning only skims the least-utilized segments,
  // so under greedy the cold mass can linger just above the cleaning point
  // (Figure 5). Large values are an ablation: they harvest the cold pile
  // wholesale and make greedy look better than the paper found.
  uint32_t clean_reserve = 1;
  uint32_t clean_target = 4;

  // Steps are measured in file overwrites. Warmup removes cold-start
  // variance (paper: "allowed to run until the write cost stabilized").
  uint64_t warmup_overwrites_per_file = 40;
  uint64_t measure_overwrites_per_file = 40;

  uint64_t seed = 1;
};

struct SimResult {
  double write_cost = 0.0;            // (reads + live copies + new) / new
  double avg_cleaned_utilization = 0.0;
  double empty_cleaned_fraction = 0.0;
  uint64_t segments_cleaned = 0;
  uint64_t steps = 0;
  // Distribution of all segments' utilizations sampled at each cleaning
  // initiation during the measurement phase (Figures 5, 6).
  Histogram segment_distribution{50};
  // Distribution of the utilizations of the segments actually cleaned.
  Histogram cleaned_distribution{50};
};

// The analytic write cost of formula (1): 2/(1-u), with cost 1 at u=0.
double FormulaWriteCost(double u);

class CleaningSimulator {
 public:
  explicit CleaningSimulator(const SimConfig& config);

  // Runs warmup + measurement and returns the measured result.
  SimResult Run();

  // --- lower-level API (used by tests) ---------------------------------------

  void Step();                 // overwrite one file
  void ResetMeasurement();     // forget statistics (end of warmup)
  SimResult Snapshot() const;  // current measured statistics

  uint32_t clean_segments() const;
  uint32_t nfiles() const { return nfiles_; }
  double ActualDiskUtilization() const;

  // Read-only view of the state victim selection works from, so a test can
  // check the index's order against a reference sort.
  struct Segment {
    std::vector<int32_t> slots;  // file occupying each written slot (-1 dead)
    uint32_t live = 0;
    uint64_t last_write = 0;  // newest mtime of data in the segment
    bool clean = true;
  };
  const std::vector<Segment>& segments() const { return segments_; }
  uint32_t new_cursor() const { return new_cursor_; }
  uint32_t clean_cursor() const { return clean_cursor_; }
  uint64_t now() const { return now_; }
  const VictimIndex& victim_index() const { return victim_index_; }

 private:

  void AppendFile(int32_t file, bool cleaning);
  void EnsureWritableSegment(bool cleaning);
  void RunCleaner();
  uint32_t PickVictim();  // best segment per policy, or UINT32_MAX
  int32_t PickFileToOverwrite();

  SimConfig cfg_;
  Rng rng_;
  uint64_t now_ = 1;  // step counter = logical time

  uint32_t nfiles_;
  uint32_t hot_files_;
  std::vector<uint32_t> file_seg_;    // current segment of each file
  std::vector<uint32_t> file_slot_;   // slot index within that segment
  std::vector<uint64_t> file_mtime_;  // last overwrite time of each file
  std::vector<Segment> segments_;
  // All non-clean segments keyed by (live, last_write); PickVictim pops the
  // best-scoring one instead of rescanning the whole segment table.
  VictimIndex victim_index_;
  uint32_t new_cursor_ = UINT32_MAX;    // segment receiving new data
  uint32_t clean_cursor_ = UINT32_MAX;  // segment receiving cleaned data
  uint32_t clean_count_ = 0;

  // Measurement counters.
  uint64_t new_blocks_ = 0;
  uint64_t copied_blocks_ = 0;
  uint64_t read_blocks_ = 0;
  uint64_t segments_cleaned_ = 0;
  uint64_t empty_cleaned_ = 0;
  double sum_cleaned_u_ = 0.0;
  uint64_t steps_ = 0;
  Histogram segment_distribution_{50};
  Histogram cleaned_distribution_{50};
};

}  // namespace lfs::sim

#endif  // LFS_SIM_SIM_H_
