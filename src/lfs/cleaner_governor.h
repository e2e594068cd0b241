// CleanerGovernor: adaptive cleaning-policy selection (ROADMAP item 4;
// Lomet & Luo's observation that the right reclamation policy is a function
// of the observed utilization histogram, not a mount-time constant).
//
// The governor reads the live-utilization histogram the selection index
// already maintains (SegUsage::UtilizationHistogram) and decides, per pass
// and per log, which victim-ordering policy to use:
//
//  * An "emptied-out" dirty population — a large fraction of dirty segments
//    nearly empty — makes greedy optimal: the cheapest victims cost almost
//    nothing to drain, and cost-benefit's age term can only deprioritize
//    them in favor of older-but-fuller segments (more copying for the same
//    space). Hot logs under overwrite-heavy traffic look like this.
//
//  * A mid-utilization population (the bimodal distribution's expensive
//    middle) keeps cost-benefit: paying more copy I/O now for old stable
//    segments buys segments that stay clean, which greedy never learns.
//
//  * With num_logs > 1 the decision is per log: log 0 (metadata + young
//    data) follows the histogram, colder logs always use cost-benefit —
//    their populations age slowly, which is exactly the regime the age term
//    exists for.
//
// A disabled governor decides cfg.policy for every log, so the cleaner always
// selects through its one selector (LfsFileSystem::SelectSegmentsToClean).
// Decisions are pure functions of the inputs, so single-threaded runs stay
// byte-deterministic.

#ifndef LFS_LFS_CLEANER_GOVERNOR_H_
#define LFS_LFS_CLEANER_GOVERNOR_H_

#include <cstdint>
#include <vector>

#include "src/lfs/config.h"

namespace lfs {

struct GovernorDecision {
  CleaningPolicy hot_policy = CleaningPolicy::kCostBenefit;   // log 0
  CleaningPolicy cold_policy = CleaningPolicy::kCostBenefit;  // logs 1..N-1
};

class CleanerGovernor {
 public:
  // A dirty population is "emptied out" when at least kGreedyFraction of
  // its segments sit below kLowU utilization; an emptied-out population
  // makes greedy optimal (the cheapest victims are nearly free and age adds
  // nothing), anything else keeps cost-benefit.
  static constexpr double kGreedyFraction = 0.35;
  static constexpr double kLowU = 0.25;

  void Configure(const LfsConfig& cfg) {
    enabled_ = cfg.adaptive_cleaning;
    fixed_policy_ = cfg.policy;
  }

  bool enabled() const { return enabled_; }

  // `histogram` is the dirty-segment count per utilization bucket (bucket i
  // covers u in [i/n, (i+1)/n)). Counts a policy switch whenever the hot
  // policy differs from the previous decision's.
  GovernorDecision Decide(const std::vector<uint32_t>& histogram) {
    GovernorDecision d;
    if (!enabled_) {
      d.hot_policy = fixed_policy_;
      d.cold_policy = fixed_policy_;
      return d;
    }
    uint64_t total = 0;
    uint64_t low = 0;
    const size_t n = histogram.size();
    for (size_t b = 0; b < n; b++) {
      total += histogram[b];
      // Bucket b holds u < (b+1)/n; count it "low" if that bound stays
      // within kLowU, so the classification is exact at bucket granularity.
      if (n > 0 && static_cast<double>(b + 1) / static_cast<double>(n) <= kLowU) {
        low += histogram[b];
      }
    }
    bool emptied_out =
        total > 0 && static_cast<double>(low) >=
                         kGreedyFraction * static_cast<double>(total);
    d.hot_policy = emptied_out ? CleaningPolicy::kGreedy : CleaningPolicy::kCostBenefit;
    d.cold_policy = CleaningPolicy::kCostBenefit;
    if (has_last_ && d.hot_policy != last_hot_) {
      switches_++;
    }
    has_last_ = true;
    last_hot_ = d.hot_policy;
    return d;
  }

  uint64_t switches() const { return switches_; }

 private:
  bool enabled_ = false;
  CleaningPolicy fixed_policy_ = CleaningPolicy::kCostBenefit;

  CleaningPolicy last_hot_ = CleaningPolicy::kCostBenefit;
  bool has_last_ = false;
  uint64_t switches_ = 0;
};

}  // namespace lfs

#endif  // LFS_LFS_CLEANER_GOVERNOR_H_
