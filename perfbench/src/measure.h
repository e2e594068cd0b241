// Measurement primitives of the benchmark: host clocks and CPU accounting,
// percentile arithmetic, the seeded payload pool that stamps every written
// block, and the Zipf sampler the read-heavy scripts draw from.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/util/rng.h"

namespace perfbench {

// --- host clocks and diagnostics ----------------------------------------------

uint64_t NowNs();              // steady_clock, nanoseconds
double ProcessCpuSeconds();    // user + sys of the whole process
double ThreadCpuSeconds();     // user + sys of the calling thread
double StealSeconds();         // host CPU steal from /proc/stat, summed over CPUs
double PeakRssMb();            // peak resident set of the process
// Rate of a fixed integer loop, in millions of iterations per second. Recorded
// beside each run so two sets of runs can be compared for host speed.
double CalibrationMops();

// --- percentiles ----------------------------------------------------------------
//
// Quantiles are nearest-rank: the per-mille quantile q of n samples is the
// sample of rank ceil(q * n / 1000). A quantile is reported only when at
// least ten samples lie beyond it.

inline constexpr uint64_t kMinSamplesBeyond = 10;

// Samples strictly above the nearest-rank `per_mille` quantile of n samples.
uint64_t SamplesBeyond(uint64_t n, uint32_t per_mille);
// The highest of p50, p90, p99 and p99.9 (as 500, 900, 990, 999) that has at
// least kMinSamplesBeyond samples beyond it; 0 when even p50 has not.
uint32_t SupportedPerMille(uint64_t n);
// Nearest-rank quantile of `v` (reorders it). `v` must be non-empty.
uint64_t Quantile(std::vector<uint64_t>& v, uint32_t per_mille);
// Median of `v`; the mean of the middle pair for an even count. Non-empty.
double Median(std::vector<double> v);

// Samples of one measurement, kept in groups (the rounds of a timed phase,
// or the set-ups).
using SampleGroups = std::vector<std::vector<uint64_t>>;
uint64_t SampleCount(const SampleGroups& groups);
// The per-mille quantile of grouped samples (reorders them): the median of
// the non-empty groups' own quantiles when each of them supports it, else the
// quantile of all samples pooled. nullopt when even the pool does not.
std::optional<double> GroupedQuantile(SampleGroups& groups, uint32_t per_mille);

// --- payload --------------------------------------------------------------------

inline constexpr uint32_t kBlockBytes = 4096;

// Every block the benchmark writes starts with a stamp naming the file, the
// block within the file and the version of the write; the rest of the block
// is a slice of a seeded random pool chosen by the stamp. A read checks the
// stamp; the final read-back checks the whole block.
struct Stamp {
  uint64_t magic = 0;
  uint64_t file = 0;
  uint64_t block = 0;
  uint64_t version = 0;
};

class PayloadPool {
 public:
  explicit PayloadPool(uint64_t seed);

  // Writes the block (file, block, version) into out[0, kBlockBytes).
  void Fill(uint64_t file, uint64_t block, uint64_t version, uint8_t* out) const;
  // True when `in` holds exactly that block.
  bool Matches(const uint8_t* in, uint64_t file, uint64_t block, uint64_t version) const;

  static Stamp ReadStamp(const uint8_t* in);
  // True when `in` carries a stamp for (file, block), of any version.
  static bool StampNames(const Stamp& s, uint64_t file, uint64_t block);

 private:
  const uint8_t* Body(uint64_t file, uint64_t block, uint64_t version) const;

  std::vector<uint8_t> pool_;
};

// FNV-1a over `n` bytes, continuing from `h` (start from kFnvBasis). Used to
// digest generated scripts for the determinism self-test.
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
inline uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; i++) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

// --- Zipf -----------------------------------------------------------------------

// Zipf(s) over n items: rank r (0-based) has weight 1 / (r + 1)^s. Ranks map
// to items through a seeded permutation, so the hot items are scattered over
// the file set rather than being the first files created.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s, lfs::Rng& perm_rng);
  uint64_t Next(lfs::Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> item_of_rank_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
