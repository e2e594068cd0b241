#include "perfbench/src/measure.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

namespace {
double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return TimevalSeconds(ru.ru_utime) + TimevalSeconds(ru.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0.0;
  }
  // "cpu  user nice system idle iowait irq softirq steal ..."
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                      &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) {
    return 0.0;
  }
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double CalibrationMops() {
  constexpr uint64_t kIters = 20'000'000;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t start = NowNs();
  for (uint64_t i = 0; i < kIters; i++) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  uint64_t ns = NowNs() - start;
  // Keeps the loop from being folded away.
  if (x == 0) {
    std::fprintf(stderr, "calibration: degenerate state\n");
  }
  return static_cast<double>(kIters) / (static_cast<double>(ns) * 1e-3);
}

uint64_t SamplesBeyond(uint64_t n, uint32_t per_mille) {
  uint64_t rank = (static_cast<uint64_t>(per_mille) * n + 999) / 1000;
  return n - rank;
}

uint32_t SupportedPerMille(uint64_t n) {
  for (uint32_t pm : {999u, 990u, 900u, 500u}) {
    if (SamplesBeyond(n, pm) >= kMinSamplesBeyond) {
      return pm;
    }
  }
  return 0;
}

uint64_t Quantile(std::vector<uint64_t>& v, uint32_t per_mille) {
  uint64_t n = v.size();
  uint64_t rank = std::max<uint64_t>(1, (static_cast<uint64_t>(per_mille) * n + 999) / 1000);
  auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

uint64_t SampleCount(const SampleGroups& groups) {
  uint64_t n = 0;
  for (const auto& g : groups) {
    n += g.size();
  }
  return n;
}

std::optional<double> GroupedQuantile(SampleGroups& groups, uint32_t per_mille) {
  std::vector<double> per_group;
  bool each_supports = true;
  for (auto& g : groups) {
    if (g.empty()) {
      continue;
    }
    if (SupportedPerMille(g.size()) < per_mille) {
      each_supports = false;
      break;
    }
    per_group.push_back(static_cast<double>(Quantile(g, per_mille)));
  }
  if (each_supports && !per_group.empty()) {
    return Median(per_group);
  }
  std::vector<uint64_t> pool;
  pool.reserve(SampleCount(groups));
  for (const auto& g : groups) {
    pool.insert(pool.end(), g.begin(), g.end());
  }
  if (SupportedPerMille(pool.size()) < per_mille) {
    return std::nullopt;
  }
  return static_cast<double>(Quantile(pool, per_mille));
}

// --- payload --------------------------------------------------------------------

namespace {
constexpr uint64_t kStampMagic = 0x6C66736265656E63ull;
constexpr uint64_t kPoolBlocks = 256;  // 1 MB of seeded random bytes

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}
}  // namespace

PayloadPool::PayloadPool(uint64_t seed) : pool_(kPoolBlocks * kBlockBytes) {
  lfs::Rng rng(seed);
  for (size_t i = 0; i < pool_.size(); i += 8) {
    uint64_t w = rng.NextU64();
    std::memcpy(&pool_[i], &w, 8);
  }
}

const uint8_t* PayloadPool::Body(uint64_t file, uint64_t block, uint64_t version) const {
  uint64_t slice = Mix(file * 0x9E3779B97F4A7C15ull + block * 0xBF58476D1CE4E5B9ull + version) %
                   kPoolBlocks;
  return &pool_[slice * kBlockBytes + sizeof(Stamp)];
}

void PayloadPool::Fill(uint64_t file, uint64_t block, uint64_t version, uint8_t* out) const {
  Stamp s{kStampMagic, file, block, version};
  std::memcpy(out, &s, sizeof(s));
  std::memcpy(out + sizeof(s), Body(file, block, version), kBlockBytes - sizeof(s));
}

bool PayloadPool::Matches(const uint8_t* in, uint64_t file, uint64_t block,
                          uint64_t version) const {
  Stamp s = ReadStamp(in);
  return StampNames(s, file, block) && s.version == version &&
         std::memcmp(in + sizeof(s), Body(file, block, version), kBlockBytes - sizeof(s)) == 0;
}

Stamp PayloadPool::ReadStamp(const uint8_t* in) {
  Stamp s;
  std::memcpy(&s, in, sizeof(s));
  return s;
}

bool PayloadPool::StampNames(const Stamp& s, uint64_t file, uint64_t block) {
  return s.magic == kStampMagic && s.file == file && s.block == block;
}

// --- Zipf -----------------------------------------------------------------------

ZipfSampler::ZipfSampler(uint64_t n, double s, lfs::Rng& perm_rng)
    : cdf_(n), item_of_rank_(n) {
  double sum = 0;
  for (uint64_t r = 0; r < n; r++) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) {
    c /= sum;
  }
  std::iota(item_of_rank_.begin(), item_of_rank_.end(), 0u);
  for (uint64_t i = n - 1; i > 0; i--) {  // Fisher-Yates
    std::swap(item_of_rank_[i], item_of_rank_[perm_rng.NextBelow(i + 1)]);
  }
}

uint64_t ZipfSampler::Next(lfs::Rng& rng) const {
  double u = rng.NextDouble();
  size_t rank = static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return item_of_rank_[std::min(rank, cdf_.size() - 1)];
}

}  // namespace perfbench
