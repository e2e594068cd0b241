#include "bench/bench_common.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/obs/bindings.h"

namespace lfs::bench {
namespace {

// Taken during static initialization, so a report's wall.total_sec covers
// the bench's whole run up to its Write().
const std::chrono::steady_clock::time_point kStart = std::chrono::steady_clock::now();

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) { return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

}  // namespace

LfsConfig PaperLfsConfig() {
  LfsConfig cfg;
  cfg.block_size = 4096;
  cfg.segment_blocks = 256;  // 1-MB segments
  cfg.max_inodes = 131072;
  // Proportional to Sprite's thresholds ("a few tens" low / 50-100 high on
  // a 1280-segment disk, i.e. ~2.5% / ~5%) at the benchmarks' scaled disk
  // sizes of 100-300 segments.
  cfg.clean_lo = 4;
  cfg.clean_hi = 8;
  cfg.segments_per_pass = 8;
  cfg.reserve_segments = 4;
  cfg.write_buffer_blocks = 256;
  return cfg;
}

LfsInstance MakeLfs(uint64_t disk_bytes, LfsConfig cfg, DiskModelParams params) {
  uint64_t blocks = disk_bytes / cfg.block_size;
  auto disk = std::make_unique<SimDisk>(std::make_unique<MemDisk>(cfg.block_size, blocks),
                                        params);
  auto fs = LfsFileSystem::Mkfs(disk.get(), cfg);
  if (!fs.ok()) {
    std::fprintf(stderr, "LFS mkfs failed: %s\n", fs.status().ToString().c_str());
    std::abort();
  }
  disk->ResetStats();  // setup cost is not part of any measurement
  return LfsInstance{std::move(disk), std::move(fs).value()};
}

FfsInstance MakeFfs(uint64_t disk_bytes, uint32_t block_size, DiskModelParams params) {
  uint64_t blocks = disk_bytes / block_size;
  auto disk = std::make_unique<SimDisk>(std::make_unique<MemDisk>(block_size, blocks),
                                        params);
  auto fs = ffs::FfsFileSystem::Mkfs(disk.get(), block_size);
  if (!fs.ok()) {
    std::fprintf(stderr, "FFS mkfs failed: %s\n", fs.status().ToString().c_str());
    std::abort();
  }
  disk->ResetStats();
  return FfsInstance{std::move(disk), std::move(fs).value()};
}

namespace {
void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "workload %s failed: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}
}  // namespace

WorkloadReport RunWorkload(LfsFileSystem* fs, uint64_t disk_bytes,
                           const WorkloadParams& params) {
  WorkloadReport report;
  Rng rng(params.seed);
  CheckOk(fs->Mkdir("/w"), "mkdir");

  struct LiveFile {
    std::string path;
    uint64_t size;
  };
  std::vector<LiveFile> hot;  // churnable files
  uint64_t next_id = 0;
  uint64_t total_file_bytes = 0;
  uint64_t file_count = 0;

  // Realistic file sizes: most files are small, but a few percent are large
  // and carry the majority of the bytes (the trace studies the paper cites).
  // The large tail matters doubly here: deleting a file bigger than a
  // segment yields completely empty segments (Section 5.2).
  auto sample_size = [&]() -> uint64_t {
    if (rng.NextBool(0.03)) {
      return rng.NextFileSize(params.mean_file_bytes * 20, params.max_file_bytes);
    }
    return rng.NextFileSize(std::max<uint64_t>(1024, params.mean_file_bytes * 2 / 5),
                            256 * 1024);
  };
  // Returns false when the log is out of committed space (the large-file
  // tail can overshoot the utilization target, especially on small disks);
  // the caller stops filling and lets deletions restore headroom.
  auto create_one = [&](bool may_be_cold) -> bool {
    uint64_t size = sample_size();
    std::string path = "/w/f" + std::to_string(next_id++);
    std::vector<uint8_t> content(size);
    for (auto& b : content) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    Status st = fs->WriteFile(path, content);
    if (st.code() == StatusCode::kNoSpace) {
      return false;
    }
    CheckOk(st, "create");
    report.bytes_written += size;
    total_file_bytes += size;
    file_count++;
    report.files_created++;
    if (!may_be_cold || !rng.NextBool(params.cold_fraction)) {
      hot.push_back(LiveFile{std::move(path), size});
    }
    return true;
  };
  // Regulate on the filesystem's own live-byte accounting so metadata and
  // block-padding overheads are included in the utilization target.
  auto below_target = [&]() {
    return fs->disk_utilization() +
               static_cast<double>(params.mean_file_bytes) / disk_bytes <
           params.target_utilization;
  };

  // Phase 1: fill to the target utilization.
  while (below_target()) {
    if (!create_one(/*may_be_cold=*/true)) {
      break;
    }
  }
  CheckOk(fs->Sync(), "sync after fill");

  // Phase 2: churn. Whole-file delete + recreate (office/engineering style),
  // or random in-place block rewrites (swap style), with periodic
  // checkpoints standing in for the 30-second checkpoint interval.
  uint64_t churn_target = static_cast<uint64_t>(params.churn_multiplier * disk_bytes);
  uint64_t since_checkpoint = 0;
  const uint64_t checkpoint_every = 8 * 1024 * 1024;
  while (report.bytes_written < churn_target && !hot.empty()) {
    uint64_t before = report.bytes_written;
    if (params.sparse_rewrites) {
      // Rewrite a random block range of an existing file.
      LiveFile& f = hot[rng.NextBelow(hot.size())];
      Result<InodeNum> ino = fs->Lookup(f.path);
      CheckOk(ino.status(), "lookup");
      uint64_t bs = fs->config().block_size;
      uint64_t nblocks = (f.size + bs - 1) / bs;
      uint64_t fbn = rng.NextBelow(nblocks);
      uint64_t len = std::min<uint64_t>(1 + rng.NextBelow(8), nblocks - fbn);
      std::vector<uint8_t> content(len * bs);
      for (auto& b : content) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
      CheckOk(fs->WriteAt(*ino, fbn * bs, content), "rewrite");
      report.bytes_written += content.size();
    } else {
      // Delete a RUN of files created around the same time, then create
      // replacements. Deletion locality is what empties whole segments in
      // production (Section 5.2: "files tend to be written and deleted as a
      // whole... deleting the file will produce one or more totally empty
      // segments") — a uniformly random deleter would almost never empty
      // one. `hot` is kept in creation order to preserve that correlation.
      size_t run = 1 + rng.NextBelow(12);
      size_t idx = rng.NextBelow(hot.size());
      size_t end = std::min(idx + run, hot.size());
      for (size_t i = idx; i < end; i++) {
        CheckOk(fs->Unlink(hot[i].path), "unlink");
        total_file_bytes -= hot[i].size;
        file_count--;
      }
      hot.erase(hot.begin() + idx, hot.begin() + end);
      // Refill toward the target utilization.
      while (below_target()) {
        if (!create_one(/*may_be_cold=*/false)) {
          break;
        }
      }
    }
    since_checkpoint += report.bytes_written - before;
    if (since_checkpoint >= checkpoint_every) {
      CheckOk(fs->Sync(), "periodic checkpoint");
      since_checkpoint = 0;
    }
  }
  CheckOk(fs->Sync(), "final sync");
  report.avg_file_bytes = file_count > 0 ? total_file_bytes / file_count : 0;
  return report;
}

WorkloadParams User6Workload() {
  WorkloadParams p;
  p.name = "/user6";
  p.mean_file_bytes = 23500;  // Table 2: 23.5 KB average file size
  p.target_utilization = 0.75;
  p.churn_multiplier = 3.0;
  p.cold_fraction = 0.5;  // home directories: much data written once
  p.seed = 1001;
  return p;
}

WorkloadParams PcsWorkload() {
  WorkloadParams p;
  p.name = "/pcs";
  p.mean_file_bytes = 10500;
  p.target_utilization = 0.63;
  p.churn_multiplier = 3.0;
  p.cold_fraction = 0.45;
  p.seed = 1002;
  return p;
}

WorkloadParams SrcKernelWorkload() {
  WorkloadParams p;
  p.name = "/src/kernel";
  p.mean_file_bytes = 37500;
  p.target_utilization = 0.72;
  p.churn_multiplier = 3.0;
  p.cold_fraction = 0.3;  // sources + binaries rebuilt wholesale
  p.seed = 1003;
  return p;
}

WorkloadParams TmpWorkload() {
  WorkloadParams p;
  p.name = "/tmp";
  p.mean_file_bytes = 28900;
  p.target_utilization = 0.11;  // Table 2: only 11% in use
  p.churn_multiplier = 3.0;
  p.cold_fraction = 0.02;  // temporary files die young
  p.seed = 1004;
  return p;
}

WorkloadParams Swap2Workload() {
  WorkloadParams p;
  p.name = "/swap2";
  p.mean_file_bytes = 68100;
  p.target_utilization = 0.65;
  p.churn_multiplier = 3.0;
  p.cold_fraction = 0.0;
  p.sparse_rewrites = true;  // VM backing store: nonsequential block rewrites
  p.seed = 1005;
  return p;
}

bool SmokeMode() {
  const char* v = std::getenv("LFS_BENCH_SMOKE");
  return v != nullptr && std::string(v) != "0";
}

uint64_t SmokePick(uint64_t full, uint64_t smoke) { return SmokeMode() ? smoke : full; }

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::AddScalar(const std::string& name, double value) {
  reg_.AddGauge(name, value);
}

void BenchReport::AddLfs(const std::string& prefix, const LfsInstance& inst) {
  obs::BindLfsStats(&reg_, prefix, inst.fs->stats());
  obs::BindFsObs(&reg_, prefix, inst.fs->obs());
  obs::BindSimDisk(&reg_, prefix + "disk.", *inst.disk);
}

void BenchReport::AddFfs(const std::string& prefix, const FfsInstance& inst) {
  obs::BindFfsStats(&reg_, prefix, inst.fs->stats());
  obs::BindFsObs(&reg_, prefix, inst.fs->obs());
  obs::BindSimDisk(&reg_, prefix + "disk.", *inst.disk);
}

std::string BenchReport::ToJson() const {
  // Prepend the identity header to the registry's {"metrics", "histograms"}
  // object; the registry output starts "{\n", so substr(2) splices cleanly.
  std::string inner = reg_.ToJson(2);
  std::string out = "{\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"bench\": " + obs::JsonString(name_) + ",\n";
  out += std::string("  \"smoke\": ") + (SmokeMode() ? "true" : "false") + ",\n";
  out += inner.substr(2);
  return out;
}

void BenchReport::Write() {
  AddScalar("wall.total_sec",
            std::chrono::duration<double>(std::chrono::steady_clock::now() - kStart).count());
  AddScalar("wall.cpu_sec", ProcessCpuSeconds());
  const char* dir = std::getenv("LFS_BENCH_OUT");
  std::string path = (dir != nullptr && dir[0] != '\0') ? std::string(dir) + "/" : "";
  path += "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
    return;
  }
  std::string json = ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  // stderr: perf_hotpaths' stdout is documented as a pure JSON object.
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

std::string HumanBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f GB", static_cast<double>(bytes) / (1024.0 * 1024 * 1024));
  } else if (bytes >= 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", static_cast<double>(bytes) / (1024.0 * 1024));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace lfs::bench
