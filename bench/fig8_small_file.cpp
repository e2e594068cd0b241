// Figure 8: small-file performance, Sprite LFS versus SunOS (our FFS
// baseline), on the paper's testbed model (Sun-4/260 + Wren IV, ~300-MB
// filesystems).
//
// (a) create 10000 1-KB files, read them back in creation order, delete
//     them; report files/sec per phase for both filesystems.
// (b) predicted create throughput on machines with 1x/2x/4x the CPU speed
//     and the same disk: LFS scales with the CPU (its disk is mostly idle);
//     FFS barely improves (its disk is saturated).
//
// Expected shape (paper): LFS ~10x FFS for create and delete, faster for
// the ordered read-back; LFS disk utilization low (~17%) during create
// while FFS's is ~85%.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace lfs;
using namespace lfs::bench;

namespace {

const int kNumFiles = static_cast<int>(SmokePick(10000, 500));
constexpr int kFileSize = 1024;
const uint64_t kTotalBytes = static_cast<uint64_t>(kNumFiles) * kFileSize;
const uint64_t kDiskBytes = SmokePick(300, 64) * 1024 * 1024;

struct PhaseResult {
  double cpu_sec = 0;
  double disk_sec = 0;
  double elapsed = 0;
  double files_per_sec = 0;
  double disk_busy_fraction = 0;
};

template <typename ElapsedFn>
PhaseResult Measure(SimDisk* disk, const CpuModel& cpu, ElapsedFn elapsed_fn, uint64_t ops,
                    uint64_t bytes, const std::function<void()>& body) {
  DiskStats before = disk->stats();
  body();
  DiskStats delta = disk->stats() - before;
  PhaseResult r;
  r.cpu_sec = cpu.Time(ops, bytes);
  r.disk_sec = delta.busy_sec;
  r.elapsed = elapsed_fn(r.cpu_sec, r.disk_sec);
  r.files_per_sec = static_cast<double>(kNumFiles) / r.elapsed;
  r.disk_busy_fraction = r.disk_sec / r.elapsed;
  return r;
}

void Check(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "fig8: %s\n", st.ToString().c_str());
    std::abort();
  }
}

}  // namespace

int main() {
  CpuModel cpu;  // Sun-4/260
  std::vector<uint8_t> content(kFileSize, 0xAB);

  // --- Sprite LFS --------------------------------------------------------------
  // Block size 1 KB for this workload: Sprite packed 1-KB files without
  // padding them to 4 KB; with 4-KB blocks every file would quadruple its
  // log footprint and overstate LFS disk utilization (see EXPERIMENTS.md).
  LfsConfig lfs_cfg = PaperLfsConfig();
  lfs_cfg.block_size = 1024;
  lfs_cfg.segment_blocks = 1024;  // keep 1-MB segments
  LfsInstance lfs_inst = MakeLfs(kDiskBytes, lfs_cfg);
  Check(lfs_inst.fs->Mkdir("/bench"));
  lfs_inst.disk->ResetStats();

  std::vector<InodeNum> lfs_inos(kNumFiles);
  PhaseResult lfs_create = Measure(
      lfs_inst.disk.get(), cpu, LfsElapsed, kNumFiles, kTotalBytes, [&] {
        for (int i = 0; i < kNumFiles; i++) {
          auto ino = lfs_inst.fs->Create("/bench/f" + std::to_string(i));
          Check(ino.status());
          lfs_inos[i] = *ino;
          Check(lfs_inst.fs->WriteAt(*ino, 0, content));
        }
        Check(lfs_inst.fs->Sync());
      });
  std::vector<uint8_t> buf(kFileSize);
  PhaseResult lfs_read = Measure(
      lfs_inst.disk.get(), cpu, LfsElapsed, kNumFiles, kTotalBytes, [&] {
        for (int i = 0; i < kNumFiles; i++) {
          Check(lfs_inst.fs->ReadAt(lfs_inos[i], 0, buf).status());
        }
      });
  PhaseResult lfs_delete = Measure(
      lfs_inst.disk.get(), cpu, LfsElapsed, kNumFiles, 0, [&] {
        for (int i = 0; i < kNumFiles; i++) {
          Check(lfs_inst.fs->Unlink("/bench/f" + std::to_string(i)));
        }
        Check(lfs_inst.fs->Sync());
      });

  // --- Unix FFS (SunOS stand-in) -------------------------------------------------
  FfsInstance ffs_inst = MakeFfs(kDiskBytes, 4096);
  Check(ffs_inst.fs->Mkdir("/bench"));
  ffs_inst.disk->ResetStats();

  std::vector<InodeNum> ffs_inos(kNumFiles);
  PhaseResult ffs_create = Measure(
      ffs_inst.disk.get(), cpu, FfsElapsed, kNumFiles, kTotalBytes, [&] {
        for (int i = 0; i < kNumFiles; i++) {
          auto ino = ffs_inst.fs->Create("/bench/f" + std::to_string(i));
          Check(ino.status());
          ffs_inos[i] = *ino;
          Check(ffs_inst.fs->WriteAt(*ino, 0, content));
        }
      });
  PhaseResult ffs_read = Measure(
      ffs_inst.disk.get(), cpu, FfsElapsed, kNumFiles, kTotalBytes, [&] {
        for (int i = 0; i < kNumFiles; i++) {
          Check(ffs_inst.fs->ReadAt(ffs_inos[i], 0, buf).status());
        }
      });
  PhaseResult ffs_delete = Measure(
      ffs_inst.disk.get(), cpu, FfsElapsed, kNumFiles, 0, [&] {
        for (int i = 0; i < kNumFiles; i++) {
          Check(ffs_inst.fs->Unlink("/bench/f" + std::to_string(i)));
        }
      });

  // --- Figure 8(a) ----------------------------------------------------------------
  std::printf("=== Figure 8(a): 10000 1-KB file create/read/delete (files/sec) ===\n\n");
  std::printf("%-8s %14s %14s %10s\n", "phase", "Sprite LFS", "Unix FFS", "LFS/FFS");
  auto row = [](const char* name, const PhaseResult& l, const PhaseResult& f) {
    std::printf("%-8s %14.0f %14.0f %9.1fx\n", name, l.files_per_sec, f.files_per_sec,
                l.files_per_sec / f.files_per_sec);
  };
  row("create", lfs_create, ffs_create);
  row("read", lfs_read, ffs_read);
  row("delete", lfs_delete, ffs_delete);

  std::printf("\nDisk utilization during the create phase:\n");
  std::printf("  Sprite LFS: %4.0f%% busy (CPU-bound; paper measured 17%%)\n",
              lfs_create.disk_busy_fraction * 100);
  std::printf("  Unix FFS:   %4.0f%% busy (disk-bound; paper measured 85%%)\n",
              ffs_create.disk_busy_fraction * 100);

  // --- Figure 8(b): faster CPUs, same disk ------------------------------------------
  std::printf("\n=== Figure 8(b): predicted create throughput vs CPU speed ===\n\n");
  std::printf("%-10s %14s %14s\n", "CPU speed", "Sprite LFS", "Unix FFS");
  for (double speed : {1.0, 2.0, 4.0}) {
    double lfs_fps = kNumFiles / LfsElapsed(lfs_create.cpu_sec / speed, lfs_create.disk_sec);
    double ffs_fps = kNumFiles / FfsElapsed(ffs_create.cpu_sec / speed, ffs_create.disk_sec);
    std::printf("%-9.0fx %14.0f %14.0f\n", speed, lfs_fps, ffs_fps);
  }
  std::printf("\nExpected shape: LFS scales nearly linearly with CPU speed; FFS is\n");
  std::printf("pinned by its saturated disk (paper: 4-6x more headroom for LFS).\n");

  BenchReport report("fig8_small_file");
  report.AddScalar("lfs.create_files_per_sec", lfs_create.files_per_sec);
  report.AddScalar("lfs.read_files_per_sec", lfs_read.files_per_sec);
  report.AddScalar("lfs.delete_files_per_sec", lfs_delete.files_per_sec);
  report.AddScalar("lfs.create_disk_busy_fraction", lfs_create.disk_busy_fraction);
  report.AddScalar("ffs.create_files_per_sec", ffs_create.files_per_sec);
  report.AddScalar("ffs.read_files_per_sec", ffs_read.files_per_sec);
  report.AddScalar("ffs.delete_files_per_sec", ffs_delete.files_per_sec);
  report.AddScalar("ffs.create_disk_busy_fraction", ffs_create.disk_busy_fraction);
  report.AddLfs("lfs.", lfs_inst);
  report.AddFfs("ffs.", ffs_inst);
  report.Write();
  return 0;
}
