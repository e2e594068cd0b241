#include "src/check/explorer.h"

#include <algorithm>
#include <unordered_set>

#include "src/disk/mem_disk.h"
#include "src/lfs/check.h"
#include "src/lfs/layout.h"
#include "src/lfs/lfs.h"

namespace lfs::check {
namespace {

// splitmix64 finalizer: decorrelates block index from block content hash.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

// FNV-1a over one block's bytes.
uint64_t HashBytes(const uint8_t* p, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; i++) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Executes one workload op against a live filesystem; returns success.
bool ExecuteOp(LfsFileSystem* fs, const Op& op) {
  switch (op.kind) {
    case OpKind::kCreate:
      return fs->Create(op.a).ok();
    case OpKind::kMkdir:
      return fs->Mkdir(op.a).ok();
    case OpKind::kUnlink:
      return fs->Unlink(op.a).ok();
    case OpKind::kRmdir:
      return fs->Rmdir(op.a).ok();
    case OpKind::kLink:
      return fs->Link(op.a, op.b).ok();
    case OpKind::kRename:
      return fs->Rename(op.a, op.b).ok();
    case OpKind::kWrite: {
      Result<InodeNum> ino = fs->Lookup(op.a);
      if (!ino.ok()) {
        return false;
      }
      Result<FileStat> st = fs->Stat(*ino);
      if (!st.ok() || st->type != FileType::kRegular) {
        return false;
      }
      std::vector<uint8_t> data = DeterministicContent(op.seed, op.length);
      return fs->WriteAt(*ino, op.offset, data).ok();
    }
    case OpKind::kTruncate: {
      Result<InodeNum> ino = fs->Lookup(op.a);
      if (!ino.ok()) {
        return false;
      }
      Result<FileStat> st = fs->Stat(*ino);
      if (!st.ok() || st->type != FileType::kRegular) {
        return false;
      }
      return fs->Truncate(*ino, op.length).ok();
    }
    case OpKind::kSync:
      return fs->Sync().ok();
    case OpKind::kClean:
      return fs->ForceClean().ok();
  }
  return false;
}

Result<Superblock> RecordedSuperblock(const Recording& recording) {
  const uint32_t bs = recording.config.block_size;
  if (recording.base_image.size() < bs) {
    return InvalidArgumentError("recording base image too small for a superblock");
  }
  return Superblock::DecodeFrom(std::span<const uint8_t>(recording.base_image).first(bs));
}

// Drives one surviving image through the full oracle; appends at most one
// failure describing the first phase that rejected it.
void CheckState(const Recording& rec, const ExploreOptions& opts,
                const std::vector<uint8_t>& img, size_t edge_idx, uint64_t torn, int64_t op,
                ExploreReport& rep) {
  auto fail = [&](const char* phase, const std::string& detail) {
    if (rep.failures.size() < opts.max_failures) {
      CrashFailure f;
      f.edge = edge_idx;
      f.torn = torn;
      f.op = op;
      f.phase = phase;
      f.detail = detail;
      rep.failures.push_back(std::move(f));
    }
  };
  const LfsConfig& cfg = rec.config;
  MemDisk disk(cfg.block_size, rec.base_image.size() / cfg.block_size);
  std::copy(img.begin(), img.end(), disk.raw().begin());

  // 1. The surviving image must already be consistent from its newest
  //    durable checkpoint; a crash may only add recoverable tail warnings.
  if (opts.premount_lfsck) {
    Result<CheckReport> r = CheckLfsImage(&disk);
    if (!r.ok()) {
      fail("premount-lfsck", r.status().ToString());
      return;
    }
    if (r->errors != 0) {
      fail("premount-lfsck", r->messages.empty() ? r->Summary() : r->messages[0]);
      return;
    }
  }

  // 2. Roll-forward recovery must succeed.
  MountOptions mopts;
  mopts.roll_forward = true;
  Result<std::unique_ptr<LfsFileSystem>> mounted = LfsFileSystem::Mount(&disk, cfg, mopts);
  if (!mounted.ok()) {
    fail("mount", mounted.status().ToString());
    return;
  }
  std::unique_ptr<LfsFileSystem> fs = std::move(mounted).value();

  // 3. Recovered namespace and contents inside their legal crash windows.
  Status oracle = rec.model.VerifyRecovered(fs.get(), op);
  if (!oracle.ok()) {
    fail("oracle", oracle.ToString());
    return;
  }

  // 4. The recovered filesystem must accept new work.
  if (opts.usability_probe) {
    const char* probe = "/__crashck_probe";
    Result<InodeNum> ino = fs->Create(probe);
    if (!ino.ok()) {
      fail("probe", "create: " + ino.status().ToString());
      return;
    }
    std::vector<uint8_t> data = DeterministicContent(0xC4A54ull, 1500);
    Status ws = fs->WriteAt(*ino, 0, data);
    Status ss = ws.ok() ? fs->Sync() : ws;
    if (!ss.ok()) {
      fail("probe", "write+sync: " + ss.ToString());
      return;
    }
    Result<std::vector<uint8_t>> back = fs->ReadFile(probe);
    if (!back.ok() || *back != data) {
      fail("probe", "readback mismatch after recovery");
      return;
    }
    Status us = fs->Unlink(probe);
    if (!us.ok()) {
      fail("probe", "unlink: " + us.ToString());
      return;
    }
  }

  // 5. Clean unmount, then the final image must check error-free.
  Status un = fs->Unmount();
  if (!un.ok()) {
    fail("postmount-lfsck", "unmount: " + un.ToString());
    return;
  }
  fs.reset();
  if (opts.postmount_lfsck) {
    Result<CheckReport> r = CheckLfsImage(&disk);
    if (!r.ok()) {
      fail("postmount-lfsck", r.status().ToString());
    } else if (r->errors != 0) {
      fail("postmount-lfsck", r->messages.empty() ? r->Summary() : r->messages[0]);
    }
  }
}

}  // namespace

std::string CrashFailure::Describe() const {
  return "edge " + std::to_string(edge) + " torn " + std::to_string(torn) + " (op " +
         std::to_string(op) + ") " + phase + ": " + detail;
}

std::string ExploreReport::Summary() const {
  std::string out = std::to_string(edges) + " edges, " + std::to_string(crash_points) +
                    " crash points -> " + std::to_string(unique_states) +
                    " unique states (" + std::to_string(pruned) + " pruned), " +
                    std::to_string(checked) + " checked";
  if (skipped_budget > 0) {
    out += ", " + std::to_string(skipped_budget) + " past budget";
  }
  out += "; " + std::to_string(failures.size()) + " failures";
  return out;
}

Result<Recording> RecordWorkload(const Workload& workload) {
  Recording rec;
  rec.workload = workload;
  rec.config = workload.Config();
  const LfsConfig& cfg = rec.config;
  if (workload.disk_blocks < 64) {
    return InvalidArgumentError("workload disk too small");
  }
  rec.model = RefModel(cfg.block_size);

  auto mem = std::make_unique<MemDisk>(cfg.block_size, workload.disk_blocks);
  MemDisk* platter = mem.get();
  CrashDisk disk(std::move(mem));
  LFS_ASSIGN_OR_RETURN(std::unique_ptr<LfsFileSystem> fs, LfsFileSystem::Mkfs(&disk, cfg));

  // Snapshot the platter after mkfs: crash images are reconstructed as
  // base + a journal prefix, so crashes inside mkfs itself are out of scope.
  rec.base_image.assign(platter->raw().begin(), platter->raw().end());
  disk.StartRecording();

  for (size_t i = 0; i < workload.ops.size(); i++) {
    const Op& op = workload.ops[i];
    disk.SetOpMarker(static_cast<int64_t>(i));
    bool model_ok = rec.model.Apply(op, static_cast<int64_t>(i));
    bool fs_ok = ExecuteOp(fs.get(), op);
    if (model_ok != fs_ok) {
      return InternalError("record divergence at op " + std::to_string(i) + " (" + op.a +
                           (op.b.empty() ? "" : " -> " + op.b) + "): model says " +
                           (model_ok ? "ok" : "fail") + ", filesystem says " +
                           (fs_ok ? "ok" : "fail"));
    }
  }
  rec.edges = disk.TakeRecording();
  return rec;
}

Result<ExploreReport> ExploreRecording(const Recording& recording,
                                       const ExploreOptions& options) {
  const LfsConfig& cfg = recording.config;
  const uint32_t bs = cfg.block_size;
  if (recording.base_image.empty() || recording.base_image.size() % bs != 0) {
    return InvalidArgumentError("recording has no usable base image");
  }
  ExploreReport rep;
  LFS_ASSIGN_OR_RETURN(std::vector<size_t> unflushed, UnflushedCheckpointWrites(recording));
  for (size_t k : unflushed) {
    rep.failures.push_back({k, 0, recording.edges[k].op, "barrier-lint",
                            "checkpoint-region write follows unflushed segment writes"});
  }
  std::vector<CrashEdge> edges = recording.edges;
  if (options.mutate_edges) {
    options.mutate_edges(edges);
  }
  rep.edges = edges.size();

  // Running image with an incrementally maintained content hash: per-block
  // hashes combined order-independently, so applying one block of a torn
  // prefix updates the image hash in O(block).
  std::vector<uint8_t> img = recording.base_image;
  const uint64_t nblocks = img.size() / bs;
  std::vector<uint64_t> block_hash(nblocks);
  uint64_t total = 0;
  for (uint64_t b = 0; b < nblocks; b++) {
    block_hash[b] = HashBytes(img.data() + b * bs, bs);
    total ^= Mix(block_hash[b] ^ Mix(b));
  }
  auto apply_block = [&](uint64_t b, const uint8_t* data) {
    total ^= Mix(block_hash[b] ^ Mix(b));
    std::copy(data, data + bs, img.begin() + b * bs);
    block_hash[b] = HashBytes(data, bs);
    total ^= Mix(block_hash[b] ^ Mix(b));
  };

  std::unordered_set<uint64_t> seen;
  auto consider = [&](size_t edge_idx, uint64_t torn, int64_t op) {
    rep.crash_points++;
    if (!seen.insert(total).second) {
      rep.pruned++;
      return;
    }
    rep.unique_states++;
    // One budget covers both the explicit cap and the failure limit: once
    // either trips, new unique states are enumerated but not driven.
    if ((options.max_states != 0 && rep.checked >= options.max_states) ||
        rep.failures.size() >= options.max_failures) {
      rep.skipped_budget++;
      return;
    }
    rep.checked++;
    CheckState(recording, options, img, edge_idx, torn, op, rep);
  };

  for (size_t k = 0; k < edges.size(); k++) {
    const CrashEdge& e = edges[k];
    if (e.kind == CrashEdge::Kind::kWrite) {
      // torn = 0 (nothing persisted) .. count (write complete, rest lost);
      // applying block t-1 advances the running image to prefix t.
      consider(k, 0, e.op);
      for (uint64_t t = 1; t <= e.count; t++) {
        apply_block(e.block + t - 1, e.data.data() + (t - 1) * bs);
        consider(k, t, e.op);
      }
    } else {
      // Flush: a barrier that never happened — image unchanged.
      // Trim: dropped discard command; the memory platter ignores trims, so
      // the surviving image is likewise unchanged (dedupe collapses these).
      consider(k, 0, e.op);
    }
  }
  return rep;
}

Result<ExploreReport> ExploreWorkload(const Workload& workload, const ExploreOptions& options) {
  LFS_ASSIGN_OR_RETURN(Recording rec, RecordWorkload(workload));
  return ExploreRecording(rec, options);
}

Result<std::vector<size_t>> UnflushedCheckpointWrites(const Recording& recording) {
  LFS_ASSIGN_OR_RETURN(Superblock sb, RecordedSuperblock(recording));
  auto in_cr = [&](BlockNo b) {
    return (b >= sb.cr_base0 && b < sb.cr_base0 + sb.cr_blocks) ||
           (b >= sb.cr_base1 && b < sb.cr_base1 + sb.cr_blocks);
  };
  std::vector<size_t> unflushed;
  bool log_unflushed = false;  // a segment write since the last flush
  for (size_t k = 0; k < recording.edges.size(); k++) {
    const CrashEdge& e = recording.edges[k];
    if (e.kind == CrashEdge::Kind::kFlush) {
      log_unflushed = false;
    } else if (e.kind == CrashEdge::Kind::kWrite && in_cr(e.block)) {
      if (log_unflushed) {
        unflushed.push_back(k);
      }
    } else if (e.kind == CrashEdge::Kind::kWrite && sb.SegOf(e.block) != kNilSeg) {
      log_unflushed = true;
    }
  }
  return unflushed;
}

Result<std::function<void(std::vector<CrashEdge>&)>> SkippedCheckpointBarrierMutator(
    const Recording& recording) {
  LFS_ASSIGN_OR_RETURN(Superblock sb, RecordedSuperblock(recording));
  const BlockNo cr0 = sb.cr_base0;
  const BlockNo cr1 = sb.cr_base1;
  return std::function<void(std::vector<CrashEdge>&)>(
      [cr0, cr1](std::vector<CrashEdge>& edges) {
        auto is_cr_write = [&](const CrashEdge& e) {
          return e.kind == CrashEdge::Kind::kWrite && (e.block == cr0 || e.block == cr1);
        };
        // The last checkpoint-region write...
        size_t last = edges.size();
        for (size_t k = edges.size(); k-- > 0;) {
          if (is_cr_write(edges[k])) {
            last = k;
            break;
          }
        }
        if (last == edges.size()) {
          return;
        }
        // ...moves ahead of the same op's preceding data writes, as if the
        // barrier between flushing the data and stamping the checkpoint had
        // been skipped.
        size_t start = last;
        while (start > 0 && edges[start - 1].op == edges[last].op &&
               !is_cr_write(edges[start - 1])) {
          start--;
        }
        if (start == last) {
          return;
        }
        std::rotate(edges.begin() + start, edges.begin() + last, edges.begin() + last + 1);
      });
}

}  // namespace lfs::check
