#include "src/check/fuzzer.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace lfs::check {
namespace {

// Generator-side view of the namespace. It mirrors the reference model's
// validity rules, so tracked updates stay exact and most emitted ops are
// valid — but every op is still adjudicated by the model during recording.
struct Tracker {
  std::set<std::string> files;
  std::set<std::string> dirs;  // excluding "/"

  bool DirLive(const std::string& d) const { return d == "/" || dirs.count(d) > 0; }
  bool NameFree(const std::string& p) const { return !files.count(p) && !dirs.count(p); }
  bool DirEmpty(const std::string& d) const {
    std::string prefix = d + "/";
    for (const auto& f : files) {
      if (f.compare(0, prefix.size(), prefix) == 0) {
        return false;
      }
    }
    for (const auto& s : dirs) {
      if (s.compare(0, prefix.size(), prefix) == 0) {
        return false;
      }
    }
    return true;
  }
  std::string Pick(Rng& rng, const std::set<std::string>& pool) const {
    uint64_t i = rng.NextBelow(pool.size());
    auto it = pool.begin();
    std::advance(it, i);
    return *it;
  }
};

std::string JoinName(const std::string& dir, const std::string& leaf) {
  return dir == "/" ? "/" + leaf : dir + "/" + leaf;
}

}  // namespace

Workload FuzzWorkload(uint64_t seed, const FuzzOptions& options) {
  Workload w;
  w.name = "fuzz-" + std::to_string(seed);
  w.disk_blocks = 2048;
  w.num_logs = seed % 3 == 2 ? 2 : 1;           // a third of the seeds: two logs
  w.write_buffer_blocks = seed % 2 == 0 ? 16 : 12;  // vary flush-edge density

  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC4A5Cull);
  Tracker t;

  auto emit1 = [&](OpKind k, const std::string& a) {
    Op op;
    op.kind = k;
    op.a = a;
    w.ops.push_back(std::move(op));
  };
  auto emit2 = [&](OpKind k, const std::string& a, const std::string& b) {
    Op op;
    op.kind = k;
    op.a = a;
    op.b = b;
    w.ops.push_back(std::move(op));
  };
  auto emit_write = [&](const std::string& p, uint64_t off, uint64_t len) {
    Op op;
    op.kind = OpKind::kWrite;
    op.a = p;
    op.offset = off;
    op.length = len;
    op.seed = rng.NextU64() & 0xFFFFFF;
    w.ops.push_back(std::move(op));
  };

  auto pick_dir = [&] {
    // Root plus the live directories, uniformly.
    uint64_t i = rng.NextBelow(t.dirs.size() + 1);
    if (i == 0) {
      return std::string("/");
    }
    auto it = t.dirs.begin();
    std::advance(it, i - 1);
    return *it;
  };
  auto fresh_name = [&]() -> std::string {
    for (int attempt = 0; attempt < 8; attempt++) {
      std::string cand = JoinName(pick_dir(), 'f' + std::to_string(rng.NextBelow(8)));
      if (t.NameFree(cand)) {
        return cand;
      }
    }
    return "";  // pools saturated; caller skips or emits a failing op
  };

  auto do_create = [&] {
    std::string p = fresh_name();
    if (p.empty()) {
      return;
    }
    emit1(OpKind::kCreate, p);
    t.files.insert(p);
  };
  auto do_write = [&] {
    if (t.files.empty()) {
      do_create();
      return;
    }
    std::string p = t.Pick(rng, t.files);
    uint64_t off = rng.NextBelow(7) * 700;         // holes + unaligned offsets
    uint64_t len = 1 + rng.NextBelow(3500);
    emit_write(p, off, len);
  };

  while (w.ops.size() < options.num_ops) {
    uint64_t r = rng.NextBelow(100);
    if (r < 32) {
      do_write();
    } else if (r < 44) {
      do_create();
    } else if (r < 52) {
      if (!t.files.empty()) {
        std::string p = t.Pick(rng, t.files);
        emit1(OpKind::kUnlink, p);
        t.files.erase(p);
      }
    } else if (r < 58) {
      if (t.dirs.size() < 4) {
        std::string d = "/d" + std::to_string(rng.NextBelow(4));
        if (t.NameFree(d)) {
          emit1(OpKind::kMkdir, d);
          t.dirs.insert(d);
        }
      }
    } else if (r < 62) {
      if (!t.dirs.empty()) {
        std::string d = t.Pick(rng, t.dirs);
        // Emitted even when non-empty: the model and the filesystem must
        // both refuse it — a free differential probe.
        emit1(OpKind::kRmdir, d);
        if (t.DirEmpty(d)) {
          t.dirs.erase(d);
        }
      }
    } else if (r < 70) {
      if (!t.files.empty()) {
        std::string a = t.Pick(rng, t.files);
        std::string b = fresh_name();
        if (!b.empty()) {
          emit2(OpKind::kLink, a, b);  // hard-link web: b aliases a's node
          t.files.insert(b);
        }
      }
    } else if (r < 79) {
      if (t.files.size() >= 3 && rng.NextBool(0.25)) {
        // Three-way rename cycle through a temporary name.
        std::vector<std::string> picked;
        std::set<std::string> pool = t.files;
        for (int i = 0; i < 3; i++) {
          std::string p = t.Pick(rng, pool);
          pool.erase(p);
          picked.push_back(p);
        }
        std::string tmp = fresh_name();
        if (!tmp.empty()) {
          emit2(OpKind::kRename, picked[0], tmp);
          emit2(OpKind::kRename, picked[1], picked[0]);
          emit2(OpKind::kRename, picked[2], picked[1]);
          emit2(OpKind::kRename, tmp, picked[2]);
        }
      } else if (!t.files.empty()) {
        std::string a = t.Pick(rng, t.files);
        std::string b;
        if (t.files.size() >= 2 && rng.NextBool(0.4)) {
          do {
            b = t.Pick(rng, t.files);
          } while (b == a);
          t.files.erase(b);  // replaced target
        } else {
          b = fresh_name();
        }
        if (!b.empty() && b != a) {
          emit2(OpKind::kRename, a, b);
          t.files.erase(a);
          t.files.insert(b);
        }
      }
    } else if (r < 86) {
      if (!t.files.empty()) {
        Op op;
        op.kind = OpKind::kTruncate;
        op.a = t.Pick(rng, t.files);
        op.length = rng.NextBelow(5000);  // shrink-or-extend interleavings
        w.ops.push_back(std::move(op));
      }
    } else if (r < 94) {
      w.ops.push_back({.kind = OpKind::kSync});
    } else {
      w.ops.push_back({.kind = OpKind::kClean});  // cleaner activation mid-trace
    }
  }
  return w;
}

}  // namespace lfs::check
