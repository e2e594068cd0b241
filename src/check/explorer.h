// Exhaustive crash-point exploration of a workload trace.
//
// The workload runs ONCE against a recording CrashDisk, which journals every
// device edge (write with payload, flush, trim) tagged with the issuing op.
// The explorer then reconstructs every image a real crash could leave behind
// by replaying journal prefixes onto the post-mkfs base image:
//
//   - for a write edge of n blocks, torn prefixes t = 0..n (real disks
//     complete whole sectors; t = 0 is "crash before the write", t = n
//     "write done, everything after lost");
//   - for each flush and trim edge, the crash at that barrier.
//
// Before enumerating, a lint checks the journal itself for the checkpoint
// write barrier (UnflushedCheckpointWrites); each violation is a
// "barrier-lint" failure.
//
// Equivalence pruning: surviving images are deduplicated by an incremental
// content hash (per-block hashes combined order-independently), so torn
// prefixes that coincide with neighbouring crash points, rewrites of
// identical content, and trims (no-ops on the memory platter) collapse into
// one checked state. Only unique images are driven through the full oracle:
//
//   1. pre-mount lfsck   — the surviving image itself must already be
//                          consistent from its newest durable checkpoint
//                          (the log tail may only add warnings);
//   2. mount             — roll-forward recovery must succeed;
//   3. reference model   — every name/content within its legal crash window
//                          (RefModel::VerifyRecovered);
//   4. usability probe   — the recovered filesystem must accept new work;
//   5. post-mount lfsck  — the image after recovery + clean unmount must be
//                          error-free.
//
// ExploreOptions::mutate_edges lets tests and the trace minimizer inject
// ordering bugs into the journal (e.g. SkippedCheckpointBarrierMutator) to
// prove the oracle detects them.

#ifndef LFS_CHECK_EXPLORER_H_
#define LFS_CHECK_EXPLORER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/check/ref_model.h"
#include "src/check/workload.h"
#include "src/disk/crash_disk.h"
#include "src/util/result.h"

namespace lfs::check {

// One recorded workload execution: everything needed to rebuild any crash
// image offline without re-running the filesystem.
struct Recording {
  Workload workload;
  LfsConfig config;
  std::vector<uint8_t> base_image;  // raw platter right after mkfs
  std::vector<CrashEdge> edges;     // device journal of the whole run
  RefModel model;                   // full op history + sync points
};

struct CrashFailure {
  size_t edge = 0;     // journal index of the crash point
  uint64_t torn = 0;   // persisted prefix blocks (write edges)
  int64_t op = -1;     // workload op in flight
  std::string phase;   // barrier-lint | premount-lfsck | mount | oracle | probe |
                       // postmount-lfsck
  std::string detail;
  std::string Describe() const;
};

struct ExploreOptions {
  // Stop oracle-checking new unique states past this budget (0 = unlimited);
  // exceeding states are counted in skipped_budget, enumeration continues.
  uint64_t max_states = 0;
  bool premount_lfsck = true;
  bool postmount_lfsck = true;
  bool usability_probe = true;
  size_t max_failures = 8;  // stop collecting failures past this many
  // Journal mutation hook (ordering-bug injection; used by the teeth test
  // and carried by the minimizer).
  std::function<void(std::vector<CrashEdge>&)> mutate_edges;
};

struct ExploreReport {
  uint64_t edges = 0;           // journal edges enumerated
  uint64_t crash_points = 0;    // (edge, torn-prefix) pairs
  uint64_t unique_states = 0;   // distinct surviving images
  uint64_t pruned = 0;          // crash points deduplicated away
  uint64_t checked = 0;         // unique states driven through the oracle
  uint64_t skipped_budget = 0;  // unique states skipped by max_states
  std::vector<CrashFailure> failures;

  bool clean() const { return failures.empty(); }
  std::string Summary() const;
};

// Executes the workload once against a recording CrashDisk, checking every
// op's outcome against the reference model as it goes (a divergence fails
// the record itself).
Result<Recording> RecordWorkload(const Workload& workload);

// Journal lint for the checkpoint write barrier: a write into either
// checkpoint region must not follow a write into the segment area unless a
// flush comes between them. Otherwise a device that reorders writes between
// flushes may persist the region before the log blocks it names. Returns
// the journal indices of the region writes that break the rule.
Result<std::vector<size_t>> UnflushedCheckpointWrites(const Recording& recording);

// Lints and then enumerates and checks every crash point of a recording.
// The lint reads the recorded journal, before options.mutate_edges.
Result<ExploreReport> ExploreRecording(const Recording& recording,
                                       const ExploreOptions& options = {});

// RecordWorkload + ExploreRecording.
Result<ExploreReport> ExploreWorkload(const Workload& workload,
                                      const ExploreOptions& options = {});

// Seeded ordering bug for the oracle's regression test: reorders the final
// checkpoint-region write ahead of the data writes flushed by the same op —
// exactly the image sequence a missing pre-checkpoint write barrier would
// produce. Exploring a healthy recording under this mutator must fail.
Result<std::function<void(std::vector<CrashEdge>&)>> SkippedCheckpointBarrierMutator(
    const Recording& recording);

}  // namespace lfs::check

#endif  // LFS_CHECK_EXPLORER_H_
