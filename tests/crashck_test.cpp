// Crash-consistency model checker: exhaustive exploration of the canonical
// workloads must find zero oracle failures (and actually prune states); a
// recording mutated to skip the pre-checkpoint write barrier must FAIL
// exploration (the oracle has teeth), and so must one whose pre-checkpoint
// flush is deleted (the journal lint); the trace minimizer must shrink a
// failing workload while preserving its failure; fuzzer scripts round-trip
// through the text format and explore clean.

#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/explorer.h"
#include "src/check/fuzzer.h"
#include "src/check/minimize.h"
#include "src/check/workload.h"
#include "tests/test_util.h"

namespace lfs::check {
namespace {

std::string FailureDigest(const ExploreReport& report) {
  std::string out;
  for (const CrashFailure& f : report.failures) {
    out += "  " + f.Describe() + "\n";
  }
  return out;
}

TEST(CrashckExploreTest, ExhaustiveSmallfilesIsClean) {
  ASSERT_OK_AND_ASSIGN(Workload w, CanonicalWorkload("smallfiles"));
  ASSERT_OK_AND_ASSIGN(ExploreReport report, ExploreWorkload(w));
  EXPECT_TRUE(report.clean()) << FailureDigest(report);
  EXPECT_GT(report.edges, 0u);
  EXPECT_GT(report.crash_points, report.unique_states);  // pruning happened
  EXPECT_GT(report.pruned, 0u);
  EXPECT_EQ(report.checked, report.unique_states);  // no budget in play
  EXPECT_EQ(report.skipped_budget, 0u);
}

TEST(CrashckExploreTest, ExhaustiveNamespaceIsClean) {
  // The namespace workload runs two logs: rename cycles and link webs cross
  // the multi-log flush-ordering paths.
  ASSERT_OK_AND_ASSIGN(Workload w, CanonicalWorkload("namespace"));
  ASSERT_OK_AND_ASSIGN(ExploreReport report, ExploreWorkload(w));
  EXPECT_TRUE(report.clean()) << FailureDigest(report);
  EXPECT_GT(report.pruned, 0u);
  EXPECT_EQ(report.checked, report.unique_states);
}

TEST(CrashckExploreTest, StateBudgetSkipsButKeepsEnumerating) {
  ASSERT_OK_AND_ASSIGN(Workload w, CanonicalWorkload("smallfiles"));
  ExploreOptions options;
  options.max_states = 10;
  ASSERT_OK_AND_ASSIGN(ExploreReport report, ExploreWorkload(w, options));
  EXPECT_EQ(report.checked, 10u);
  EXPECT_GT(report.skipped_budget, 0u);
  EXPECT_EQ(report.checked + report.skipped_budget, report.unique_states);
}

TEST(CrashckTeethTest, SkippedCheckpointBarrierIsDetected) {
  // Reorder the final checkpoint-region write ahead of the data writes the
  // same op flushed — the image sequence a missing write barrier would
  // produce. A healthy filesystem explored under this mutation MUST fail:
  // if it doesn't, the oracle has lost its teeth.
  ASSERT_OK_AND_ASSIGN(Workload w, CanonicalWorkload("smallfiles"));
  ASSERT_OK_AND_ASSIGN(Recording recording, RecordWorkload(w));
  ASSERT_OK_AND_ASSIGN(auto mutator, SkippedCheckpointBarrierMutator(recording));
  ExploreOptions options;
  options.mutate_edges = mutator;
  ASSERT_OK_AND_ASSIGN(ExploreReport report, ExploreRecording(recording, options));
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(report.failures.empty());
}

TEST(CrashckLintTest, CheckpointWritesFollowAFlush) {
  for (const char* name : {"smallfiles", "namespace"}) {
    ASSERT_OK_AND_ASSIGN(Workload w, CanonicalWorkload(name));
    ASSERT_OK_AND_ASSIGN(Recording recording, RecordWorkload(w));
    ASSERT_OK_AND_ASSIGN(std::vector<size_t> unflushed, UnflushedCheckpointWrites(recording));
    EXPECT_TRUE(unflushed.empty()) << name;

    // Delete the flush in front of the last checkpoint-region write: the
    // lint must flag that write, and exploration must fail on it.
    ASSERT_OK_AND_ASSIGN(Superblock sb,
                         Superblock::DecodeFrom(std::span<const uint8_t>(recording.base_image)
                                                    .first(recording.config.block_size)));
    size_t cr = recording.edges.size();
    for (size_t k = 0; k < recording.edges.size(); k++) {
      const CrashEdge& e = recording.edges[k];
      if (e.kind == CrashEdge::Kind::kWrite && (e.block == sb.cr_base0 || e.block == sb.cr_base1)) {
        cr = k;
      }
    }
    ASSERT_LT(cr, recording.edges.size()) << name;
    ASSERT_GT(cr, 0u) << name;
    ASSERT_EQ(recording.edges[cr - 1].kind, CrashEdge::Kind::kFlush) << name;
    recording.edges.erase(recording.edges.begin() + static_cast<std::ptrdiff_t>(cr) - 1);
    ASSERT_OK_AND_ASSIGN(unflushed, UnflushedCheckpointWrites(recording));
    EXPECT_EQ(unflushed, std::vector<size_t>{cr - 1}) << name;
    ExploreOptions options;
    options.max_states = 1;
    ASSERT_OK_AND_ASSIGN(ExploreReport report, ExploreRecording(recording, options));
    ASSERT_FALSE(report.clean()) << name;
    EXPECT_EQ(report.failures[0].phase, "barrier-lint") << name;
  }
}

TEST(CrashckMinimizeTest, MinimizerShrinksSeededFailure) {
  ASSERT_OK_AND_ASSIGN(Workload w, CanonicalWorkload("smallfiles"));
  ASSERT_OK_AND_ASSIGN(Recording recording, RecordWorkload(w));
  ASSERT_OK_AND_ASSIGN(auto mutator, SkippedCheckpointBarrierMutator(recording));
  MinimizeOptions options;
  options.explore.mutate_edges = mutator;
  ASSERT_OK_AND_ASSIGN(MinimizeResult result, MinimizeWorkload(w, options));
  // The reduction still fails, and never grew.
  EXPECT_FALSE(result.report.clean());
  EXPECT_LE(result.workload.ops.size(), w.ops.size());
  EXPECT_GT(result.probes, 0u);
}

TEST(CrashckMinimizeTest, CleanWorkloadIsRejected) {
  ASSERT_OK_AND_ASSIGN(Workload w, CanonicalWorkload("smallfiles"));
  Result<MinimizeResult> result = MinimizeWorkload(w);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CrashckFuzzTest, SeededScriptsExploreClean) {
  for (uint64_t seed : {0, 7, 22}) {
    Workload w = FuzzWorkload(seed);
    ASSERT_OK_AND_ASSIGN(ExploreReport report, ExploreWorkload(w));
    EXPECT_TRUE(report.clean()) << "seed " << seed << "\n" << FailureDigest(report);
  }
}

TEST(CrashckFuzzTest, ScriptsRoundTripThroughText) {
  for (uint64_t seed : {0, 1, 13}) {
    Workload w = FuzzWorkload(seed);
    std::string text = w.ToText();
    ASSERT_OK_AND_ASSIGN(Workload back, Workload::FromText(text));
    EXPECT_EQ(back.ToText(), text) << "seed " << seed;
    EXPECT_EQ(back.ops.size(), w.ops.size());
    EXPECT_EQ(back.num_logs, w.num_logs);
  }
}

TEST(CrashckFuzzTest, DeterministicContentIsStable) {
  std::vector<uint8_t> a = DeterministicContent(42, 1000);
  std::vector<uint8_t> b = DeterministicContent(42, 1000);
  EXPECT_EQ(a, b);
  EXPECT_NE(DeterministicContent(43, 1000), a);
}

}  // namespace
}  // namespace lfs::check
