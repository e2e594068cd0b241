// crashck: exhaustive crash-point model checking of LFS workloads.
//
//   crashck list
//       Print the canonical workload names.
//
//   crashck explore (--workload NAME | --script FILE | --fuzz-seed N)
//                   [--max-states N] [--bug reorder-cr] [--expect-fail]
//                   [--json FILE] [--print-script]
//       Record the workload once, lint the journal (no checkpoint-region
//       write may follow unflushed segment writes), then enumerate every
//       crash point — each write edge at every torn-prefix length, plus
//       flush/trim barriers — deduplicate surviving images by content hash,
//       and drive each unique state through the recovery oracle (lfsck,
//       remount, reference model, usability probe). Lint violations are
//       failures too. --bug reorder-cr injects a skipped checkpoint
//       write barrier into the recorded journal; with --expect-fail the exit
//       code is inverted, so CI can assert the oracle still has teeth.
//
//   crashck fuzz (--seeds FILE | --range LO HI)
//                [--max-states N] [--artifact-dir DIR] [--json FILE]
//       Explore one generated workload per seed (seed file: one integer per
//       line, '#' comments). On failure, minimize the trace and write the
//       shrunk script to --artifact-dir, then continue with the remaining
//       seeds.
//
// Exit code 0 on success, 1 if any exploration failed (inverted by
// --expect-fail), 2 on usage or setup errors.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/explorer.h"
#include "src/check/fuzzer.h"
#include "src/check/minimize.h"
#include "src/check/workload.h"

using namespace lfs;
using namespace lfs::check;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: crashck list\n"
               "       crashck explore (--workload NAME | --script FILE | --fuzz-seed N)\n"
               "                       [--max-states N] [--bug reorder-cr] [--expect-fail]\n"
               "                       [--json FILE] [--print-script]\n"
               "       crashck fuzz (--seeds FILE | --range LO HI)\n"
               "                    [--max-states N] [--artifact-dir DIR] [--json FILE]\n");
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ReportJson(const std::string& name, const ExploreReport& r) {
  std::string out = "{\"workload\":\"" + JsonEscape(name) + "\"";
  out += ",\"clean\":" + std::string(r.clean() ? "true" : "false");
  out += ",\"edges\":" + std::to_string(r.edges);
  out += ",\"crash_points\":" + std::to_string(r.crash_points);
  out += ",\"unique_states\":" + std::to_string(r.unique_states);
  out += ",\"pruned\":" + std::to_string(r.pruned);
  out += ",\"checked\":" + std::to_string(r.checked);
  out += ",\"skipped_budget\":" + std::to_string(r.skipped_budget);
  out += ",\"failures\":[";
  for (size_t i = 0; i < r.failures.size(); i++) {
    const CrashFailure& f = r.failures[i];
    if (i > 0) {
      out += ",";
    }
    out += "{\"edge\":" + std::to_string(f.edge) + ",\"torn\":" + std::to_string(f.torn) +
           ",\"op\":" + std::to_string(f.op) + ",\"phase\":\"" + JsonEscape(f.phase) +
           "\",\"detail\":\"" + JsonEscape(f.detail) + "\"}";
  }
  out += "]}";
  return out;
}

bool WriteFileOrWarn(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "crashck: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << content;
  return out.good();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open '" + path + "'");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Result<std::vector<uint64_t>> ReadSeedFile(const std::string& path) {
  LFS_ASSIGN_OR_RETURN(std::string text, ReadWholeFile(path));
  std::vector<uint64_t> seeds;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') {
      continue;
    }
    seeds.push_back(std::stoull(line.substr(start)));
  }
  return seeds;
}

int RunExplore(int argc, char** argv) {
  std::string workload_name, script_path, bug, json_path;
  bool have_seed = false, expect_fail = false, print_script = false;
  uint64_t fuzz_seed = 0;
  ExploreOptions options;
  for (int i = 2; i < argc; i++) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--workload") {
      if (const char* v = next()) workload_name = v; else return Usage();
    } else if (arg == "--script") {
      if (const char* v = next()) script_path = v; else return Usage();
    } else if (arg == "--fuzz-seed") {
      if (const char* v = next()) { fuzz_seed = std::stoull(v); have_seed = true; }
      else return Usage();
    } else if (arg == "--max-states") {
      if (const char* v = next()) options.max_states = std::stoull(v); else return Usage();
    } else if (arg == "--bug") {
      if (const char* v = next()) bug = v; else return Usage();
    } else if (arg == "--json") {
      if (const char* v = next()) json_path = v; else return Usage();
    } else if (arg == "--expect-fail") {
      expect_fail = true;
    } else if (arg == "--print-script") {
      print_script = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return Usage();
    }
  }
  int sources = !workload_name.empty() + !script_path.empty() + (have_seed ? 1 : 0);
  if (sources != 1) {
    std::fprintf(stderr, "explore needs exactly one of --workload/--script/--fuzz-seed\n");
    return Usage();
  }
  if (!bug.empty() && bug != "reorder-cr") {
    std::fprintf(stderr, "unknown --bug '%s' (known: reorder-cr)\n", bug.c_str());
    return Usage();
  }

  Workload workload;
  if (!workload_name.empty()) {
    Result<Workload> w = CanonicalWorkload(workload_name);
    if (!w.ok()) {
      std::fprintf(stderr, "crashck: %s\n", w.status().ToString().c_str());
      return 2;
    }
    workload = std::move(*w);
  } else if (!script_path.empty()) {
    Result<std::string> text = ReadWholeFile(script_path);
    Result<Workload> w = text.ok() ? Workload::FromText(*text) : Result<Workload>(text.status());
    if (!w.ok()) {
      std::fprintf(stderr, "crashck: %s\n", w.status().ToString().c_str());
      return 2;
    }
    workload = std::move(*w);
  } else {
    workload = FuzzWorkload(fuzz_seed);
  }
  if (print_script) {
    std::printf("%s", workload.ToText().c_str());
  }

  Result<Recording> recording = RecordWorkload(workload);
  if (!recording.ok()) {
    std::fprintf(stderr, "crashck: record failed: %s\n",
                 recording.status().ToString().c_str());
    return 2;
  }
  if (bug == "reorder-cr") {
    Result<std::function<void(std::vector<CrashEdge>&)>> mut =
        SkippedCheckpointBarrierMutator(*recording);
    if (!mut.ok()) {
      std::fprintf(stderr, "crashck: %s\n", mut.status().ToString().c_str());
      return 2;
    }
    options.mutate_edges = std::move(*mut);
  }
  Result<ExploreReport> report = ExploreRecording(*recording, options);
  if (!report.ok()) {
    std::fprintf(stderr, "crashck: explore failed: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  std::printf("%s\n", report->Summary().c_str());
  for (const CrashFailure& f : report->failures) {
    std::printf("  %s\n", f.Describe().c_str());
  }
  if (!json_path.empty() &&
      !WriteFileOrWarn(json_path, ReportJson(workload.name, *report) + "\n")) {
    return 2;
  }
  bool failed = !report->clean();
  if (expect_fail) {
    if (!failed) {
      std::fprintf(stderr, "crashck: expected failures, found none (oracle lost its teeth?)\n");
    }
    return failed ? 0 : 1;
  }
  return failed ? 1 : 0;
}

int RunFuzz(int argc, char** argv) {
  std::string seeds_path, artifact_dir, json_path;
  bool have_range = false;
  uint64_t range_lo = 0, range_hi = 0;
  ExploreOptions options;
  for (int i = 2; i < argc; i++) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--seeds") {
      if (const char* v = next()) seeds_path = v; else return Usage();
    } else if (arg == "--range") {
      const char* lo = next();
      const char* hi = next();
      if (!lo || !hi) return Usage();
      range_lo = std::stoull(lo);
      range_hi = std::stoull(hi);
      have_range = true;
    } else if (arg == "--max-states") {
      if (const char* v = next()) options.max_states = std::stoull(v); else return Usage();
    } else if (arg == "--artifact-dir") {
      if (const char* v = next()) artifact_dir = v; else return Usage();
    } else if (arg == "--json") {
      if (const char* v = next()) json_path = v; else return Usage();
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return Usage();
    }
  }
  if (seeds_path.empty() == !have_range) {
    std::fprintf(stderr, "fuzz needs exactly one of --seeds/--range\n");
    return Usage();
  }

  std::vector<uint64_t> seeds;
  if (!seeds_path.empty()) {
    Result<std::vector<uint64_t>> r = ReadSeedFile(seeds_path);
    if (!r.ok()) {
      std::fprintf(stderr, "crashck: %s\n", r.status().ToString().c_str());
      return 2;
    }
    seeds = std::move(*r);
  } else {
    for (uint64_t s = range_lo; s < range_hi; s++) {
      seeds.push_back(s);
    }
  }

  uint64_t failed_seeds = 0;
  std::string json = "[";
  for (size_t idx = 0; idx < seeds.size(); idx++) {
    uint64_t seed = seeds[idx];
    Workload workload = FuzzWorkload(seed);
    Result<ExploreReport> report = ExploreWorkload(workload, options);
    if (!report.ok()) {
      // A record failure (model/filesystem divergence) is as much a finding
      // as an oracle failure; surface it the same way, minus minimization.
      std::fprintf(stderr, "seed %llu: record/explore failed: %s\n",
                   static_cast<unsigned long long>(seed),
                   report.status().ToString().c_str());
      failed_seeds++;
      if (!artifact_dir.empty()) {
        WriteFileOrWarn(artifact_dir + "/seed-" + std::to_string(seed) + ".txt",
                        workload.ToText());
      }
      continue;
    }
    std::printf("seed %llu: %s\n", static_cast<unsigned long long>(seed),
                report->Summary().c_str());
    if (idx > 0) {
      json += ",";
    }
    json += ReportJson(workload.name, *report);
    if (report->clean()) {
      continue;
    }
    failed_seeds++;
    for (const CrashFailure& f : report->failures) {
      std::printf("  %s\n", f.Describe().c_str());
    }
    if (!artifact_dir.empty()) {
      // Shrink before archiving; fall back to the full script if ddmin can't
      // reproduce (flaky or budget-limited failures).
      MinimizeOptions mopts;
      mopts.explore = options;
      Result<MinimizeResult> min = MinimizeWorkload(workload, mopts);
      const Workload& out = min.ok() ? min->workload : workload;
      std::string path = artifact_dir + "/seed-" + std::to_string(seed) + ".txt";
      if (WriteFileOrWarn(path, out.ToText())) {
        std::printf("  reproducer (%zu ops) written to %s\n", out.ops.size(),
                    path.c_str());
      }
    }
  }
  json += "]";
  if (!json_path.empty() && !WriteFileOrWarn(json_path, json + "\n")) {
    return 2;
  }
  std::printf("%zu seeds, %llu failed\n", seeds.size(),
              static_cast<unsigned long long>(failed_seeds));
  return failed_seeds == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string cmd = argv[1];
  if (cmd == "list") {
    for (const std::string& name : CanonicalWorkloadNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (cmd == "explore") {
    return RunExplore(argc, argv);
  }
  if (cmd == "fuzz") {
    return RunFuzz(argc, argv);
  }
  return Usage();
}
