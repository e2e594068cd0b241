#!/usr/bin/env python3
"""Validate BENCH_<name>.json benchmark reports.

Every benchmark binary emits a machine-readable report through
lfs::bench::BenchReport (see bench/bench_common.h). This script is the CI
gate on that contract:

  check_bench_schema.py validate FILE...
      Exit non-zero unless every FILE is a well-formed report:
      schema_version == 1, string "bench" name, boolean "smoke", a "metrics"
      object of finite numbers, and a "histograms" object whose entries each
      carry count/mean_us/min_us/max_us and the p50/p90/p95/p99 percentile
      fields as finite numbers.

Diffing reports against baselines is tools/compare_bench.py's job.

Only the Python standard library is used.
"""

import json
import math
import sys

HIST_FIELDS = ("count", "mean_us", "p50_us", "p90_us", "p95_us", "p99_us",
               "min_us", "max_us")


def fail(msg):
    print(f"check_bench_schema: {msg}", file=sys.stderr)
    return False


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def validate_report(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{path}: {e}")
    ok = True
    if not isinstance(doc, dict):
        return fail(f"{path}: top level is not an object")
    if doc.get("schema_version") != 1:
        ok = fail(f"{path}: schema_version != 1")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        ok = fail(f"{path}: missing/empty \"bench\" name")
    if not isinstance(doc.get("smoke"), bool):
        ok = fail(f"{path}: \"smoke\" must be a boolean")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return fail(f"{path}: missing \"metrics\" object")
    for key, value in metrics.items():
        if not is_num(value):
            ok = fail(f"{path}: metric {key!r} is not a finite number")
    hists = doc.get("histograms")
    if not isinstance(hists, dict):
        return fail(f"{path}: missing \"histograms\" object")
    for name, h in hists.items():
        if not isinstance(h, dict):
            ok = fail(f"{path}: histogram {name!r} is not an object")
            continue
        for field in HIST_FIELDS:
            if not is_num(h.get(field)):
                ok = fail(f"{path}: histogram {name!r} missing numeric {field!r}")
    return ok


def main(argv):
    if len(argv) >= 3 and argv[1] == "validate":
        ok = all([validate_report(p) for p in argv[2:]])
        if ok:
            print(f"check_bench_schema: {len(argv) - 2} report(s) valid")
        return 0 if ok else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
