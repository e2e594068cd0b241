"""Self-tests of the benchmark.

lfsbench --selftest checks the benchmark's own arithmetic: percentile choice
and its sample count, quantiles over rounds, span self-time subtraction, and
generator determinism. The test below checks that the single-client
workloads repeat every count-type metric exactly for a fixed seed. Run from
the repository root:

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (perfbench/run.py builds lfsbench)

# End-to-end metrics that a single client computes from counters, not clocks.
COUNTED_END_TO_END = ["write_cost", "modeled_disk_ms_per_op"]

# Per-layer metrics that are counts or ratios of counts.
COUNTED_PER_LAYER = [
    "fd_table.calls_per_op",
    "lfs.create.calls", "lfs.write.calls", "lfs.read.calls", "lfs.unlink.calls",
    "lfs.sync.calls",
    "segment_writer.blocks_per_write", "segment_writer.log_bytes_per_user_byte",
    "segment_writer.meta_bytes_per_user_byte", "segment_writer.summary_share",
    "cleaner.passes", "cleaner.segments_cleaned", "cleaner.empty_fraction",
    "cleaner.avg_cleaned_u", "cleaner.copy_bytes_per_user_byte", "cleaner.stall_ops",
    "checkpoint.count", "checkpoint.bytes",
    "recovery.partials_replayed", "recovery.read_blocks",
    "read_cache.miss_blocks_per_read",
    "block_cache.hit_ratio", "block_cache.evictions_per_op", "block_cache.writebacks_per_op",
    "disk.read_calls_per_op", "disk.read_blocks_per_call", "disk.write_blocks_per_call",
    "disk.modeled_busy_s", "disk.seeks",
]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = str(run.build())

    def drive(self, *args):
        out = subprocess.run([self.binary, *args], check=True, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_selftest(self):
        subprocess.run([self.binary, "--selftest"], check=True)

    def test_single_client_counts_repeat(self):
        # Short runs that still give sync_p50_ms its 20 samples.
        for workload, seconds in (("churn", "4"), ("reread", "1")):
            args = ["--workload", workload, "--seed", "3", "--seconds", seconds]
            for trace, names in (("0", COUNTED_END_TO_END), ("1", COUNTED_PER_LAYER)):
                first = self.drive(*args, "--trace", trace)
                second = self.drive(*args, "--trace", trace)
                for name in names:
                    with self.subTest(workload=workload, metric=name):
                        self.assertEqual(first[name], second[name])


if __name__ == "__main__":
    unittest.main()
