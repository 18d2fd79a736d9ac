#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perf_e2e/test_perf_e2e.py

Builds the benchmark like run.py does, then runs short (--seconds 1) passes:
  * every metric BENCHMARK.json names is printed, with its unit, in the
    matching --trace mode, on every workload;
  * a deliberately failing cluster run is counted and does not crash the
    benchmark;
  * the simulated-output digests are identical across two runs with the
    same seed, and between an untraced and a traced run.
"""
import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BINARY = run.build_dir() / "perf_e2e"
PROVENANCE_KEYS = {"nproc", "build_type", "compiler", "git", "git_dirty",
                   "source_hash", "config_hash", "seed"}


def bench(workload, seed, trace, *extra):
    proc = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digests(lines):
    return [l for l in lines if l.startswith("# digest ")]


class PerfE2ETest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(run.build_dir())

    def test_every_metric_printed_with_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    lines, result = bench(w["name"], 3, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in result["metrics"].items():
                        self.assertTrue(math.isfinite(v["value"]), k)
                    prov = json.loads(lines[0].split(" ", 2)[2])
                    self.assertLessEqual(PROVENANCE_KEYS, set(prov))
                    self.assertEqual(prov["seed"], 3)

    def test_failing_run_is_counted(self):
        _, result = bench("resnet50-p3-16w-chaos", 1, 0, "--inject-failure")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], result["failed"])
        share = result["metrics"]["ok_run_share"]["value"]
        self.assertAlmostEqual(share, 1 - 1 / result["attempted"])
        self.assertGreater(result["metrics"]["host_s_per_iter"]["value"], 0)

    def test_digest_repeats_for_same_seed(self):
        first, _ = bench("resnet50-p3-16w-chaos", 7, 0)
        again, _ = bench("resnet50-p3-16w-chaos", 7, 0)
        traced, result = bench("resnet50-p3-16w-chaos", 7, 1)
        other, _ = bench("resnet50-p3-16w-chaos", 8, 0)
        self.assertTrue(result["correct"])  # untraced == traced digests
        self.assertEqual(digests(first), digests(again))
        self.assertEqual(digests(first), digests(traced))
        self.assertNotEqual(digests(first), digests(other))


if __name__ == "__main__":
    unittest.main()
