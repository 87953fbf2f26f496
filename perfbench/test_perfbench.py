#!/usr/bin/env python3
"""Tests of the surfd benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload smoke-sized, traced and untraced, and checks that the
result line names exactly the metrics of BENCHMARK.json with their units
and that the report prints each of them with its unit. Also checks that
the correctness checks fire (a corrupted and a truncated response, and a
repeated identical body that the server coalesces), and that the
benchmark refuses to run without the sources it builds.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        spec = load_spec()
        declared = spec["per_layer" if trace else "end_to_end"]
        done = run_bench("--workload", workload, "--seed", "3", "--seconds", "2",
                         "--trace", str(trace), "--smoke")
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        report = "\n".join(lines[:-1])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            line = re.search(r"^\w+\s+%s\s+= \S+ %s\b" % (re.escape(m["name"]),
                                                          re.escape(m["unit"])),
                             report, re.M)
            self.assertIsNotNone(line, "%s not printed with its unit" % m["name"])
        self.assertRegex(report, r"host: nproc=\d+ accel_backend=\S+ compiler=.+ "
                                 r"build_type=\S+ commit=\S+ seed=3")
        if trace:
            self.assertIn("layer table (%s" % workload, report)
            self.assertIn("search accounting", report)
        return result

    def test_warm_hits(self):
        for trace in (0, 1):
            self.check_run("warm_hits", trace)

    def test_cold_misses(self):
        for trace in (0, 1):
            self.check_run("cold_misses", trace)

    def test_mixed_tenants(self):
        for trace in (0, 1):
            self.check_run("mixed_tenants", trace)

    def test_cluster_misses(self):
        for trace in (0, 1):
            result = self.check_run("cluster_misses", trace)
            if trace:
                self.assertGreater(result["metrics"]["dist.rpcs"]["value"], 0)

    def test_workloads_match_spec(self):
        names = [w["name"] for w in load_spec()["workloads"]]
        self.assertEqual(names, ["warm_hits", "cold_misses", "mixed_tenants",
                                 "cluster_misses"])


class ChecksFire(unittest.TestCase):
    def test_corrupted_truncated_and_coalesced_responses_are_flagged(self):
        done = run_bench("--selftest")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr[-3000:])
        for check in ("clean_response_passes", "corrupted_response_flagged",
                      "truncated_response_flagged", "coalesced_repeat_flagged"):
            self.assertRegex(done.stdout, r"selftest %s: yes" % check)


class RefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "warm_hits",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
