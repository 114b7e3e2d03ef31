#!/usr/bin/env python3
"""Tests of bench/gate.py on synthetic outputs: gate_test.py BENCH_DIR.

Rows and bounds come from BENCH_DIR/gates.json; baselines and fresh times
are made up here, under a key no real host has.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = None
KEY = {"num_cpus": 3, "build_type": "GateTest"}


class GateTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(BENCH_DIR, "gates.json")) as f:
            self.rows = json.load(f)["rows"]
        self.binary_of = {n: r["binary"] for r in self.rows for n in (
            r["name"], r.get("ratio", {}).get("over"), r.get("faster")) if n}
        # 1 ms a row; ratio rows take 2x their "over" row and faster rows
        # half of theirs, so every gate passes with margin.
        self.times = dict.fromkeys(self.binary_of, 1.0)
        for r in self.rows:
            if "ratio" in r:
                self.times[r["name"]] = 2.0 * self.times[r["ratio"]["over"]]
            if "faster" in r:
                self.times[r["name"]] = 0.5 * self.times[r["faster"]]
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def gate(self, passed, fresh, baseline=None, key=KEY, unit="ms", duplicate=None):
        """Run gate.py on fresh times (ms) against `baseline` (default: the
        synthetic times), assert its verdict and return its output."""
        with open(os.path.join(self.tmp.name, "gates.json"), "w") as f:
            json.dump({"rows": self.rows, "baselines": [
                dict(KEY, real_time_ms=baseline or self.times)]}, f)
        scale = {"ms": 1.0, "us": 1e3}[unit]
        for binary in set(self.binary_of.values()):
            benchmarks = [{"name": n, "real_time": t * scale, "time_unit": unit}
                          for n, t in fresh.items() if self.binary_of[n] == binary]
            benchmarks += [b for b in benchmarks if b["name"] == duplicate]
            with open(os.path.join(self.tmp.name, binary + ".json"), "w") as f:
                json.dump({"context": dict(key, library_build_type="debug"),
                           "benchmarks": benchmarks}, f)
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "gate.py"),
             os.path.join(self.tmp.name, "gates.json"), self.tmp.name],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode == 0, passed, proc.stdout + proc.stderr)
        return proc.stdout

    def test_everything_passes(self):
        self.assertIn("all gates passed", self.gate(True, self.times))

    def test_baseline_bound_in_ms_and_us(self):
        for unit in ("ms", "us"):
            for r in (r for r in self.rows if "baseline" in r):
                for factor, passed in ((1.19, True), (1.21, False)):
                    with self.subTest(unit=unit, row=r["name"], factor=factor):
                        fresh = dict(self.times, **{r["name"]: self.times[r["name"]] * factor})
                        # Only this row's baseline gate may decide.
                        baseline = dict(fresh, **{r["name"]: self.times[r["name"]]})
                        self.gate(passed, fresh, baseline, unit=unit)

    def test_in_run_gates(self):
        ratio = next(r for r in self.rows if "ratio" in r)
        faster = next(r for r in self.rows if "faster" in r)
        for row, other, factor, passed in (
                (ratio, ratio["ratio"]["over"], 2.99, True),
                (ratio, ratio["ratio"]["over"], 3.01, False),
                (faster, faster["faster"], 0.99, True),
                (faster, faster["faster"], 1.0, False)):
            with self.subTest(row=row["name"], factor=factor):
                fresh = dict(self.times, **{row["name"]: factor * self.times[other]})
                self.gate(passed, fresh, baseline=fresh)

    def test_missing_or_duplicated_row_fails(self):
        for name in self.times:
            with self.subTest(row=name):
                fresh = {n: t for n, t in self.times.items() if n != name}
                self.assertIn(name + " appears 0 times", self.gate(False, fresh))
                self.assertIn(name + " appears 2 times",
                              self.gate(False, self.times, duplicate=name))

    def test_unknown_key_is_refused_after_in_run_gates(self):
        for key in ({"num_cpus": 1, "build_type": "GateTest"},
                    {"num_cpus": 3, "build_type": "Debug"}):
            with self.subTest(key=key):
                out = self.gate(False, self.times, key=key)
                self.assertIn(f"REFUSED: no baseline for num_cpus={key['num_cpus']} "
                              f"build_type={key['build_type']}", out)
                self.assertIn("PASS ratio", out)
                self.assertIn("PASS faster", out)
                self.assertNotIn("baseline BM_", out)


if __name__ == "__main__":
    BENCH_DIR = sys.argv.pop(1)
    unittest.main(verbosity=2)
