#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py <base_dir> <new_dir>

Each directory holds the per-run records perfbench writes
(.bench_build/perfbench-out/<workload>-seed<n>-trace<t>.json). Copy the
directory aside after measuring the base commit. Runs measured on hosts with
a different CPU count, or built with a different build type, are refused:
their numbers are not comparable. For every end-to-end metric the script
prints both medians and quartiles, the change, and the bound from
BENCHMARK.json: "worse" when the new median is worse than the base median
by more than the bound, "unresolved" when the base runs spread wider than
the bound themselves. The raw wall times (job_ms.p50, job_ms.p90,
speedup_vs_single), the host probe time and fail_ratio, which the records
carry but BENCHMARK.json does not gate, are printed for information.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            records.append(json.load(f))
    return records


def host_key(record):
    return record["host"]["nproc"], record["host"]["build_type"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("compare: no *-trace0.json records found", file=sys.stderr)
        return 2
    keys = {host_key(r) for r in base + new}
    if len(keys) != 1:
        print("compare: refusing to pair runs from different hosts or builds "
              f"(nproc, build type): {sorted(keys)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    status = 0
    for workload in sorted({r["workload"] for r in base}):
        b_runs = [r for r in base if r["workload"] == workload]
        n_runs = [r for r in new if r["workload"] == workload]
        if not n_runs:
            continue
        print(f"{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs, "
              f"failed {sum(r['failed'] for r in b_runs)} -> "
              f"{sum(r['failed'] for r in n_runs)}")
        for name, metric in spec.items():
            b = quartiles([r["metrics"][name]["value"] for r in b_runs])
            n = quartiles([r["metrics"][name]["value"] for r in n_runs])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = (n[1] - b[1]) / b[1] if b[1] else 0.0
            spread = (b[2] - b[0]) / b[1] if b[1] else 0.0
            verdict = "ok"
            if sign * change > metric["bound"]:
                verdict = "worse"
                status = 1
            elif spread > metric["bound"]:
                verdict = "unresolved"
            print(f"  {name:22s} base {b[1]:11.5g} [{b[0]:.5g}, {b[2]:.5g}]  "
                  f"new {n[1]:11.5g} [{n[0]:.5g}, {n[2]:.5g}]  "
                  f"{change:+7.1%} (bound {metric['bound']:.0%}) {verdict}")
        for name in ("job_ms.p50", "job_ms.p90", "speedup_vs_single", "probe_ms.p50",
                     "fail_ratio"):
            b = quartiles([r[name] for r in b_runs])
            n = quartiles([r[name] for r in n_runs])
            print(f"  {name:22s} base {b[1]:11.5g} [{b[0]:.5g}, {b[2]:.5g}]  "
                  f"new {n[1]:11.5g} [{n[0]:.5g}, {n[2]:.5g}]  (not gated)")
    return status


if __name__ == "__main__":
    sys.exit(main())
