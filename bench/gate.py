#!/usr/bin/env python3
"""Apply the gates of bench/gates.json to fresh Google Benchmark outputs.

    gate.py MANIFEST RESULTS_DIR

RESULTS_DIR holds <binary>.json for each binary the manifest names. Gate
kinds: "baseline" (real time / baseline <= bound), "ratio" (row / "over"
row of the same run <= bound) and "faster" (row < the named row of the
same run). The baseline is the one keyed by the outputs' num_cpus and
build_type. Without one, the in-run gates still run, then the run is
refused and the entry it would add is printed. Exit 0 only when every gate
passed against a baseline (docs/RUNTIME.md "Benchmark gate").
"""

import json
import os
import sys

TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
KEY = ("num_cpus", "build_type")


def main(manifest_path, results_dir):
    with open(manifest_path) as f:
        manifest = json.load(f)
    rows = manifest["rows"]
    failed = False

    def report(ok, line):
        nonlocal failed
        failed |= not ok
        print(("PASS " if ok else "FAIL ") + line)

    runs, keys = {}, set()
    for binary in dict.fromkeys(r["binary"] for r in rows):
        with open(os.path.join(results_dir, binary + ".json")) as f:
            doc = json.load(f)
        context = doc["context"]
        keys.add(tuple(context.get(k) for k in KEY))
        print(f"{binary}: " + " ".join(f"{k}={context.get(k)}" for k in KEY) +
              f" (library_build_type={context.get('library_build_type')})")
        runs[binary] = {}
        for b in doc["benchmarks"]:
            runs[binary].setdefault(b["name"], []).append(
                float(b["real_time"]) * TO_MS[b.get("time_unit", "ns")])

    times = {}

    def now(binary, name):
        """Fresh real time in ms, or None (a failure) unless it appears once."""
        if name not in times:
            found = runs[binary].get(name, [])
            times[name] = found[0] if len(found) == 1 else None
            if times[name] is None:
                report(False, f"{binary}: {name} appears {len(found)} times")
        return times[name]

    if len(keys) != 1:
        report(False, f"outputs disagree on {KEY}: {sorted(keys, key=str)}")
        key = baseline = None
    else:
        key = dict(zip(KEY, keys.pop()))
        baseline = next((b for b in manifest["baselines"]
                         if all(b[k] == key[k] for k in KEY)), None)

    for r in rows:
        name, t = r["name"], now(r["binary"], r["name"])
        if t is None:
            continue
        if "baseline" in r and baseline is not None:
            ref = baseline["real_time_ms"].get(name)
            ratio = t / ref if ref else float("inf")
            report(ratio <= r["baseline"], f"baseline {name}: {t:.3f} ms vs "
                   f"{ref} ms (x{ratio:.2f}, bound x{r['baseline']})")
        if "ratio" in r and now(r["binary"], r["ratio"]["over"]) is not None:
            scale = t / times[r["ratio"]["over"]]
            report(scale <= r["ratio"]["bound"], f"ratio {name} / "
                   f"{r['ratio']['over']}: x{scale:.2f} (bound x{r['ratio']['bound']})")
        if "faster" in r and now(r["binary"], r["faster"]) is not None:
            report(t < times[r["faster"]], f"faster {name} {t:.3f} ms < "
                   f"{r['faster']} {times[r['faster']]:.3f} ms")

    if key is not None and baseline is None:
        failed = True
        key["real_time_ms"] = {r["name"]: round(times[r["name"]], 4) for r in rows
                               if "baseline" in r and times[r["name"]] is not None}
        print(f"REFUSED: no baseline for num_cpus={key['num_cpus']} build_type="
              f"{key['build_type']} in {manifest_path}; runs from another topology "
              "or build type are not compared. This run's entry for \"baselines\":\n"
              + json.dumps(key, indent=2))
    if failed:
        sys.exit(1)
    print("all gates passed")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
