"""Measure every workload over several seeds and append the result to the perf trajectory.

From the root of a checkout:

    python3 perfbench/record.py --label "what this commit is"

For each workload it runs ``run.py`` untraced once per seed 1-10, one fresh
interpreter at a time, and reports each end-to-end metric's median,
quartiles and spread (quartile distance over median) against the bound in
``BENCHMARK.json``. It then makes one traced run per workload at the
workload's canonical seed and keeps its per-layer table. The entry is
appended to ``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
CANONICAL_SEEDS = {"ideal_reference": 7, "effective_desk": 307, "mcwf_oracle": 77}
SEEDS = list(range(1, 11))


def run(workload, seed, seconds, trace):
    """One benchmark run: (exit code, stamp, result)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no result (exit {done.returncode})\n{done.stderr}")
    stamp = next((json.loads(line[6:]) for line in lines if line.startswith("stamp ")), {})
    return done.returncode, stamp, json.loads(lines[-1])


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    entry = {"label": args.label, "seeds": SEEDS, "run_seconds": seconds,
             "untraced": {}, "traced": {}}
    steady = True
    for workload in CANONICAL_SEEDS:
        values, failures = {}, []
        for seed in SEEDS:
            code, stamp, result = run(workload, seed, seconds, 0)
            entry.setdefault("stamp", stamp)
            if code != 0 or not result["correct"]:
                failures.append(seed)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, code, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        rows = {}
        for metric in bench["end_to_end"]:
            row = rows[metric["name"]] = summarize(values[metric["name"]], metric["bound"])
            row["unit"] = metric["unit"]
            within = row["spread"] <= metric["bound"] / 3
            steady &= within
            print(f"  {workload} {metric['name']}: median {row['median']:.5g} {row['unit']}, "
                  f"spread {row['spread']:.4f} (bound {metric['bound']}, a third {metric['bound'] / 3:.4f})"
                  + ("" if within else "  <-- unsteady"), flush=True)
        entry["untraced"][workload] = {"failed_seeds": failures, "metrics": rows}
        seed = CANONICAL_SEEDS[workload]
        code, _, result = run(workload, seed, seconds, 1)
        entry["traced"][workload] = {"seed": seed, "correct": result["correct"] and code == 0,
                                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        overhead = result["metrics"]["trace.overhead"]["value"]
        print(f"  {workload} traced at seed {seed}: overhead {overhead:.3f}", flush=True)
    entry["steady"] = steady
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended entry {len(history)} to {TRAJECTORY}")


if __name__ == "__main__":
    main()
