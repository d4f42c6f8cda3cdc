"""Regenerate ``references.json``, the committed outputs the correctness gate compares.

From the root of a checkout:

    python3 perfbench/make_references.py

For each ensemble workload it runs the cold user-facing call at the seeds and
sizes below and keeps the outcome counts and the P[k]/F[k] curves. Run it
only when the program's physics is meant to change, and commit the result
with the reason.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (workload, seed, trajectories): the canonical seeds at full size, and the
# tiny sizes the self-tests run.
CASES = (
    ("ideal_reference", 7, 1000),
    ("ideal_reference", 7, 20),
    ("effective_desk", 307, 200),
    ("effective_desk", 307, 12),
)


def main():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    table = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload, seed, trajectories in CASES:
            spec = workloads.ENSEMBLES[workload]
            config = workloads.experiment.EnsembleConfig(
                backend=spec.backend, profile=spec.profile, trajectories=trajectories, seed=seed)
            result, wall = workloads.user_call(config, Path(tmp))
            table.setdefault(workload, {})[f"{seed}/{trajectories}"] = workloads.reference_record(result.stats)
            print(f"{workload} seed {seed} x{trajectories}: {result.stats['outcomes']} in {wall:.1f} s")
    (HERE / "references.json").write_text(json.dumps(table, indent=2) + "\n")


if __name__ == "__main__":
    main()
