"""Run one workload of the cavtel trajectory benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload ideal_reference --seed 7 --seconds 20 --trace 0

Workloads: ideal_reference, effective_desk, mcwf_oracle (see workloads.py).
The program is imported from ``src/`` beside this directory, never from an
installed copy. Each invocation is one fresh interpreter running one
workload; nothing runs in a pool.

Standard output ends with one JSON object holding ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The lines before it give the run's
stamp (commit, versions, BLAS, cores, seed, size), each correctness check,
and every metric with its unit. Outputs and span files go to
``.perfbench_out/<workload>/`` in the checkout.

Exit status: 0 when every check passed, 1 when one failed (the result is
still printed), 2 when the program or an entry point the metrics time is
missing (nothing is printed on standard output).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"
WORKLOADS = ("ideal_reference", "effective_desk", "mcwf_oracle")


class ProgramMissing(Exception):
    pass


def blas_threads():
    """At most the usable cores and at most two, so runs on bigger machines
    stay comparable with the 2-core box the bounds were set on."""
    return max(1, min(len(os.sched_getaffinity(0)), 2))


def import_program():
    """Import cavtel from this checkout; returns the seconds the import took."""
    if not (SRC / "cavtel" / "__init__.py").is_file():
        raise ProgramMissing(f"no cavtel package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import cavtel.experiment  # noqa: F401  (pulls numpy, scipy and every layer)
    except ImportError as exc:
        raise ProgramMissing(f"cannot import cavtel: {exc}") from exc
    elapsed = time.perf_counter() - start
    origin = Path(sys.modules["cavtel"].__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"cavtel was imported from {origin}, not from {SRC}")
    return elapsed


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "cavtel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def runtime_blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib_path).name] = fn()
                break
    return found


def stamp(args, trajectories, threads):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trajectories": trajectories,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "blas_threads_runtime": runtime_blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="repeat the user-facing call until this long has passed (at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trajectories", type=int,
                        help="override the workload size (the self-tests run tiny sizes)")
    parser.add_argument("--references", type=Path, default=REFERENCES,
                        help="committed reference file the correctness gate reads")
    args = parser.parse_args(argv)
    if args.trajectories is not None and args.trajectories < 1:
        parser.error("--trajectories must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    threads = blas_threads()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)  # read by BLAS when numpy first loads
    sys.path.insert(0, str(HERE))
    try:
        import_s = import_program()
        import workloads
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        workloads.require_entry_points()
        references = json.loads(args.references.read_text())
        trajectories = args.trajectories or workloads.default_trajectories(args.workload)
        outcome = workloads.run(args.workload, args.seed, args.seconds, trajectories, references,
                                import_s, OUT / args.workload, bool(args.trace))
    except (workloads.MissingEntryPoint, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print("stamp " + json.dumps(stamp(args, trajectories, threads)))
    print("info " + json.dumps(outcome.info))
    for check in outcome.checks:
        print(f"check {'PASS' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    metrics = {}
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} = {'absent' if value is None else value} {unit}")
        metrics[name] = {"value": value, "unit": unit} | ({"absent": True} if value is None else {})
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
