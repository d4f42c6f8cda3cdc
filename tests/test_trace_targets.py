"""The benchmark reaches cavtel functions by name.

``perfbench/tracing.py`` lists every function and method it times. A name
that no longer resolves turns its per-layer metrics absent, so a rename in
``cavtel`` has to show here, not only in a traced benchmark run.
``perfbench/workloads.py`` lists the entry points its end-to-end metrics
call; the benchmark refuses to run when one is gone.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_trace_target_resolves():
    if not TRACING.exists():
        pytest.skip("perfbench/tracing.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer().installed() as tracer:
        assert tracer.absent == []


def test_every_benchmark_entry_point_resolves(monkeypatch):
    if not PERFBENCH.is_dir():
        pytest.skip("perfbench/ is not in this checkout")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads").require_entry_points()
