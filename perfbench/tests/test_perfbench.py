"""Self-tests for the benchmark: tiny runs of each workload, and its gates.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q

Each case starts ``perfbench/run.py`` in a fresh interpreter, one at a time,
as the benchmark is meant to be run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"ideal_reference": ("7", "20"), "effective_desk": ("307", "12"), "mcwf_oracle": ("77", "1000")}


@pytest.fixture
def scratch():
    """A directory inside the checkout's ignored output tree, removed afterwards."""
    base = ROOT / ".perfbench_out"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base, prefix="selftest-"))
    yield path
    shutil.rmtree(path)


def run(workload, trace=0, root=ROOT, extra=()):
    seed, size = TINY[workload]
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", seed,
           "--seconds", "0", "--trace", str(trace), "--trajectories", size, *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == ["ideal_reference", "effective_desk", "mcwf_oracle"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr + done.stdout
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == int(TINY[workload][1])
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]
        assert f"metric {metric['name']} = " in done.stdout
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_tampered_reference_fails_the_gate(scratch):
    refs = json.loads((ROOT / "perfbench" / "references.json").read_text())
    ref = refs["ideal_reference"]["7/20"]
    ref["outcomes"] = {"exhausted_repetitions": 20}
    ref["success_counts"] = [0] * len(ref["success_counts"])
    ref["success_probability"] = [0.0] * len(ref["success_probability"])
    tampered = scratch / "references.json"
    tampered.write_text(json.dumps(refs))
    done = run("ideal_reference", extra=("--references", str(tampered)))
    assert done.returncode == 1
    assert result_of(done)["correct"] is False
    assert "check FAIL reference" in done.stdout


def _copy(scratch, with_program):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(ROOT / "perfbench", scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_program:
        shutil.copytree(ROOT / "src", scratch / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return scratch


def test_fails_without_the_program(scratch):
    done = run("mcwf_oracle", root=_copy(scratch, with_program=False))
    assert done.returncode != 0
    assert done.stdout == ""


def test_missing_entry_point_is_named(scratch):
    root = _copy(scratch, with_program=True)
    module = root / "src" / "cavtel" / "experiment.py"
    module.write_text(module.read_text().replace("def mcwf_density_average(", "def _averaged("))
    done = run("mcwf_oracle", root=root)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "cavtel.experiment.mcwf_density_average" in done.stderr


def test_missing_layer_target_is_absent_not_zero(scratch):
    root = _copy(scratch, with_program=True)
    module = root / "src" / "cavtel" / "dynamics.py"
    module.write_text(module.read_text().replace("_bisect_jump_time", "_bisect_for_jump"))
    done = run("mcwf_oracle", trace=1, root=root)
    assert done.returncode == 0, done.stderr
    metrics = result_of(done)["metrics"]
    assert metrics["dynamics.jump_search.calls"] == {"value": None, "unit": "count", "absent": True}
    assert metrics["dynamics.self_s"]["value"] is None
    assert metrics["dynamics.evolve.dense.calls"]["value"] > 0
    assert "metric dynamics.jump_search.busy_s = absent s" in done.stdout
