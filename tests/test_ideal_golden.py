"""Golden record of the closed-form ``ideal`` engine.

``ideal_golden.json`` holds the summary rows of 200 ideal/reference
trajectories at seed 7 and the sha256 of the trace that
``cavtel run --backend ideal --trajectories 30 --seed 7 --trace ...``
writes. A change that moves the engine's bits fails here first.

Outcome, repetitions and elapsed time (as ``float.hex``) are exact;
fidelity is held to 1e-14. To re-record after a change that is meant to
move the bits, run ``PYTHONPATH=src python tests/test_ideal_golden.py``
from the root of a checkout and commit the rewritten fixture with the
reason. The script prints every row that moved against the fixture it
replaces, and whether the trace sha256 moved.
"""

import hashlib
import json
import math
import pathlib
import tempfile

from cavtel import cli
from cavtel.experiment import EnsembleConfig, run_ensemble

FIXTURE = pathlib.Path(__file__).with_name("ideal_golden.json")
ROWS_CONFIG = EnsembleConfig(backend="ideal", profile="reference", trajectories=200, seed=7)
TRACE_ARGS = ["run", "--backend", "ideal", "--trajectories", "30", "--seed", "7"]


def _rows():
    return [
        [s.outcome, s.repetitions, s.elapsed.hex(), None if math.isnan(s.fidelity) else s.fidelity]
        for s in run_ensemble(ROWS_CONFIG).summaries
    ]


def _trace_sha256(outdir):
    outdir = pathlib.Path(outdir)
    trace = outdir / "trace.jsonl"
    assert cli.main([*TRACE_ARGS, "--output-dir", str(outdir), "--trace", str(trace)]) == 0
    return hashlib.sha256(trace.read_bytes()).hexdigest()


def _same_row(got, want):
    """Outcome, repetitions and elapsed exact; fidelity within 1e-14."""
    if got[:3] != want[:3] or (got[3] is None) != (want[3] is None):
        return False
    return want[3] is None or abs(got[3] - want[3]) <= 1e-14


def test_ideal_summary_rows_match_the_golden_record():
    golden = json.loads(FIXTURE.read_text())["rows"]
    rows = _rows()
    assert len(rows) == len(golden)
    for index, (got, want) in enumerate(zip(rows, golden)):
        assert _same_row(got, want), index


def test_ideal_trace_matches_the_golden_record(tmp_path, capsys):
    assert _trace_sha256(tmp_path) == json.loads(FIXTURE.read_text())["trace_sha256"]


if __name__ == "__main__":
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {"trace_sha256": None, "rows": []}
    with tempfile.TemporaryDirectory() as tmp:
        sha = _trace_sha256(tmp)
    rows = _rows()
    moved, shifts = 0, []
    for index in range(max(len(rows), len(old["rows"]))):
        was = old["rows"][index] if index < len(old["rows"]) else None
        now = rows[index] if index < len(rows) else None
        if was is None or now is None or not _same_row(now, was):
            moved += 1
            print(f"row {index} moved: {was} -> {now}")
        elif now[3] is not None and now[3] != was[3]:
            shifts.append(abs(now[3] - was[3]))
    print(f"{moved} of {len(rows)} rows moved past the test's tolerance")
    if shifts:
        print(f"fidelity moved within 1e-14 on {len(shifts)} more rows, at most {max(shifts):.2g}")
    if sha == old["trace_sha256"]:
        print(f"trace sha256 unchanged: {sha}")
    else:
        print(f"trace sha256 moved: {old['trace_sha256']} -> {sha}")
    body = ",\n  ".join(json.dumps(row) for row in rows)
    FIXTURE.write_text(f'{{"trace_sha256": "{sha}",\n "rows": [\n  {body}\n ]}}\n')
    print(f"wrote {FIXTURE}")
