"""Golden records of the ``ideal`` engine and the numeric tiers.

``ideal_golden.json`` holds the summary rows of 200 ideal/reference
trajectories at seed 7 and the sha256 of the trace that
``cavtel run --backend ideal --trajectories 30 --seed 7 --trace ...``
writes. ``numeric_golden.json`` holds the rows of 100 effective/desk
trajectories at seed 307 and 30 full/desk trajectories at seed 11. A
change that moves either engine's bits fails here first.

Outcome, repetitions and elapsed time (as ``float.hex``) are exact;
fidelity is held to 1e-14 for the ideal engine and 1e-12 for the numeric
tiers. Each numeric row also lists its record's clicks as ``[time.hex(),
sign]`` on the run clock, compared exactly; the ideal engine's click times
are pinned by the trace sha256. To re-record after a change that is meant
to move the bits, run ``PYTHONPATH=src python tests/test_ideal_golden.py``
from the root of a checkout and commit the rewritten fixtures with the
reason. The script prints every row that moved against the fixture it
replaces, and whether the trace sha256 moved.
"""

import hashlib
import json
import math
import pathlib
import tempfile

import pytest

from cavtel import cli
from cavtel.experiment import EnsembleConfig, run_ensemble

FIXTURE = pathlib.Path(__file__).with_name("ideal_golden.json")
ROWS_CONFIG = EnsembleConfig(backend="ideal", profile="reference", trajectories=200, seed=7)
TRACE_ARGS = ["run", "--backend", "ideal", "--trajectories", "30", "--seed", "7"]
IDEAL_TOLERANCE = 1e-14

NUMERIC_FIXTURE = pathlib.Path(__file__).with_name("numeric_golden.json")
NUMERIC_CONFIGS = {
    "effective_desk_307": EnsembleConfig(backend="effective", profile="desk", trajectories=100, seed=307),
    "full_desk_11": EnsembleConfig(backend="full", profile="desk", trajectories=30, seed=11),
}
NUMERIC_TOLERANCE = 1e-12


def _rows(config=ROWS_CONFIG, clicks=False):
    """One row per trajectory; with ``clicks``, the record's clicks appended."""
    result = run_ensemble(config, keep_records=clicks)
    rows = [
        [s.outcome, s.repetitions, s.elapsed.hex(), None if math.isnan(s.fidelity) else s.fidelity]
        for s in result.summaries
    ]
    for row, record in zip(rows, result.records):
        row.append([[c.time.hex(), c.sign] for c in record.clicks])
    return rows


def _trace_sha256(outdir):
    outdir = pathlib.Path(outdir)
    trace = outdir / "trace.jsonl"
    assert cli.main([*TRACE_ARGS, "--output-dir", str(outdir), "--trace", str(trace)]) == 0
    return hashlib.sha256(trace.read_bytes()).hexdigest()


def _same_row(got, want, tolerance=IDEAL_TOLERANCE):
    """Outcome, repetitions, elapsed and clicks exact; fidelity within ``tolerance``."""
    if got[:3] != want[:3] or got[4:] != want[4:] or (got[3] is None) != (want[3] is None):
        return False
    return want[3] is None or abs(got[3] - want[3]) <= tolerance


def _assert_rows(rows, golden, tolerance):
    assert len(rows) == len(golden)
    for index, (got, want) in enumerate(zip(rows, golden)):
        assert _same_row(got, want, tolerance), index


def test_ideal_summary_rows_match_the_golden_record():
    _assert_rows(_rows(), json.loads(FIXTURE.read_text())["rows"], IDEAL_TOLERANCE)


def test_ideal_trace_matches_the_golden_record(tmp_path, capsys):
    assert _trace_sha256(tmp_path) == json.loads(FIXTURE.read_text())["trace_sha256"]


@pytest.mark.parametrize("name", NUMERIC_CONFIGS)
def test_numeric_summary_rows_match_the_golden_record(name):
    golden = json.loads(NUMERIC_FIXTURE.read_text())[name]
    _assert_rows(_rows(NUMERIC_CONFIGS[name], clicks=True), golden, NUMERIC_TOLERANCE)


def _report(label, rows, old_rows, tolerance):
    """Print the rows that moved against ``old_rows``."""
    moved, shifts = 0, []
    for index in range(max(len(rows), len(old_rows))):
        was = old_rows[index] if index < len(old_rows) else None
        now = rows[index] if index < len(rows) else None
        if was is None or now is None or not _same_row(now, was, tolerance):
            moved += 1
            print(f"{label} row {index} moved: {was} -> {now}")
        elif now[3] is not None and now[3] != was[3]:
            shifts.append(abs(now[3] - was[3]))
    print(f"{label}: {moved} of {len(rows)} rows moved past the test's tolerance")
    if shifts:
        print(f"{label}: fidelity moved within {tolerance:g} on {len(shifts)} more rows, "
              f"at most {max(shifts):.2g}")


def _body(rows):
    return ",\n  ".join(json.dumps(row) for row in rows)


if __name__ == "__main__":
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {"trace_sha256": None, "rows": []}
    with tempfile.TemporaryDirectory() as tmp:
        sha = _trace_sha256(tmp)
    rows = _rows()
    _report("ideal", rows, old["rows"], IDEAL_TOLERANCE)
    if sha == old["trace_sha256"]:
        print(f"trace sha256 unchanged: {sha}")
    else:
        print(f"trace sha256 moved: {old['trace_sha256']} -> {sha}")
    FIXTURE.write_text(f'{{"trace_sha256": "{sha}",\n "rows": [\n  {_body(rows)}\n ]}}\n')
    print(f"wrote {FIXTURE}")

    old = json.loads(NUMERIC_FIXTURE.read_text()) if NUMERIC_FIXTURE.exists() else {}
    blocks = []
    for name, config in NUMERIC_CONFIGS.items():
        rows = _rows(config, clicks=True)
        _report(name, rows, old.get(name, []), NUMERIC_TOLERANCE)
        blocks.append(f'"{name}": [\n  {_body(rows)}\n ]')
    NUMERIC_FIXTURE.write_text("{" + ",\n ".join(blocks) + "}\n")
    print(f"wrote {NUMERIC_FIXTURE}")
