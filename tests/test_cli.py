"""Command-line interface: argument handling, outputs, exit codes."""

import json

import numpy as np
import pytest

from cavtel import cli
from cavtel.checks import CheckOutcome
from cavtel.params import TWO_PI, reference_params


REFERENCE_MHZ = {
    "laser_detuning": 2000.0,
    "rabi_strong": 10.0,
    "rabi_weak": 0.84,
    "cavity_coupling": 0.07,
    "atom_decay": 1e-4,
    "cavity_decay": 1e-7,
}


def _run_main(argv):
    return cli.main(argv)


def test_run_writes_outputs(tmp_path, capsys):
    outdir = tmp_path / "out"
    code = _run_main(
        ["run", "--backend", "ideal", "--trajectories", "8", "--seed", "5",
         "--output-dir", str(outdir)]
    )
    assert code == 0
    assert (outdir / "results.csv").exists()
    payload = json.loads((outdir / "summary.json").read_text())
    assert payload["config"]["trajectories"] == 8
    assert payload["config"]["seed"] == 5
    out = capsys.readouterr().out
    assert "success probability with full budget" in out
    assert "results.csv" in out


def test_run_trace_file_is_json_lines(tmp_path):
    trace = tmp_path / "trace.jsonl"
    code = _run_main(
        ["run", "--backend", "ideal", "--trajectories", "2", "--seed", "1",
         "--output-dir", str(tmp_path), "--trace", str(trace)]
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines
    events = [json.loads(line) for line in lines]
    assert {e["trajectory"] for e in events} == {0, 1}


def test_figures_command(tmp_path):
    code = _run_main(
        ["figures", "--backend", "ideal", "--trajectories", "6", "--seed", "2",
         "--output-dir", str(tmp_path)]
    )
    assert code == 0
    for name in ("fig3.csv", "fig4.csv", "fig5.csv"):
        assert (tmp_path / name).exists()


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "backend": "ideal",
        "trajectories": 50,
        "seed": 3,
        "input": [0.6, 0.8],
    }))
    outdir = tmp_path / "o"
    code = _run_main(
        ["run", "--config", str(cfg), "--trajectories", "4", "--output-dir", str(outdir)]
    )
    assert code == 0
    payload = json.loads((outdir / "summary.json").read_text())
    # CLI flag wins over the file; untouched keys come from the file.
    assert payload["config"]["trajectories"] == 4
    assert payload["config"]["seed"] == 3


def test_params_mhz_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "backend": "ideal",
        "trajectories": 2,
        "params_mhz": REFERENCE_MHZ,
    }))
    code = _run_main(["run", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert "converted to rad/us by 2*pi" in captured.err
    assert "converted to rad/us" not in captured.out
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["params_rad_per_us"]["rabi_strong"] == pytest.approx(TWO_PI * 10.0)


DESK_MHZ = {
    "laser_detuning": 2.0e6,
    "rabi_strong": 1.0e4,
    "rabi_weak": 840.0,
    "cavity_coupling": 70.0,
    "atom_decay": 0.1,
    "cavity_decay": 1e-4,
}


@pytest.mark.parametrize("command", ["run", "figures"])
def test_run_states_its_regime(tmp_path, capsys, command):
    # Desk rates with the detuning cut 4x: two scale separations fall below 10.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "backend": "ideal",
        "trajectories": 2,
        "params_mhz": {**DESK_MHZ, "laser_detuning": 5e5},
    }))
    assert _run_main([command, "--config", str(cfg), "--output-dir", str(tmp_path)]) == 0
    warns = [line for line in capsys.readouterr().err.splitlines() if line.startswith("WARN")]
    assert warns == [
        "WARN regime: laser_detuning/10 over rabi_strong: ratio 5 (want >= 10)",
        "WARN regime: cavity_decay over scattering rate: ratio 2.5 (want >= 10)",
    ]
    if command == "run":
        validity = json.loads((tmp_path / "summary.json").read_text())["validity"]
        failing = {name for name, row in validity.items() if not row["passes"]}
        assert failing == {"laser_detuning/10 over rabi_strong", "cavity_decay over scattering rate"}
        assert validity["laser_detuning/10 over rabi_strong"]["ratio"] == pytest.approx(5.0)
        assert all(row["threshold"] == 10.0 for row in validity.values())
        assert len(validity) == 6

    # The desk profile itself is in its regime: no warning.
    assert _run_main([command, "--backend", "ideal", "--profile", "desk", "--trajectories", "2",
                      "--output-dir", str(tmp_path)]) == 0
    assert "WARN" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        ({"trajectories": 0}, "positive"),
        ({"max_repetitions": -1}, ">= 0"),
        ({"detect_lifetimes": 0.0}, "positive"),
        ({"backend": "quantum"}, "backend"),
        ({"profile": "lab"}, "profile"),
        ({"input": [1.0, 2.0, 3.0]}, "input"),
        ({"mystery_key": 1}, "unknown config keys"),
        ({"params_mhz": {"rabi_strong": 1.0}}, "missing"),
        ({"params_mhz": {**REFERENCE_MHZ, "laser_detuning": 0.0}}, "laser_detuning"),
        ({"params_mhz": {**REFERENCE_MHZ, "cavity_decay": -1e-7}}, "cavity_decay"),
        ({"params_mhz": {**REFERENCE_MHZ, "rabi_strong": float("nan")}}, "rabi_strong"),
        ({"detect_lifetimes": "nan"}, "detect_lifetimes"),
        ({"detect_lifetimes": "inf"}, "detect_lifetimes"),
        ({"trajectories": "abc"}, "trajectories"),
        ({"seed": -1}, "seed"),
        ({"seed": None}, "seed"),
        ({"input": [0, 0]}, "input"),
        ({"input": ["a", 1]}, "input"),
        ({"trace": 2}, "trace"),
        ({"output_dir": 5}, "output_dir"),
        ({"seed": 7.5}, "seed"),
        ({"trajectories": 2.9}, "trajectories"),
        ({"trajectories": True}, "trajectories"),
        ({"max_repetitions": 1.7}, "max_repetitions"),
        ({"detect_lifetimes": True}, "detect_lifetimes"),
        ({"profile": ["desk"]}, "profile"),
        ({"backend": ["ideal"]}, "backend"),
        ({"params_mhz": {**REFERENCE_MHZ, "rabi_weak": True}}, "rabi_weak"),
        ({"params_mhz": {**REFERENCE_MHZ, "cavity_coupling": "0.07"}}, "cavity_coupling"),
        ({"input": [True, 0]}, "input"),
        ({"input": ["1", "0"]}, "input"),
        ({"atom_decay_convention": "bogus"}, "atom_decay_convention"),
        ({"atom_decay_convention": "population"}, "atom_decay_convention"),
    ],
)
def test_config_errors_exit_one(tmp_path, capsys, mutate, fragment):
    cfg = tmp_path / "cfg.json"
    base = {"backend": "ideal", "trajectories": 2}
    base.update(mutate)
    cfg.write_text(json.dumps(base))
    code = _run_main(["run", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert code == 1
    assert fragment in capsys.readouterr().err


def test_rates_that_underflow_a_derived_rate_exit_one(tmp_path, capsys):
    # rabi_exchange underflows to 0, and the pulse solver divides by it.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "backend": "ideal",
        "trajectories": 2,
        "params_mhz": {**REFERENCE_MHZ, "laser_detuning": 1e300, "rabi_strong": 1e-300, "rabi_weak": 1e-301},
    }))
    assert _run_main(["run", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "rabi_exchange" in err
    assert not (tmp_path / "summary.json").exists()


def test_rates_that_give_an_infinite_pulse_duration_exit_one(tmp_path, capsys):
    # Every derived rate is finite and > 0, but rabi_exchange and rabi_raman
    # are so small that the pulse durations overflow.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "backend": "ideal",
        "trajectories": 2,
        "params_mhz": {"laser_detuning": 1e300, "rabi_strong": 1e-5, "rabi_weak": 1e-6,
                       "cavity_coupling": 1e-7, "atom_decay": 1e-4, "cavity_decay": 1e-7},
    }))
    assert _run_main(["run", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "pulse durations" in err and "swap" in err
    assert not (tmp_path / "summary.json").exists()


def test_summary_states_the_derived_rates(tmp_path):
    assert _run_main(["run", "--backend", "ideal", "--trajectories", "2", "--output-dir", str(tmp_path)]) == 0
    derived = json.loads((tmp_path / "summary.json").read_text())["derived_rad_per_us"]
    params = reference_params()
    assert list(derived) == ["shift_strong", "detuning_offset", "weak_detuning", "shift_weak",
                             "shift_photon", "rabi_raman", "rabi_exchange", "cross_weak_cavity"]
    assert derived == {name: getattr(params, name) for name in derived}


def test_malformed_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run_main(["run", "--config", str(bad)]) == 1
    assert "JSON" in capsys.readouterr().err
    assert _run_main(["run", "--config", str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_unusable_output_paths_exit_one(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    missing = tmp_path / "missing" / "t.jsonl"
    base = ["run", "--backend", "ideal", "--trajectories", "1"]
    assert _run_main([*base, "--output-dir", str(afile / "x")]) == 1
    err = capsys.readouterr().err
    assert "config error: output_dir" in err and str(afile / "x") in err
    assert _run_main([*base, "--output-dir", str(tmp_path), "--trace", str(missing)]) == 1
    err = capsys.readouterr().err
    assert "config error: trace" in err and str(missing) in err


def test_usage_errors_exit_one(capsys):
    assert _run_main([]) == 1
    assert _run_main(["run", "--backend", "bogus"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert _run_main(["--help"]) == 0
    assert "cavtel" in capsys.readouterr().out


def test_check_command_pass_and_strict(monkeypatch, capsys):
    rows = [
        CheckOutcome("alpha", True, False, "fine"),
        CheckOutcome("beta", False, True, "borderline"),
    ]
    monkeypatch.setattr("cavtel.checks.run_all_checks", lambda params: rows)
    assert _run_main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS alpha: fine" in out
    assert "WARN beta: borderline" in out
    assert _run_main(["check", "--strict"]) == 2


def test_check_command_hard_failure(monkeypatch, capsys):
    rows = [CheckOutcome("gamma", False, False, "broken")]
    monkeypatch.setattr("cavtel.checks.run_all_checks", lambda params: rows)
    assert _run_main(["check"]) == 2
    assert "FAIL gamma: broken" in capsys.readouterr().out


def test_internal_errors_exit_three(monkeypatch, capsys, tmp_path):
    def boom(config, trace=None, keep_records=False):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr("cavtel.cli.run_ensemble", boom)
    code = _run_main(["run", "--trajectories", "1", "--output-dir", str(tmp_path)])
    assert code == 3
    assert "synthetic fault" in capsys.readouterr().err


def test_run_defaults_reach_ensemble(monkeypatch, tmp_path):
    captured = {}

    def spy(config, trace=None, keep_records=False):
        captured["config"] = config
        from cavtel.experiment import run_ensemble
        return run_ensemble(
            type(config)(backend="ideal", trajectories=1, seed=0), trace=trace
        )

    monkeypatch.setattr("cavtel.cli.run_ensemble", spy)
    assert _run_main(["run", "--output-dir", str(tmp_path)]) == 0
    cfg = captured["config"]
    assert cfg.backend == "ideal"
    assert cfg.profile == "reference"
    assert cfg.trajectories == 100
    assert cfg.max_repetitions == 6
    assert cfg.seed == 20240816
    assert cfg.detect_lifetimes == 10.0


def test_parse_input_forms():
    assert cli._parse_input(None) is None
    assert cli._parse_input([0.6, 0.8]) == (0.6 + 0j, 0.8 + 0j)
    a, b = cli._parse_input([0.0, 0.6, 0.8, 0.0])
    assert a == 0.6j
    assert b == 0.8
    with pytest.raises(cli.ConfigError):
        cli._parse_input("0.6,0.8")
