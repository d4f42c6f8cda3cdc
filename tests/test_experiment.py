"""Ensemble runner, statistics, density-matrix references, and exports."""

import csv
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cavtel import experiment
from cavtel.dynamics import (
    Segment,
    detector_channels,
    effective_hamiltonian,
    evolve_with_jumps,
    make_propagator,
)
from cavtel.experiment import (
    EnsembleConfig,
    TrajectorySummary,
    compute_stats,
    haar_input,
    master_equation_reference,
    mcwf_density_average,
    receiver_fidelity,
    result_summary_dict,
    run_ensemble,
    trace_distance,
    write_figure_csvs,
    write_summaries_csv,
    write_summary_json,
)
from cavtel.params import PhysicalParams, desk_params, reference_params
from cavtel.protocol import protocol_space
from cavtel.spaces import Register, SiteShape, normalized


def test_haar_input_statistics():
    rng = np.random.default_rng(0)
    pairs = [haar_input(rng) for _ in range(4000)]
    for a, b in pairs[:50]:
        assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0, abs=1e-12)
    # |a|^2 is uniform on [0, 1] for Haar draws.
    weights = np.array([abs(a) ** 2 for a, _ in pairs])
    assert weights.mean() == pytest.approx(0.5, abs=0.02)
    assert np.quantile(weights, 0.25) == pytest.approx(0.25, abs=0.03)


def test_haar_input_is_seed_deterministic():
    assert haar_input(np.random.default_rng(5)) == haar_input(np.random.default_rng(5))


def test_receiver_fidelity_crafted_states():
    space = protocol_space()
    pure = space.ket("0000;100")
    assert receiver_fidelity(space, pure, 1.0, 0.0) == pytest.approx(1.0)
    assert receiver_fidelity(space, pure, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    entangled = (space.ket("0000;100") + space.ket("1000;010")) / np.sqrt(2)
    s = 1 / np.sqrt(2)
    assert receiver_fidelity(space, entangled, s, s) == pytest.approx(0.5)
    # The receiver must be the register's last site.
    with pytest.raises(ValueError, match="last site"):
        receiver_fidelity(Register([*space.sites, space.sites[1]]), np.zeros(space.dim * 16), 1.0, 0.0)


def test_resolve_params_profiles_and_override():
    assert EnsembleConfig(profile="reference").resolve_params() == reference_params()
    assert EnsembleConfig(profile="desk").resolve_params() == desk_params()
    custom = desk_params()
    assert EnsembleConfig(profile="reference", params=custom).resolve_params() is custom
    assert EnsembleConfig(profile="bench", params=custom).resolve_params() is custom
    with pytest.raises(ValueError):
        EnsembleConfig(profile="bench").resolve_params()


@pytest.mark.parametrize(
    "settings,key",
    [
        ({"backend": "quantum"}, "backend"),
        ({"profile": "lab"}, "profile"),
        ({"trajectories": 0}, "trajectories"),
        ({"trajectories": 2.5}, "trajectories"),
        ({"max_repetitions": -1}, "max_repetitions"),
        ({"seed": -1}, "seed"),
        ({"seed": None}, "seed"),
        ({"detect_lifetimes": 0.0}, "detect_lifetimes"),
        ({"detect_lifetimes": math.nan}, "detect_lifetimes"),
        ({"detect_lifetimes": math.inf}, "detect_lifetimes"),
        ({"detect_lifetimes": "10"}, "detect_lifetimes"),
        ({"amp_in": (0, 0j)}, "amp_in"),
        ({"amp_in": ("a", 1)}, "amp_in"),
        ({"amp_in": (math.nan, 1.0)}, "amp_in"),
        ({"amp_in": (1.0, 0.0, 0.0)}, "amp_in"),
    ],
)
def test_ensemble_config_rejects_bad_settings(settings, key):
    with pytest.raises(ValueError, match=key):
        EnsembleConfig(**settings)


@pytest.fixture(scope="module")
def small_ideal_result():
    cfg = EnsembleConfig(backend="ideal", trajectories=40, seed=99)
    return run_ensemble(cfg)


def test_run_ensemble_shapes_and_determinism(small_ideal_result):
    res = small_ideal_result
    assert len(res.summaries) == 40
    assert res.records == []
    again = run_ensemble(EnsembleConfig(backend="ideal", trajectories=40, seed=99))
    for s0, s1 in zip(res.summaries, again.summaries):
        assert (s0.outcome, s0.repetitions, s0.branch) == (s1.outcome, s1.repetitions, s1.branch)
        assert s0.fidelity == s1.fidelity or (math.isnan(s0.fidelity) and math.isnan(s1.fidelity))


def test_run_ensemble_prefix_stability(small_ideal_result):
    # Trajectory i only depends on (seed, i), not on the ensemble size.
    shorter = run_ensemble(EnsembleConfig(backend="ideal", trajectories=10, seed=99))
    for s0, s1 in zip(shorter.summaries, small_ideal_result.summaries):
        assert s0.outcome == s1.outcome
        assert s0.elapsed == s1.elapsed


def test_run_ensemble_fidelity_nan_only_on_failure(small_ideal_result):
    for s in small_ideal_result.summaries:
        if s.succeeded:
            assert s.fidelity == pytest.approx(1.0, abs=1e-9)
            assert s.repetitions == s.silent_resets + s.double_resets
        else:
            assert math.isnan(s.fidelity)


def test_run_ensemble_keep_records_and_fixed_input():
    cfg = EnsembleConfig(backend="ideal", trajectories=5, seed=7, amp_in=(0.6, 0.8))
    res = run_ensemble(cfg, keep_records=True)
    assert len(res.records) == 5
    for rec in res.records:
        assert rec.amp_in == (pytest.approx(0.6), pytest.approx(0.8))


def test_run_ensemble_trace_tags_trajectories():
    events = []
    run_ensemble(EnsembleConfig(backend="ideal", trajectories=3, seed=1), trace=events.append)
    assert {e["trajectory"] for e in events} == {0, 1, 2}
    assert all("event" in e for e in events)


def _summary(index, outcome, reps, fid):
    return TrajectorySummary(
        index=index,
        outcome=outcome,
        repetitions=reps,
        silent_resets=reps,
        double_resets=0,
        fidelity=fid,
        branch="click" if outcome.startswith("success") else "",
        leakage=0.0,
        elapsed=1.0,
    )


@pytest.mark.parametrize("backend,profile", [("ideal", "reference"), ("effective", "desk")])
def test_register_kets_are_built_once_per_ensemble(monkeypatch, backend, profile):
    # The start kets and the receiver's target kets are constants of the
    # register: later trajectories look up no label.
    calls = []
    for name in ("index", "site_ket"):
        def counted(self, *args, _method=getattr(Register, name), _name=name):
            calls.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(Register, name, counted)
    config = EnsembleConfig(backend=backend, profile=profile, trajectories=1, seed=5)
    run_ensemble(config)
    first = sorted(calls)
    assert first == ["index", "index", "site_ket", "site_ket"]
    calls.clear()
    res = run_ensemble(dataclasses.replace(config, trajectories=12))
    assert sum(s.succeeded for s in res.summaries) > 1
    assert sorted(calls) == first


def test_ideal_insurance_follows_one_minus_two_to_the_minus_k():
    # Each round heralds with probability 1/2, so success within k
    # repetitions is 1 - 2^-(k+1); every P[k] must sit within 3 of its own
    # standard errors of it.
    stats = run_ensemble(EnsembleConfig(backend="ideal", trajectories=2000, seed=7)).stats
    for k in stats["budgets"]:
        p, err = stats["success_probability"][k], stats["success_probability_err"][k]
        assert abs(p - (1.0 - 2.0 ** -(k + 1))) <= 3.0 * err, k


def test_compute_stats_hand_example():
    rows = [
        _summary(0, "success_final_click", 0, 1.0),
        _summary(1, "success_final_silent", 2, 0.9),
        _summary(2, "abort_stray_click", 1, math.nan),
        _summary(3, "success_final_click", 1, 0.8),
    ]
    stats = compute_stats(rows, max_repetitions=2)
    assert stats["trajectories"] == 4
    assert stats["budgets"] == [0, 1, 2]
    assert stats["success_probability"] == [0.25, 0.5, 0.75]
    assert stats["success_counts"] == [1, 2, 3]
    assert stats["mean_fidelity"][0] == pytest.approx(1.0)
    assert stats["mean_fidelity"][1] == pytest.approx(0.9)
    assert stats["mean_fidelity"][2] == pytest.approx(0.9)
    assert stats["overall_success_fidelity"] == pytest.approx(0.9)
    assert stats["mean_repetitions"] == pytest.approx(1.0)
    assert stats["outcomes"]["abort_stray_click"] == 1
    p = 0.5
    assert stats["success_probability_err"][1] == pytest.approx(math.sqrt(p * (1 - p) / 4))


def test_compute_stats_empty_budget_bins():
    rows = [_summary(0, "exhausted_repetitions", 3, math.nan)]
    stats = compute_stats(rows, max_repetitions=1)
    assert stats["success_probability"] == [0.0, 0.0]
    assert math.isnan(stats["mean_fidelity"][0])
    assert math.isnan(stats["overall_success_fidelity"])


@pytest.fixture(scope="module")
def decay_system():
    space = Register([SiteShape(1, 2, 1)])
    # Decay-dominated corner: dressing shifts well below the cavity rate, so
    # the reference integration resolves decay instead of fast phase winding.
    params = PhysicalParams.from_mhz(
        laser_detuning=2000.0,
        rabi_strong=1.0,
        rabi_weak=0.1,
        cavity_coupling=0.05,
        atom_decay=1e-4,
        cavity_decay=0.05,
    )
    h = effective_hamiltonian(space, params)
    channels = detector_channels(space, params)
    return space, params, h, channels


def test_master_equation_matches_exponential_decay(decay_system):
    space, params, h, channels = decay_system
    kappa = params.cavity_decay
    psi0 = space.ket("01")
    rho0 = np.outer(psi0, psi0.conj())
    t_points = np.array([0.5, 1.0, 2.0]) / kappa
    rhos = master_equation_reference(h, channels, rho0, t_points)
    i1 = space.index(space.parse("01"))
    i0 = space.index(space.parse("00"))
    for rho, t in zip(rhos, t_points):
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-7)
        assert rho[i1, i1].real == pytest.approx(np.exp(-2 * kappa * t), rel=1e-6)
        assert rho[i0, i0].real == pytest.approx(1 - np.exp(-2 * kappa * t), rel=1e-6)


def test_mcwf_average_approaches_master_equation(decay_system):
    space, params, h, channels = decay_system
    kappa = params.cavity_decay
    psi0 = (space.ket("01") + space.ket("10")) / np.sqrt(2)
    rho0 = np.outer(psi0, psi0.conj())
    t_points = np.array([0.3, 0.9, 1.8]) / kappa
    exact = master_equation_reference(h, channels, rho0, t_points)
    sampled = mcwf_density_average(h, channels, psi0, t_points, n_traj=400, seed=5)
    for rho_s, rho_e in zip(sampled, exact):
        assert np.trace(rho_s).real == pytest.approx(1.0, abs=1e-9)
        assert trace_distance(rho_s, rho_e) < 0.06


def _bell_pair(space):
    return (space.ket("01") + space.ket("10")) / np.sqrt(2)


def test_mcwf_average_matches_per_trajectory_outer_sum(decay_system):
    space, params, h, channels = decay_system
    psi0 = _bell_pair(space)
    # A checkpoint at 0 and a repeated one: neither advances time.
    t_points = np.array([0.0, 0.4, 0.4, 1.1]) / params.cavity_decay
    n_traj = experiment._CHUNK + 3
    sampled = mcwf_density_average(h, channels, psi0, t_points, n_traj=n_traj, seed=11)

    prop = make_propagator(h)
    want = np.zeros_like(sampled)
    for child in np.random.SeedSequence(11).spawn(n_traj):
        rng = np.random.default_rng(child)
        psi, t_prev = psi0.astype(complex), 0.0
        for j, t in enumerate(t_points):
            if t > t_prev:
                segments = [Segment(t - t_prev, prop)]
                run = evolve_with_jumps(psi, segments, channels, rng, stop_on_emission=False)
                psi, t_prev = normalized(run.psi), t
            want[j] += np.outer(psi, psi.conj())
    want /= n_traj
    assert np.max(np.abs(sampled - want)) <= 1e-12
    for rho in sampled:
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-13
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_mcwf_average_walks_trajectory_major(decay_system, monkeypatch):
    space, params, h, channels = decay_system
    t_points = np.array([0.0, 0.5, 0.5, 1.0]) / params.cavity_decay
    n_traj = experiment._CHUNK + 3
    calls = []

    def recorder(psi, segments, channels, rng, **kwargs):
        calls.append((rng.bit_generator.seed_seq.spawn_key[-1], [s.duration for s in segments]))
        return evolve_with_jumps(psi, segments, channels, rng, **kwargs)

    monkeypatch.setattr("cavtel.experiment.evolve_with_jumps", recorder)
    mcwf_density_average(h, channels, _bell_pair(space), t_points, n_traj=n_traj, seed=3)
    step = 0.5 / params.cavity_decay
    assert calls == [(i, [pytest.approx(step)]) for i in range(n_traj) for _ in range(2)]


def test_mcwf_average_repeats_exactly(decay_system):
    space, params, h, channels = decay_system
    t_points = np.array([0.3, 0.9]) / params.cavity_decay
    first, second = (
        mcwf_density_average(h, channels, _bell_pair(space), t_points, n_traj=50, seed=8) for _ in range(2)
    )
    assert np.array_equal(first, second)


@pytest.mark.parametrize(
    "n_traj, t_points, name",
    [
        (0, [1.0], "n_traj"),
        (2.5, [1.0], "n_traj"),
        (4, [2.0, 1.0], "t_points"),
        (4, [-1.0], "t_points"),
        (4, [math.nan], "t_points"),
    ],
)
def test_mcwf_average_rejects_bad_inputs(decay_system, n_traj, t_points, name):
    space, params, h, channels = decay_system
    with pytest.raises(ValueError, match=name):
        mcwf_density_average(h, channels, _bell_pair(space), t_points, n_traj=n_traj, seed=1)


@pytest.mark.parametrize(
    "make_psi0",
    [
        lambda psi: 2 * psi,  # trace 4 at t = 0, and jump thresholds off
        lambda psi: np.append(psi, 0.0),  # one entry too many
        lambda psi: psi.reshape(1, -1),
        lambda psi: np.where(psi == 0, np.nan, psi),
        lambda psi: psi * (1 + 1e-8),
    ],
    ids=["norm_2", "length", "2d", "nan", "off_by_1e-8"],
)
def test_mcwf_average_rejects_bad_psi0(decay_system, make_psi0):
    # A case of test_mcwf_average_rejects_bad_inputs, kept apart so that test's ids stay.
    space, params, h, channels = decay_system
    psi0 = make_psi0(_bell_pair(space))
    with pytest.raises(ValueError, match="psi0"):
        mcwf_density_average(h, channels, psi0, [1.0], n_traj=4, seed=1)


def test_trace_distance_reference_values():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    mixed = np.diag([0.5, 0.5]).astype(complex)
    assert trace_distance(zero, one) == pytest.approx(1.0)
    assert trace_distance(zero, zero) == 0.0
    assert trace_distance(zero, mixed) == pytest.approx(0.5)


def test_csv_and_json_round_trip(tmp_path, small_ideal_result):
    res = small_ideal_result
    csv_path = tmp_path / "results.csv"
    write_summaries_csv(csv_path, res.summaries)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "index", "outcome", "repetitions", "silent_resets", "double_resets",
        "fidelity", "branch", "leakage", "elapsed_us", "reason",
    ]
    assert len(rows) == 1 + len(res.summaries)
    assert rows[1][0] == "0"
    assert [row[-1] for row in rows[1:]] == [s.reason for s in sorted(res.summaries, key=lambda s: s.index)]

    json_path = tmp_path / "summary.json"
    write_summary_json(json_path, res)
    payload = json.loads(json_path.read_text())
    assert payload["config"]["trajectories"] == 40
    assert payload["stats"]["trajectories"] == 40
    assert payload["params_rad_per_us"]["rabi_strong"] == pytest.approx(
        reference_params().rabi_strong
    )
    assert payload == result_summary_dict(res)


def test_summary_json_is_strict_when_a_curve_has_no_successes(tmp_path):
    # Seed 1's only trajectory succeeds after one reset, so budget 0 has no
    # fidelity to average: NaN in the stats, null in the file.
    res = run_ensemble(EnsembleConfig(backend="ideal", trajectories=1, seed=1))
    assert math.isnan(res.stats["mean_fidelity"][0])
    path = tmp_path / "summary.json"
    write_summary_json(path, res)

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(path.read_text(), parse_constant=reject)
    assert payload["stats"]["mean_fidelity"][0] is None
    assert payload["stats"]["mean_fidelity_err"][0] is None
    assert payload["stats"]["mean_fidelity"][1] == res.stats["mean_fidelity"][1]
    assert payload == result_summary_dict(res)


def test_csv_reports_abort_reasons(tmp_path):
    # Successes carry no reason; an abort keeps its reason, commas included.
    exhausted = TrajectorySummary(
        index=1, outcome="exhausted_repetitions", repetitions=6, silent_resets=6, double_resets=0,
        fidelity=math.nan, branch="", leakage=0.0, elapsed=1.0,
        reason="no heralding click, within the repetition budget",
    )
    csv_path = tmp_path / "results.csv"
    write_summaries_csv(csv_path, [exhausted, _summary(0, "success_final_click", 0, 1.0)])
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["reason"] for r in rows] == ["", "no heralding click, within the repetition budget"]


def test_run_ensemble_records_abort_reasons():
    # With no repetition allowed, seed 4's only round fails to herald.
    res = run_ensemble(EnsembleConfig(backend="ideal", trajectories=1, seed=4, max_repetitions=0,
                                      amp_in=(1.0, 0.0)))
    assert res.summaries[0].outcome == "exhausted_repetitions"
    assert res.summaries[0].reason == "no heralding click within the repetition budget"


def test_figure_csvs(tmp_path, small_ideal_result):
    write_figure_csvs(tmp_path, small_ideal_result.stats)
    with open(tmp_path / "fig3.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["repetition_budget", "success_probability", "stderr"]
    assert len(rows) == 2 + small_ideal_result.config.max_repetitions
    with open(tmp_path / "fig4.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["repetition_budget", "mean_fidelity", "stderr", "successes"]
    with open(tmp_path / "fig5.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["success_probability", "mean_fidelity"]


_THREAD_PROBE = """
from cavtel.experiment import EnsembleConfig, run_ensemble
result = run_ensemble(EnsembleConfig(backend="effective", profile="desk", trajectories=70, seed=307))
for s in result.summaries:
    print(s.index, s.outcome, repr(s.fidelity), repr(s.elapsed))
"""


def test_effective_ensemble_is_independent_of_blas_threads():
    # Seed 307's trajectory 61 amplifies any rounding in the propagators
    # click by click: it once moved by 0.065 in fidelity between 1 and 2 threads.
    src = str(pathlib.Path(experiment.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        outputs.append(done.stdout.splitlines())
    assert len(outputs[0]) == 70
    assert outputs[0] == outputs[1]
