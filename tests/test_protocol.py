"""Protocol driver, phase bookkeeping, and backend behavior."""

import cmath
import itertools
import math

import numpy as np
import pytest

from cavtel.dynamics import Click, survival_solve
from cavtel.experiment import EnsembleConfig, receiver_fidelity, run_ensemble
from cavtel.params import desk_params, reference_params
from cavtel.protocol import (
    LEAKAGE_LIMIT,
    SUCCESS_FINAL_CLICK,
    SUCCESS_FINAL_SILENT,
    SUCCESS_OUTCOMES,
    IdealBackend,
    NumericBackend,
    PhaseRules,
    ProtocolRecord,
    make_backend,
    protocol_space,
    reset_target_state,
    run_protocol,
)
from cavtel.pulses import FLIP_INTENT_ANGLE, PULSE_INTENT, PulseTruncationError, solve_pulse_times
from cavtel.spaces import norm2, normalized


@pytest.fixture(scope="module")
def ideal():
    return IdealBackend(reference_params())


@pytest.fixture(scope="module")
def rules(ideal):
    return PhaseRules(ideal.params, ideal.times)


def _run_ideal(ideal, seed, a=0.6, b=0.8, max_repetitions=6):
    return run_protocol(ideal, a, b, np.random.default_rng(seed), max_repetitions=max_repetitions)


def _find(ideal, pred, seeds=range(200), **kwargs):
    for seed in seeds:
        rec = _run_ideal(ideal, seed, **kwargs)
        if pred(rec):
            return rec
    raise AssertionError("no run matching the predicate in the seed range")


def test_protocol_space_dimensions():
    assert protocol_space().dim == 512
    assert protocol_space(cutoff=2).dim == 288
    assert IdealBackend(reference_params()).space.dim == 288
    assert protocol_space(levels=3).dim == 3888
    assert protocol_space(levels=2, cutoff=4).dim == 800


@pytest.mark.parametrize(
    "a,b",
    [
        (0, 0),
        (0.0, 0j),
        (math.nan, 1),
        (math.inf, 1),
        (1, complex(0, math.nan)),
        pytest.param(10**400, 1, id="10**400-1"),
    ],
)
def test_run_protocol_rejects_bad_input_amplitudes(ideal, a, b):
    with pytest.raises(ValueError, match="two finite numbers, not both zero"):
        run_protocol(ideal, a, b, np.random.default_rng(0))


@pytest.mark.parametrize(
    "scale",
    [
        1e200,
        1e-200,
        pytest.param(np.float64(1e200), id="np.float64(1e+200)"),
        pytest.param(np.complex128(1e-200), id="np.complex128(1e-200)"),
    ],
)
def test_run_protocol_takes_amplitudes_whose_squares_leave_the_float_range(ideal, scale):
    # Rescaled first, (x, x) is (1, 1)/sqrt(2) to the bit, so the run is (1, 1)'s.
    # NumPy scalars must not warn on the way (warnings fail the suite).
    want = run_protocol(ideal, 1.0, 1.0, np.random.default_rng(5))
    rec = run_protocol(ideal, scale, scale, np.random.default_rng(5))
    assert rec.amp_in == want.amp_in
    assert (rec.outcome, rec.repetitions) == (want.outcome, want.repetitions)
    assert rec.final_state.tobytes() == want.final_state.tobytes()


def test_make_backend_dispatch():
    p = desk_params()
    assert isinstance(make_backend("ideal", p), IdealBackend)
    eff = make_backend("effective", p)
    assert isinstance(eff, NumericBackend)
    assert eff.space.dim == 800  # one guard rung above the working cutoff
    full = make_backend("full", p)
    assert full.tier == "full"
    assert full.space.dim == 3888
    with pytest.raises(ValueError):
        make_backend("magic", p)


def test_branch_phases_are_unit_modulus(rules):
    rec = ProtocolRecord(
        amp_in=(0.6, 0.8),
        repetitions=2,
        silent_resets=1,
        double_resets=1,
        prep_sign=-1,
        main_sign=1,
        main_click_offset=123.4,
    )
    for phase in (rules.click_branch_phase(rec), rules.silent_branch_phase(rec)):
        assert abs(phase) == pytest.approx(1.0, abs=1e-12)


def test_recovery_waits_cancel_branch_phase(rules):
    p, t = rules.params, rules.times
    rec = ProtocolRecord(
        amp_in=(1.0, 0.0),
        repetitions=1,
        silent_resets=1,
        prep_sign=1,
        main_sign=-1,
        main_click_offset=55.5,
    )
    period = 2 * np.pi / p.detuning_offset

    phase = rules.click_branch_phase(rec)
    wait = rules.click_recovery_wait(phase)
    assert 0.0 <= wait < period
    target = -1.0 / (phase * cmath.exp(1j * p.detuning_offset * 2 * t.swap)
                     * cmath.exp(0.5j * p.shift_photon * 4 * t.swap))
    assert cmath.exp(1j * p.detuning_offset * wait) == pytest.approx(target, abs=1e-9)

    phase_s = rules.silent_branch_phase(rec)
    wait_s = rules.silent_recovery_wait(phase_s)
    assert 0.0 <= wait_s < period
    assert cmath.exp(1j * p.detuning_offset * wait_s) == pytest.approx(1.0 / phase_s, abs=1e-9)


def test_reset_state_factor_kinds(rules):
    assert abs(rules.reset_state_factor("silent")) == pytest.approx(1.0)
    assert abs(rules.reset_state_factor("double")) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rules.reset_state_factor("soft")


def test_ideal_run_is_exact(ideal):
    for seed in range(6):
        rec = _run_ideal(ideal, seed, a=0.48 + 0.36j, b=0.8)
        assert rec.outcome in SUCCESS_OUTCOMES
        fid = receiver_fidelity(ideal.space, rec.final_state, 0.48 + 0.36j, 0.8)
        assert fid >= 1.0 - 1e-9
        assert rec.repetitions == rec.silent_resets + rec.double_resets
        assert rec.leakage == 0.0
        assert sorted(rec.roles) == [0, 1, 2]
        assert rec.elapsed > 0.0
        assert norm2(rec.final_state) == pytest.approx(1.0)


def test_ideal_run_is_deterministic(ideal):
    a = _run_ideal(ideal, 17)
    b = _run_ideal(ideal, 17)
    assert a.outcome == b.outcome
    assert a.branch == b.branch
    assert [c.time for c in a.clicks] == [c.time for c in b.clicks]
    assert np.array_equal(a.final_state, b.final_state)


def test_input_scale_invariance(ideal):
    small = _run_ideal(ideal, 23, a=0.6, b=0.8)
    big = _run_ideal(ideal, 23, a=6.0, b=8.0)
    assert small.outcome == big.outcome
    assert np.allclose(small.final_state, big.final_state)


def test_branch_labels_match_outcomes(ideal):
    click = _find(ideal, lambda r: r.outcome == SUCCESS_FINAL_CLICK)
    assert click.branch == "click"
    silent = _find(ideal, lambda r: r.outcome == SUCCESS_FINAL_SILENT)
    assert silent.branch == "silent"
    assert silent.pre_recovery_state is not None


def test_zero_budget_exhausts_on_failed_round(ideal):
    rec = _find(
        ideal,
        lambda r: r.outcome == "exhausted_repetitions",
        max_repetitions=0,
    )
    assert rec.repetitions == 0
    assert "budget" in rec.reason


def test_trace_stream_is_ordered(ideal):
    events = []
    run_protocol(ideal, 0.6, 0.8, np.random.default_rng(3), trace=events.append)
    assert events, "trace callback never fired"
    times = [e["t"] for e in events]
    assert times == sorted(times)
    kinds = {e["event"] for e in events}
    assert "pulses" in kinds
    assert "window" in kinds
    assert "outcome" in kinds


def test_reset_snapshot_and_roles(ideal, rules):
    silent = _find(ideal, lambda r: r.silent_resets >= 1 and r.double_resets == 0)
    assert silent.post_reset_kind == "silent"
    assert silent.post_reset_roles == (2, 1, 0)
    target = reset_target_state(ideal.space, rules, silent)
    assert abs(np.vdot(target, silent.post_reset_state)) == pytest.approx(1.0, abs=1e-9)

    double = _find(ideal, lambda r: r.double_resets >= 1 and r.silent_resets == 0)
    assert double.post_reset_kind == "double"
    assert double.post_reset_roles == (1, 2, 0)
    target = reset_target_state(ideal.space, rules, double)
    assert abs(np.vdot(target, double.post_reset_state)) == pytest.approx(1.0, abs=1e-9)


def test_reset_target_needs_snapshot(ideal, rules):
    with pytest.raises(ValueError):
        reset_target_state(ideal.space, rules, ProtocolRecord(amp_in=(1.0, 0.0)))


def test_ideal_backend_reports_no_exposure(ideal):
    top = ideal.space.sites[0].cutoff
    psi = ideal.space.ket(f"101{top};110")
    assert ideal.truncation_exposure(psi, [(0, 0, "swap")]) == 0.0


def _drive_sets(roles):
    """Every drive set the driver uses, with the atom roles ``(d1, d2, anc)``."""
    d1, d2, anc = roles
    return [
        [(0, anc, "swap"), (1, 0, "swap")],  # entangle
        [(0, anc, "flip"), (1, 0, "flip")],  # entangle retry
        [(0, d1, "swap")], [(0, anc, "swap_all")], [(0, d2, "swap_double")],  # encode
        [(0, anc, "swap_double"), (1, 1, "half_swap")],
        [(0, d1, "flip")], [(0, d1, "flip"), (1, 0, "flip")], [(1, 1, "flip")],  # resets
        [(0, anc, "swap")], [(1, 0, "swap")], [(1, 1, "swap")],  # confirm, recovery
    ]


def _sequential_block(backend, psi, drives):
    """The pulse block as one loop over the drives, idle waits from the direct exp."""
    times, engine = backend.times, backend.engine

    def idle(site, t):
        phase, dec = engine.wait_exponents(sites=[site])
        return np.exp((1j * phase - dec) * t)

    span = max(times.duration(kind) for _, _, kind in drives)
    driven = {site for site, _, _ in drives}
    for site in range(len(backend.space.sites)):
        if site not in driven:
            psi = psi * idle(site, span)
    for site, atom, kind in drives:
        dur = times.duration(kind)
        if dur < span:
            psi = psi * idle(site, span - dur)
        if kind == "flip":
            psi = engine.apply_flip_pulse(psi, engine.flip_map(site, atom, dur, FLIP_INTENT_ANGLE))
        else:
            psi = engine.apply_exchange_pulse(psi, engine.exchange_map(site, atom, dur, PULSE_INTENT[kind]))
    return psi, span


@pytest.mark.parametrize("roles", list(itertools.permutations(range(3))))
def test_planned_pulse_block_matches_the_sequential_loop(roles):
    backend = IdealBackend(reference_params())
    space = backend.space
    rng = np.random.default_rng(sum(r * 3**k for k, r in enumerate(roles)))
    vacuum = backend.engine.total_photons == 0
    below_top = np.all([space.photon_numbers(s) < shape.cutoff for s, shape in enumerate(space.sites)], axis=0)
    for drives in _drive_sets(roles):
        flips = any(kind == "flip" for _, _, kind in drives)
        mask = vacuum if flips else below_top  # where no pulse's guard trips
        for _ in range(2):  # the second call runs from the kept plan
            psi = normalized(np.where(mask, rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim), 0.0))
            want, span = _sequential_block(backend, psi, drives)
            got, clicks, got_span = backend.pulse_block(psi, drives, rng)
            assert got.tobytes() == want.tobytes(), drives
            assert got_span == span and clicks == []


def test_planned_pulse_block_still_raises_on_truncation():
    backend = IdealBackend(reference_params())
    space = backend.space
    drives = [(0, 2, "swap"), (1, 0, "swap")]
    top = space.sites[1].cutoff
    backend.pulse_block(space.ket("0010;000"), drives, None)  # the plan is kept now
    with pytest.raises(PulseTruncationError):
        backend.pulse_block(normalized(space.ket("0010;000") + space.ket(f"0000;10{top}")), drives, None)
    with pytest.raises(PulseTruncationError):
        backend.pulse_block(space.ket("0011;000"), [(0, 2, "flip"), (1, 0, "flip")], None)


def test_ideal_detect_window_counts_photons(ideal):
    psi = ideal.space.ket("0001;110")
    out, clicks, elapsed = ideal.detect_window(psi, np.random.default_rng(0))
    assert len(clicks) == 1
    assert elapsed == ideal.times.detect
    assert norm2(out) == pytest.approx(1.0)
    assert norm2(out[ideal.engine.total_photons == 0]) == pytest.approx(1.0)

    quiet, clicks, _ = ideal.detect_window(ideal.space.ket("0000;110"), np.random.default_rng(0))
    assert clicks == []


class _QueuedRng:
    """Stands in for a Generator: ``random()`` returns the queued draws in order."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)


def test_ideal_detect_window_threshold_at_the_no_click_weight(ideal):
    space, kappa = ideal.space, ideal.params.cavity_decay
    psi = normalized(space.ket("0000;110") + space.ket("0001;110"))
    still = float(np.abs(psi[space.index(space.parse("0000;110"))]) ** 2)

    # u equal to the zero-photon weight is the no-click branch, never a
    # search for a click that cannot happen.
    out, clicks, elapsed = ideal.detect_window(psi, _QueuedRng(still))
    assert clicks == []
    assert elapsed == ideal.times.detect
    assert norm2(out[ideal.engine.total_photons == 0]) == pytest.approx(1.0)

    # One ulp above it the click comes late but at a finite, positive time:
    # the one-photon term has decayed to the ulp.
    u = float(np.nextafter(still, 1.0))
    out, clicks, elapsed = ideal.detect_window(psi, _QueuedRng(u, 0.25, 0.5))
    assert len(clicks) == 1
    expected = math.log((1.0 - still) / (u - still)) / (2.0 * kappa)
    assert clicks[0].time == pytest.approx(expected, rel=0.02)
    assert elapsed == ideal.times.detect


def test_ideal_click_search_has_no_root_at_or_below_the_no_click_weight(ideal):
    # The survival never falls below its zero-photon weight, so the
    # unbounded click search reports no root there rather than a time.
    weights = np.array([0.5, 0.5] + [0.0] * (len(ideal._sector_rates) - 2))
    for u in (0.25, 0.5):
        assert survival_solve(weights, ideal._sector_rates, u, math.inf) == -1.0


PRUNE = 1e-20  # a count path with less Born weight than this is not walked


class _BranchWalk(IdealBackend):
    """IdealBackend whose detection windows follow a script of click counts.

    A click comes one cavity lifetime into the window, through the engine's
    wait and detector ports, at the ``sign`` port unless that port is empty;
    the silence that closes a window is the real ``detect_window`` with a
    zero draw. Click times are fixed, not sampled, so two registers see the
    same times to the last bit. A window past the end of the script takes
    its first click count of enough Born weight and leaves the others on
    ``pending``, so one ``run_protocol`` call follows one path of the tree
    to its leaf. Calls are memoised by the counts chosen so far and their
    place in the run, so the paths reuse the states of the prefixes they
    share.
    """

    def __init__(self, sign):
        super().__init__(reference_params())
        self.side = 0 if sign > 0 else 1  # index into the detector ports, plus first
        top = np.any([self.space.photon_numbers(s) > 2 for s in range(len(self.space.sites))], axis=0)
        self.three_photon_rows = np.flatnonzero(top)
        self.largest_three_photon_amplitude = 0.0
        self.memo = {}
        self.pending = []

    def follow(self, script, weight):
        self.script, self.weight, self.choices, self.calls = script, weight, [], 0

    def _memo(self, compute):
        key = (tuple(self.choices), self.calls)
        self.calls += 1
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = compute()
            if self.three_photon_rows.size:
                amp = float(np.abs(out[0][self.three_photon_rows]).max())
                self.largest_three_photon_amplitude = max(self.largest_three_photon_amplitude, amp)
        self.last = out[0]
        return out

    def pulse_block(self, psi, drives, rng):
        return self._memo(lambda: IdealBackend.pulse_block(self, psi, drives, rng))

    def phase_wait(self, psi, duration, rng):
        return self._memo(lambda: IdealBackend.phase_wait(self, psi, duration, rng))

    def _weights(self, psi):
        return np.bincount(self.engine.total_photons, weights=np.abs(psi) ** 2, minlength=self._sectors)

    def detect_window(self, psi, rng, stop_after_first=False):
        window = len(self.choices)
        if window < len(self.script):
            count = self.script[window]
        else:
            weights = self._weights(psi)
            if stop_after_first:
                weights = np.array([weights[0], 1.0 - weights[0]])
            counts = [k for k, w in enumerate(weights) if self.weight * w >= PRUNE]
            prefix = tuple(self.choices)
            for k in counts[1:]:
                self.pending.append((prefix + (k,), self.weight * weights[k]))
            count = counts[0]
            self.weight *= weights[count]
        self.choices.append(count)
        return self._memo(lambda: self._forced(psi, count, stop_after_first))

    def _forced(self, psi, count, stop_after_first):
        clicks, elapsed = [], 0.0
        dt = 1.0 / self.params.cavity_decay
        for _ in range(count):
            tilde = self.engine.apply_wait(psi, dt)
            ports = [op.apply(tilde) for op in self._ports]
            weights = [norm2(port) for port in ports]
            side = self.side if weights[self.side] > 1e-12 * sum(weights) else 1 - self.side
            psi = ports[side] / np.sqrt(weights[side])
            elapsed += dt
            channel = ("detector_plus", "detector_minus")[side]
            clicks.append(Click(elapsed, channel, "detector", 1 - 2 * side))
        if stop_after_first and count:
            return psi, clicks, elapsed
        psi, _, _ = IdealBackend.detect_window(self, psi, _QueuedRng(0.0), stop_after_first)
        return psi, clicks, self.times.detect


class _BranchWalkCutoff3(_BranchWalk):
    PHOTON_CUTOFF = 3


def _walk_branches(backend, a, b, max_repetitions=6):
    """{count script: (outcome, Born weight, last state)} of every leaf."""
    leaves = {}
    backend.pending = [((), 1.0)]
    while backend.pending:
        backend.follow(*backend.pending.pop())
        rec = run_protocol(backend, a, b, None, max_repetitions=max_repetitions)
        last = backend.last if rec.final_state is None else rec.final_state
        leaves[tuple(backend.choices)] = (rec.outcome, backend.weight, last)
    return leaves


@pytest.mark.parametrize("sign", [+1, -1])
def test_every_driver_branch_fits_the_ideal_register(sign):
    # Every click-count path of the driver up to budget 6, pruned only below
    # PRUNE, walked on the 512-state register (cutoff 3) and on the ideal
    # engine's own register (cutoff 2). Click times only move phases, so one
    # time per click covers the support.
    a, b = 0.48 + 0.36j, 0.8
    wide, narrow = _BranchWalkCutoff3(sign), _BranchWalk(sign)
    wide_leaves = _walk_branches(wide, a, b)
    narrow_leaves = _walk_branches(narrow, a, b)  # raises PulseTruncationError on any miss

    # No reached state puts amplitude on a third photon in a site.
    assert wide.three_photon_rows.size and wide.largest_three_photon_amplitude <= 1e-12
    # 127 success paths (2**k failed-round histories before a main click in
    # round k <= 6) with a click or a silent confirm, and 128 exhausted.
    outcomes = [outcome for outcome, _, _ in wide_leaves.values()]
    assert len(wide_leaves) == 2 * 127 + 128
    assert outcomes.count("exhausted_repetitions") == 128
    assert sum(weight for _, weight, _ in wide_leaves.values()) == pytest.approx(1.0, abs=1e-12)

    embed = [wide.space.index(narrow.space.label(i)) for i in range(narrow.space.dim)]
    assert narrow_leaves.keys() == wide_leaves.keys()
    for script, (outcome, weight, psi) in narrow_leaves.items():
        wide_outcome, wide_weight, wide_psi = wide_leaves[script]
        assert outcome == wide_outcome and weight == pytest.approx(wide_weight, rel=1e-12)
        lifted = np.zeros(wide.space.dim, dtype=complex)
        lifted[embed] = psi
        assert np.abs(lifted - wide_psi).max() <= 1e-14, script
        if outcome in SUCCESS_OUTCOMES:
            assert receiver_fidelity(narrow.space, psi, a, b) >= 1.0 - 1e-9


def test_ideal_phase_wait_rotates_zero_levels(ideal):
    p = ideal.params
    psi = ideal.space.ket("1010;110")
    out, clicks, elapsed = ideal.phase_wait(psi, 100.0, np.random.default_rng(0))
    assert clicks == []
    assert elapsed == 100.0
    # One atom in level 0 across both sites for this pattern.
    assert np.vdot(psi, out) == pytest.approx(cmath.exp(1j * p.detuning_offset * 100.0))


def test_numeric_truncation_exposure_masks():
    eff = NumericBackend(desk_params(), tier="effective", cutoff=2)
    space = eff.space
    stranded = space.ket("1002;110")  # driven atom excited at the cutoff
    assert eff.truncation_exposure(stranded, [(0, 0, "swap")]) == pytest.approx(1.0)
    # Same state but the drive sits on a different atom: nothing stranded.
    assert eff.truncation_exposure(stranded, [(0, 1, "swap")]) == 0.0
    # Below the cutoff the coupling is intact.
    benign = space.ket("1001;110")
    assert eff.truncation_exposure(benign, [(0, 0, "swap")]) == 0.0
    mixed = normalized(np.sqrt(0.25) * stranded + np.sqrt(0.75) * benign)
    assert eff.truncation_exposure(mixed, [(0, 0, "swap")]) == pytest.approx(0.25)


def test_numeric_truncation_exposure_full_tier():
    full = NumericBackend(desk_params(), tier="full", cutoff=1)
    space = full.space
    stranded = space.ket("2001;110")  # excited atom with the mode at cutoff
    assert full.truncation_exposure(stranded, []) == pytest.approx(1.0)
    parked = space.ket("0001;110")  # ground manifold at cutoff: benign
    assert full.truncation_exposure(parked, []) == 0.0


def test_leakage_limit_is_strict():
    assert LEAKAGE_LIMIT == 1e-6


@pytest.fixture(scope="module")
def desk_backend():
    return NumericBackend(desk_params(), tier="effective")


def test_numeric_run_is_deterministic(desk_backend):
    runs = [
        run_protocol(desk_backend, 0.6, 0.8, np.random.default_rng(40), max_repetitions=6)
        for _ in range(2)
    ]
    assert runs[0].outcome == runs[1].outcome
    assert [c.time for c in runs[0].clicks] == [c.time for c in runs[1].clicks]
    if runs[0].final_state is not None:
        assert np.array_equal(runs[0].final_state, runs[1].final_state)
    assert runs[0].leakage == runs[1].leakage


def test_numeric_success_matches_input(desk_backend):
    for seed in range(30):
        rec = run_protocol(desk_backend, 0.6, 0.8, np.random.default_rng(seed))
        if rec.outcome in SUCCESS_OUTCOMES:
            fid = receiver_fidelity(desk_backend.space, rec.final_state, 0.6, 0.8)
            assert fid > 0.9
            assert rec.leakage <= LEAKAGE_LIMIT
            return
    raise AssertionError("no successful desk run in 30 seeds")


@pytest.mark.parametrize("backend, seed", [("effective", 307), ("full", 11)])
def test_numeric_clicks_lie_on_the_run_clock(backend, seed):
    # Backends count click times from the start of each call and the driver
    # puts them on the run clock, so every record's clicks fall, in order,
    # inside its run, and the main click inside its window.
    config = EnsembleConfig(backend=backend, profile="desk", trajectories=30, seed=seed)
    result = run_ensemble(config, keep_records=True)
    detect = solve_pulse_times(result.params, detect_lifetimes=config.detect_lifetimes).detect
    for rec in result.records:
        times = [c.time for c in rec.clicks]
        assert times == sorted(times)
        assert all(0.0 <= t <= rec.elapsed for t in times)
        assert 0.0 <= rec.main_click_offset <= detect
    assert any(rec.main_click_offset > 0.0 for rec in result.records)


def _replay_rows(backend, order):
    """Outcome, elapsed time, leakage and final-state bytes of each seeded trajectory, by index."""
    rows = {}
    for i in order:
        rng = np.random.default_rng([307, i])
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        rec = run_protocol(backend, a, b, rng)
        final = None if rec.final_state is None else rec.final_state.tobytes()
        rows[i] = (rec.outcome, rec.elapsed.hex(), rec.leakage.hex(), final)
    return rows


def test_reused_backend_replays_trajectories_in_any_order():
    # The propagators' step memos and the drive-set bookkeeping fill in the
    # order trajectories run; no trajectory may depend on that history.
    reused = NumericBackend(desk_params(), tier="effective")
    forward = _replay_rows(reused, range(60))
    backward = _replay_rows(reused, reversed(range(60)))
    fresh = _replay_rows(NumericBackend(desk_params(), tier="effective"), reversed(range(60)))
    assert backward == forward
    assert fresh == forward
    assert len({row[0] for row in forward.values()}) >= 2
