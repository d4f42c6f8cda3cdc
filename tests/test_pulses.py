"""Pulse-time solver and the closed-form pulse maps."""

import math

import numpy as np
import pytest

from cavtel.params import desk_params, reference_params
from cavtel.pulses import (
    FLIP_INTENT_ANGLE,
    PULSE_INTENT,
    AnalyticEngine,
    PulseTimes,
    PulseTruncationError,
    solve_pulse_times,
)
from cavtel.spaces import Register, SiteShape, norm2, normalized


@pytest.fixture(scope="module")
def ref_times():
    return solve_pulse_times(reference_params())


def test_solver_frozen_reference_durations(ref_times):
    t = ref_times
    assert t.swap == pytest.approx(714.294642745537, rel=1e-12)
    assert t.swap_all == pytest.approx(20714.544639620573, rel=1e-12)
    assert t.swap_double == pytest.approx(8571.535712946445, rel=1e-12)
    assert t.flip == pytest.approx(59.5245535621281, rel=1e-12)
    assert t.detect == pytest.approx(15915494.309189534, rel=1e-12)
    assert t.half_swap == pytest.approx(t.swap / 2)


def test_solver_winding_counts(ref_times):
    assert ref_times.swap_all_windings == (7, 10)
    assert ref_times.swap_double_windings == (3, 4)
    assert ref_times.swap_all_residual == pytest.approx(0.019153204705560256, abs=1e-12)
    assert ref_times.swap_double_residual == pytest.approx(-0.04623992656304665, abs=1e-12)
    # Residuals are the double-sector angle misses; both should be small.
    assert abs(ref_times.swap_all_residual) < 0.05
    assert abs(ref_times.swap_double_residual) < 0.05


def test_winding_congruence_identities(ref_times):
    # sqrt(2)*(target + 2*pi*n) == pi/2 + 2*pi*m + residual, by construction.
    n, m = ref_times.swap_all_windings
    lhs = np.sqrt(2.0) * (np.pi / 2 + 2 * np.pi * n)
    assert lhs - (np.pi / 2 + 2 * np.pi * m) == pytest.approx(ref_times.swap_all_residual)
    n, m = ref_times.swap_double_windings
    lhs = np.sqrt(2.0) * (2 * np.pi * n)
    assert lhs - (np.pi / 2 + 2 * np.pi * m) == pytest.approx(ref_times.swap_double_residual)


def test_solver_scales_inversely_with_rates(ref_times):
    desk = solve_pulse_times(desk_params())
    for kind in ("swap", "swap_all", "swap_double", "flip"):
        assert desk.duration(kind) == pytest.approx(ref_times.duration(kind) / 1000.0)
    assert desk.swap_all_windings == ref_times.swap_all_windings
    assert desk.swap_double_windings == ref_times.swap_double_windings


def test_detect_window_tracks_lifetimes():
    p = reference_params()
    short = solve_pulse_times(p, detect_lifetimes=3.0)
    assert short.detect == pytest.approx(3.0 / p.cavity_decay)


@pytest.mark.parametrize("lifetimes", [0.0, -3.0, math.nan, math.inf])
def test_solver_rejects_a_detection_window_that_is_not_positive(lifetimes):
    with pytest.raises(ValueError, match="detect_lifetimes"):
        solve_pulse_times(desk_params(), detect_lifetimes=lifetimes)


def test_duration_lookup(ref_times):
    assert ref_times.duration("half_swap") == ref_times.half_swap
    for not_a_pulse in ("warp", "detect", "swap_all_windings"):
        with pytest.raises(KeyError):
            ref_times.duration(not_a_pulse)


def test_intent_table_angles():
    assert PULSE_INTENT["swap"] == {1: np.pi / 2}
    assert PULSE_INTENT["half_swap"] == {1: np.pi / 4}
    assert PULSE_INTENT["swap_all"] == {1: np.pi / 2, 2: np.pi / 2}
    assert PULSE_INTENT["swap_double"] == {1: 0.0, 2: np.pi / 2}
    assert FLIP_INTENT_ANGLE == np.pi / 2


@pytest.fixture
def engine():
    space = Register([SiteShape(2, 2, 3)])
    return AnalyticEngine(space, reference_params())


def test_engine_rejects_three_level_sites():
    with pytest.raises(ValueError):
        AnalyticEngine(Register([SiteShape(1, 3, 3)]), reference_params())


def test_exchange_pulse_swaps_excitation(engine):
    space = engine.space
    times = solve_pulse_times(engine.params)
    psi = space.ket("100")
    out = engine.apply_exchange_pulse(psi, engine.exchange_map(0, 0, times.swap, PULSE_INTENT["swap"]))
    assert norm2(out) == pytest.approx(1.0, abs=1e-12)
    target = space.index(space.parse("001"))
    assert abs(out[target]) == pytest.approx(1.0, abs=1e-12)
    # Same pulse again brings the excitation back (up to phase).
    back = engine.apply_exchange_pulse(out, engine.exchange_map(0, 0, times.swap, PULSE_INTENT["swap"]))
    assert abs(back[space.index(space.parse("100"))]) == pytest.approx(1.0, abs=1e-12)


def test_exchange_pulse_is_unitary_on_safe_states(engine):
    rng = np.random.default_rng(3)
    space = engine.space
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    # Zero out every component whose partner would cross the cutoff.
    top = (space.atom_levels(0, 0) == 1) & (space.photon_numbers(0) == 3)
    psi[top] = 0.0
    psi = normalized(psi)
    out = engine.apply_exchange_pulse(psi, engine.exchange_map(0, 0, 123.4))
    assert norm2(out) == pytest.approx(1.0, abs=1e-10)


def test_exchange_pulse_flags_cutoff_amplitude(engine):
    psi = engine.space.ket("103")
    with pytest.raises(PulseTruncationError):
        engine.apply_exchange_pulse(psi, engine.exchange_map(0, 0, 1.0))


def test_exchange_intent_pins_sector_angles(engine):
    space = engine.space
    times = solve_pulse_times(engine.params)
    one = space.ket("100")
    two = space.ket("101")
    intent = PULSE_INTENT["swap_double"]
    frozen = engine.apply_exchange_pulse(one, engine.exchange_map(0, 0, times.swap_double, intent))
    assert abs(frozen[space.index(space.parse("100"))]) == pytest.approx(1.0, abs=1e-12)
    moved = engine.apply_exchange_pulse(two, engine.exchange_map(0, 0, times.swap_double, intent))
    assert abs(moved[space.index(space.parse("002"))]) == pytest.approx(1.0, abs=1e-12)


def test_exchange_literal_angle_uses_sqrt_sector(engine):
    # Without intent a two-photon sector rotates sqrt(2) times faster.
    space = engine.space
    p = engine.params
    t = 0.3 * np.pi / p.rabi_exchange
    out = engine.apply_exchange_pulse(space.ket("101"), engine.exchange_map(0, 0, t))
    stay = abs(out[space.index(space.parse("101"))])
    assert stay == pytest.approx(abs(np.cos(np.sqrt(2.0) * 0.3 * np.pi)), abs=1e-12)


def test_flip_pulse_swaps_levels_and_needs_vacuum(engine):
    space = engine.space
    out = engine.apply_flip_pulse(space.ket("100"), engine.flip_map(0, 0, 0.0, np.pi / 2))
    assert abs(out[space.index(space.parse("000"))]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PulseTruncationError):
        engine.apply_flip_pulse(space.ket("101"), engine.flip_map(0, 0, 1.0))


def test_flip_pulse_default_angle_tracks_duration(engine):
    space = engine.space
    p = engine.params
    t = 0.2 * np.pi / p.rabi_raman
    out = engine.apply_flip_pulse(space.ket("100"), engine.flip_map(0, 0, t))
    assert abs(out[space.index(space.parse("100"))]) == pytest.approx(
        abs(np.cos(0.2 * np.pi)), abs=1e-12
    )
    assert norm2(out) == pytest.approx(1.0, abs=1e-12)


def test_wait_exponents_hand_check():
    space = Register([SiteShape(2, 2, 2)])
    p = reference_params()
    eng = AnalyticEngine(space, p)
    phase, dec = eng.wait_exponents()
    idx = space.index(space.parse("101"))
    # One atom in level 0, one photon.
    assert phase[idx] == pytest.approx(1 * (p.detuning_offset + p.shift_photon))
    assert dec[idx] == pytest.approx(p.cavity_decay)
    idx0 = space.index(space.parse("000"))
    assert phase[idx0] == pytest.approx(2 * p.detuning_offset)
    assert dec[idx0] == 0.0
    phase_ns, dec_ns = eng.wait_exponents(photon_shift=False, decay=False)
    assert phase_ns[idx] == pytest.approx(p.detuning_offset)
    assert not np.any(dec_ns)


def test_apply_wait_matches_exponent_formula():
    space = Register([SiteShape(1, 2, 2)])
    p = reference_params()
    eng = AnalyticEngine(space, p)
    rng = np.random.default_rng(11)
    psi = normalized(rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim))
    t = 7.5
    phase, dec = eng.wait_exponents()
    assert np.allclose(eng.apply_wait(psi, t), psi * np.exp((1j * phase - dec) * t))


@pytest.mark.parametrize("sites", [None, [0], [1]])
@pytest.mark.parametrize("photon_shift", [True, False])
@pytest.mark.parametrize("decay", [True, False])
def test_wait_factor_is_the_direct_exp_byte_for_byte(ref_times, sites, photon_shift, decay):
    # The factor exponentiates only the distinct exponents; each element must
    # still be exp of the same product as the direct form, to the last bit.
    eng = AnalyticEngine(Register([SiteShape(3, 2, 3), SiteShape(2, 2, 3)]), reference_params())
    phase, dec = eng.wait_exponents(sites, photon_shift, decay)
    rate = 1j * phase - dec
    for t in (0.0, 1e-12, ref_times.swap_all, ref_times.detect, 1e3 * ref_times.detect):
        got = eng.wait_factor(t, sites=sites, photon_shift=photon_shift, decay=decay)
        assert got.tobytes() == np.exp(rate * t).tobytes(), t
    distinct, _ = eng._wait_rates[(None if sites is None else tuple(sites), photon_shift, decay)]
    assert len(distinct) < eng.space.dim

