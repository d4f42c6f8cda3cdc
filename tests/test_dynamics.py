"""Hamiltonian builders, propagators, and the jump-sampling walk."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from cavtel import dynamics
from cavtel.dynamics import (
    JUMP_TIME_RTOL,
    STEP_MEMO_SIZE,
    DiagonalPropagator,
    EigPropagator,
    ExpmPropagator,
    PropagatorCache,
    Segment,
    _bisect_jump_time,
    decay_balance_defect,
    detector_channels,
    effective_hamiltonian,
    emission_channels,
    evolve_with_jumps,
    full_hamiltonian,
    make_propagator,
    normalize_lasers,
    survival_solve,
)
from cavtel.params import desk_params, reference_params
from cavtel.protocol import NumericBackend, protocol_space
from cavtel.pulses import solve_pulse_times
from cavtel.spaces import Register, SiteShape, SparseOp, norm2, normalized


@pytest.fixture
def params():
    return reference_params()


def test_normalize_lasers_canonical_form():
    rows = [(1, 0, True, False), (0, 2, False, True), (0, 1, False, False)]
    assert normalize_lasers(rows) == ((0, 2, False, True), (1, 0, True, False))
    assert normalize_lasers(None) == ()
    with pytest.raises(ValueError):
        normalize_lasers([(0, 0, True, False), (0, 1, False, True)])


def test_effective_hamiltonian_matrix_elements(params):
    space = Register([SiteShape(1, 2, 2)])
    p = params
    h = effective_hamiltonian(space, p, [(0, 0, True, False)]).to_dense()
    i00 = space.index(space.parse("00"))
    i01 = space.index(space.parse("01"))
    i10 = space.index(space.parse("10"))
    # Level-0 atom picks up the dressing shift; photons add decay and shift.
    assert h[i00, i00] == pytest.approx(-p.detuning_offset)
    assert h[i01, i01] == pytest.approx(-(p.detuning_offset + p.shift_photon) - 1j * p.cavity_decay)
    assert h[i10, i10] == pytest.approx(-p.shift_strong)
    # Photon-atom exchange, sqrt(y) enhanced.
    assert h[i10, i01] == pytest.approx(-p.rabi_exchange)
    assert h[i01, i10] == pytest.approx(-p.rabi_exchange)
    i11 = space.index(space.parse("11"))
    i02 = space.index(space.parse("02"))
    assert h[i11, i02] == pytest.approx(-np.sqrt(2.0) * p.rabi_exchange)


def test_effective_hamiltonian_weak_and_raman_terms(params):
    space = Register([SiteShape(1, 2, 2)])
    p = params
    h = effective_hamiltonian(space, p, [(0, 0, True, True)]).to_dense()
    i00 = space.index(space.parse("00"))
    i01 = space.index(space.parse("01"))
    i10 = space.index(space.parse("10"))
    assert h[i00, i00] == pytest.approx(-p.detuning_offset - p.shift_weak)
    assert h[i00, i01] == pytest.approx(-p.cross_weak_cavity)
    assert h[i10, i00] == pytest.approx(-p.rabi_raman)


def test_full_hamiltonian_elements_and_level_guard(params):
    with pytest.raises(ValueError):
        full_hamiltonian(Register([SiteShape(1, 2, 2)]), params)
    space = Register([SiteShape(1, 3, 1)])
    p = params
    h = full_hamiltonian(space, p, [(0, 0, True, True)]).to_dense()
    i2 = space.index(space.parse("20"))
    i0 = space.index(space.parse("00"))
    i1 = space.index(space.parse("10"))
    assert h[i2, i2] == pytest.approx(p.laser_detuning - 1j * p.atom_decay)
    assert h[i2, space.index(space.parse("01"))] == pytest.approx(p.cavity_coupling)
    assert h[i2, i1] == pytest.approx(p.rabi_strong)
    assert h[i2, i0] == pytest.approx(p.rabi_weak)


def test_hamiltonians_build_without_dense_matrices(params, monkeypatch):
    def no_dense(op):
        raise AssertionError("dense matrix built during Hamiltonian construction")

    monkeypatch.setattr(SparseOp, "to_dense", no_dense)
    lasers = [(0, 0, True, True), (1, 1, True, True)]
    assert effective_hamiltonian(protocol_space(cutoff=4), params, lasers).dim == 800
    assert full_hamiltonian(protocol_space(levels=3, cutoff=3), params, lasers).dim == 3888


def test_decay_balance_effective(params):
    space = Register([SiteShape(1, 2, 2), SiteShape(1, 2, 2)])
    h = effective_hamiltonian(space, params, [(0, 0, True, False)])
    channels = detector_channels(space, params)
    defect = decay_balance_defect(h, channels)
    assert defect <= 1e-12 * params.cavity_decay
    # The metric is sensitive: breaking one port shows up at the decay scale.
    broken = channels[:1] + [type(channels[1])(
        channels[1].name, channels[1].kind, channels[1].sign, channels[1].op.scaled(0.5)
    )]
    assert decay_balance_defect(h, broken) > 0.1 * params.cavity_decay


def test_decay_balance_full(params):
    space = Register([SiteShape(1, 3, 1)])
    h = full_hamiltonian(space, params, [(0, 0, True, True)])
    channels = detector_channels(space, params) + emission_channels(space, params)
    assert decay_balance_defect(h, channels) <= 1e-12 * max(
        params.cavity_decay, params.atom_decay
    )


def test_emission_channel_naming(params):
    space = Register([SiteShape(2, 3, 1)])
    names = [ch.name for ch in emission_channels(space, params)]
    assert names == [
        "emission_s0a0_to0",
        "emission_s0a0_to1",
        "emission_s0a1_to0",
        "emission_s0a1_to1",
    ]
    assert all(ch.kind == "emission" and ch.sign == 0 for ch in emission_channels(space, params))


def test_detector_channels_signs(params):
    space = Register([SiteShape(1, 2, 1), SiteShape(1, 2, 1)])
    plus, minus = detector_channels(space, params)
    assert (plus.sign, minus.sign) == (1, -1)
    psi = space.ket("01;00") - space.ket("00;01")
    assert norm2(plus.op.apply(psi)) == pytest.approx(0.0, abs=1e-24)
    assert norm2(minus.op.apply(psi)) == pytest.approx(4 * params.cavity_decay)


def test_detector_channels_port_combinations(params):
    two = Register([SiteShape(1, 2, 2), SiteShape(1, 2, 2)])
    plus, minus = (ch.op for ch in detector_channels(two, params))
    psi = two.ket("01;00") + two.ket("00;01")
    scale = np.sqrt(params.cavity_decay)
    vac = two.index(two.parse("00;00"))
    assert plus.apply(psi)[vac] == pytest.approx(2 * scale)
    assert minus.apply(psi)[vac] == pytest.approx(0.0)

    # A single site feeds the same field to both ports.
    one = Register([SiteShape(1, 2, 2)])
    plus1, minus1 = (ch.op for ch in detector_channels(one, params))
    assert np.allclose(plus1.to_dense(), minus1.to_dense())


def test_make_propagator_picks_structure():
    diag = SparseOp(2, [0, 1], [0, 1], [1.0, 2.0])
    assert type(make_propagator(diag)) is DiagonalPropagator
    herm = SparseOp(2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 0.3, 0.3, -1.0])
    assert type(make_propagator(herm)) is EigPropagator
    jordan = SparseOp(2, [0], [1], [1.0])
    with pytest.warns(RuntimeWarning, match="2-state blocks"):
        assert type(make_propagator(jordan)) is ExpmPropagator


def test_make_propagator_keeps_blocks_apart():
    # Two flips on the desk register: 800 states in 8 blocks of 100.
    h = effective_hamiltonian(protocol_space(cutoff=4), desk_params(), [(0, 0, True, True), (1, 1, True, True)])
    prop = make_propagator(h)
    assert type(prop) is EigPropagator
    [(lam, vmat, wmat)] = prop.factors
    assert lam.shape == (800,)
    links = scipy.sparse.csr_array((np.ones(h.vals.size), (h.rows, h.cols)), shape=(h.dim, h.dim))
    n_blocks, labels = scipy.sparse.csgraph.connected_components(links, directed=False)
    assert n_blocks == 8 and np.all(np.bincount(labels) == 100)
    outside = labels[:, None] != labels[None, :]
    assert not np.any(vmat[outside]) and not np.any(wmat[outside])
    psi = normalized(np.random.default_rng(3).normal(size=h.dim) + 0j)
    t = 0.05
    assert np.max(np.abs(prop.evolve(psi, t) - _expm_multiply(h, psi, t))) <= 1e-10


def test_propagators_match_expm(params):
    space = Register([SiteShape(1, 2, 2)])
    h = effective_hamiltonian(space, params, [(0, 0, True, False)])
    prop = make_propagator(h)
    rng = np.random.default_rng(5)
    psi = normalized(rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim))
    t = 100.0
    want = scipy.linalg.expm(-1j * h.to_dense() * t) @ psi
    assert np.allclose(prop.evolve(psi, t), want, atol=1e-9)


def test_expm_propagator_jordan_block():
    prop = ExpmPropagator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    out = prop.evolve(np.array([0.0, 1.0], dtype=complex), 2.0)
    assert out == pytest.approx(np.array([-2j, 1.0]))


def test_diagonal_propagator_rejects_growth():
    with pytest.raises(ValueError):
        DiagonalPropagator(np.array([0.0, 1j]))


def test_diagonal_survival_time_closed_form():
    kappa = 0.05
    prop = DiagonalPropagator(np.array([0.0, -1j * kappa]))
    psi = np.array([0.0, 1.0], dtype=complex)
    u = 0.37
    t = prop.survival_time(psi, u, 1e4)
    assert t == pytest.approx(np.log(1.0 / u) / (2 * kappa), rel=1e-8)
    assert prop.survival_time(psi, 1e-9, 1.0) == -1.0


def test_survival_solve_edge_cases():
    floored_w, floored_r = [0.3, 0.7], [0.0, 2.0]
    # Survival already at or under u: the jump is now.
    assert survival_solve(floored_w, floored_r, 1.0, 5.0) == 0.0
    assert survival_solve([0.4, 0.6], [1.0, 2.0], 1.0, 5.0) == 0.0
    # u <= 0 is never reached, even with nothing at rate 0.
    assert survival_solve([1.0], [0.5], 0.0, 5.0) == -1.0
    assert survival_solve([1.0], [0.5], -0.1, math.inf) == -1.0
    # An unbounded window still ends at the rate-0 floor, u on it included.
    for u in (0.3, 0.25, 1e-300):
        assert survival_solve(floored_w, floored_r, u, math.inf) == -1.0
    # All weight at rate 0, above u: the survival never moves.
    assert survival_solve([0.5, 0.5], [0.0, 0.0], 0.5, math.inf) == -1.0
    # A root past the largest float is no jump, not an infinite time.
    assert survival_solve([1.0], [1e-310], 0.5, math.inf) == -1.0
    # u one ulp under S(0) = 1: the root is within rounding of 0, and a
    # rounding-sized step back must not make it a negative time.
    t = survival_solve([0.3, 0.7], [1.0, 2.0], math.nextafter(1.0, 0.0), 5.0)
    assert 0.0 <= t < 1e-15


@pytest.mark.parametrize("t_max", [1e4, math.inf])
@pytest.mark.parametrize("w,r,u", [(1.0, 0.8, 0.3), (0.6, 2e-3, 1e-6), (1.0, 50.0, 0.999)])
def test_survival_solve_single_rate_is_the_log_formula(w, r, u, t_max):
    want = math.log(w / u) / r
    assert survival_solve([w], [r], u, t_max) == pytest.approx(want, rel=1e-12)


def test_propagator_cache_reuses_and_validates(params):
    space = Register([SiteShape(1, 2, 1)])
    with pytest.raises(ValueError):
        PropagatorCache(space, params, tier="imaginary")
    cache = PropagatorCache(space, params, tier="effective")
    a = cache.get([(0, 0, True, False)])
    b = cache.get([(0, 0, 1, 0)])  # same config, different literals
    assert a is b
    assert cache.get(()) is not a


@pytest.mark.parametrize(
    "lasers",
    [
        [(-1, 0, True, False)],
        [(-1, 0, True, False), (1, 1, True, False)],  # two atoms lit on the last site
        [(2, 0, True, False)],
        [(0, 3, False, True)],
    ],
)
def test_propagator_cache_rejects_rows_outside_the_register(params, lasers):
    cache = PropagatorCache(protocol_space(), params, tier="effective")
    with pytest.raises(ValueError, match="outside the register"):
        cache.get(lasers)


def _expm_multiply(h, psi, t):
    m = scipy.sparse.csr_array((h.vals, (h.rows, h.cols)), shape=(h.dim, h.dim))
    return scipy.sparse.linalg.expm_multiply(-1j * t * m, psi)


def _embedded_sum(site_hs):
    """sum_s I (x) H_s (x) I over the sites, duplicates summed."""
    dims = [h.dim for h in site_hs]
    total = 0
    for s, h in enumerate(site_hs):
        local = scipy.sparse.csr_array((h.vals, (h.rows, h.cols)), shape=(h.dim, h.dim))
        pre = scipy.sparse.identity(int(np.prod(dims[:s])), format="csr")
        post = scipy.sparse.identity(int(np.prod(dims[s + 1:])), format="csr")
        total = total + scipy.sparse.kron(scipy.sparse.kron(pre, local), post)
    return scipy.sparse.csr_array(total)


def _limit_dense(monkeypatch, limit):
    """Fail on any dense matrix of more than ``limit`` states."""
    real_dense = SparseOp.to_dense

    def bounded(op):
        assert op.dim <= limit, f"dense {op.dim}-state matrix"
        return real_dense(op)

    monkeypatch.setattr(SparseOp, "to_dense", bounded)


DESK_CONFIGS = {
    "lasers_off": (),
    "one_laser": [(0, 1, True, False)],
    "one_flip": [(1, 0, True, True)],
    "two_flips": [(0, 0, True, True), (1, 1, True, True)],
}


@pytest.mark.parametrize("tier", ["effective", "full"])
@pytest.mark.parametrize("config", list(DESK_CONFIGS))
def test_site_hamiltonians_sum_to_the_register_hamiltonian(tier, config):
    levels, cutoff = (2, 4) if tier == "effective" else (3, 3)
    cache = PropagatorCache(protocol_space(levels=levels, cutoff=cutoff), desk_params(), tier)
    lasers = DESK_CONFIGS[config]
    site_hs = cache.site_hamiltonians(lasers)
    assert [h.dim for h in site_hs] == ([40, 20] if tier == "effective" else [108, 36])
    build = effective_hamiltonian if tier == "effective" else full_hamiltonian
    h = build(cache.space, cache.params, lasers)
    whole = scipy.sparse.csr_array((h.vals, (h.rows, h.cols)), shape=(h.dim, h.dim))
    gap = (whole - _embedded_sum(site_hs)).data
    assert np.max(np.abs(gap), initial=0.0) <= 1e-12 * np.max(np.abs(whole.data))
    prop = cache.get(lasers)
    diagonal = tier == "effective" and config == "lasers_off"
    assert type(prop) is (DiagonalPropagator if diagonal else EigPropagator)
    if diagonal:  # the site diagonals, summed over the register grid, are the register's to the bit
        assert prop.diag.tobytes() == make_propagator(h).diag.tobytes()


def test_effective_builds_stay_site_sized(monkeypatch):
    # Every configuration, lasers-off included, is built per site: no build
    # densifies more than one site's 40 states, never all 800.
    cache = PropagatorCache(protocol_space(cutoff=4), desk_params(), "effective")
    _limit_dense(monkeypatch, 40)
    assert type(cache.get(())) is DiagonalPropagator
    prop = cache.get(DESK_CONFIGS["two_flips"])
    assert type(prop) is EigPropagator
    assert prop.shapes == [(1, 40, 20), (40, 20, 1)]


def test_full_tier_two_flips_builds_per_site(monkeypatch):
    # 3,888 states; the whole-register blocks here hold 1,152 states each.
    cache = PropagatorCache(protocol_space(levels=3, cutoff=3), desk_params(), "full")
    lasers = DESK_CONFIGS["two_flips"]
    _limit_dense(monkeypatch, 108)
    prop = cache.get(lasers)
    assert type(prop) is EigPropagator
    assert prop.shapes == [(1, 108, 36), (108, 36, 1)]
    h = full_hamiltonian(cache.space, cache.params, lasers)
    psi = normalized(np.random.default_rng(8).normal(size=h.dim) + 0j)
    t = 25.0 / np.max(np.abs(h.vals))  # expm_multiply's cost grows with |H| t
    assert np.max(np.abs(prop.evolve(psi, t) - _expm_multiply(h, psi, t))) <= 1e-10


def test_site_check_failure_warns_and_falls_back(monkeypatch, params):
    space = Register([SiteShape(1, 2, 1), SiteShape(2, 2, 1)])
    cache = PropagatorCache(space, params, tier="effective")
    monkeypatch.setattr(dynamics, "EIG_CHECK_RTOL", -1.0)  # no residual passes
    built = []
    real_build = dynamics.make_propagator
    monkeypatch.setattr(dynamics, "make_propagator", lambda h: built.append(h.dim) or real_build(h))
    lasers = [(1, 0, True, True)]  # site 0 stays diagonal and needs no check
    with pytest.warns(RuntimeWarning) as record:
        prop = cache.get(lasers)
    [message] = [str(w.message) for w in record]
    assert re.match(r"site 1: eigendecomposition of \d+-state blocks failed its check \(residual", message)
    assert built == [4, 8]  # one build per site, none of the 32-state register
    assert type(prop) is EigPropagator
    diagonal, fallback = prop.factors
    assert diagonal[1] is None
    assert isinstance(fallback, ExpmPropagator) and fallback.h.shape == (8, 8)
    h = effective_hamiltonian(cache.space, cache.params, lasers)
    psi = normalized(np.random.default_rng(2).normal(size=space.dim) + 1j)
    t = 3.0 / np.max(np.abs(h.vals))
    assert np.max(np.abs(prop.evolve(psi, t) - _expm_multiply(h, psi, t))) <= 1e-10


def test_full_tier_fallback_stays_per_site(monkeypatch):
    # Both sites fail the check: each falls back alone, and no dense matrix
    # larger than one site's 108 states is ever built.
    cache = PropagatorCache(protocol_space(levels=3, cutoff=3), desk_params(), "full")
    monkeypatch.setattr(dynamics, "EIG_CHECK_RTOL", -1.0)
    _limit_dense(monkeypatch, 108)
    lasers = DESK_CONFIGS["two_flips"]
    with pytest.warns(RuntimeWarning) as record:
        prop = cache.get(lasers)
    assert [str(w.message)[:7] for w in record] == ["site 0:", "site 1:"]
    assert [factor.h.shape for factor in prop.factors] == [(108, 108), (36, 36)]
    h = full_hamiltonian(cache.space, cache.params, lasers)
    psi = normalized(np.random.default_rng(8).normal(size=h.dim) + 0j)
    t = 25.0 / np.max(np.abs(h.vals))
    assert np.max(np.abs(prop.evolve(psi, t) - _expm_multiply(h, psi, t))) <= 1e-10


def _photon_setup(params):
    space = Register([SiteShape(1, 2, 2)])
    cache = PropagatorCache(space, params, tier="effective")
    channels = detector_channels(space, params)
    return space, cache.get(()), channels


def test_jump_time_matches_exponential_law(params):
    space, prop, channels = _photon_setup(params)
    psi = space.ket("01")
    rng = np.random.default_rng(123)
    u = np.random.default_rng(123).random()  # the walk's first draw
    horizon = 10.0 / params.cavity_decay
    run = evolve_with_jumps(psi, [Segment(horizon, prop)], channels, rng)
    assert len(run.clicks) == 1
    t_star = np.log(1.0 / u) / (2 * params.cavity_decay)
    assert run.clicks[0].time == pytest.approx(t_star, rel=1e-6)
    assert run.clicks[0].kind == "detector"
    # The photon is gone afterwards; the state sits in the vacuum.
    assert abs(run.psi[space.index(space.parse("00"))]) == pytest.approx(1.0, abs=1e-9)


def test_bisect_jump_time_stops_at_its_tolerance():
    # One decay rate: the no-jump norm is exp(-2*gamma*t), so the root is closed form.
    gamma, u, t_hi = 0.3, 0.25, 40.0
    prop = EigPropagator([1], [(np.array([-1j * gamma]), None, None)])
    t, state = _bisect_jump_time(prop, np.array([1.0 + 0j]), u, t_hi)
    assert abs(t - np.log(1.0 / u) / (2 * gamma)) <= JUMP_TIME_RTOL * t_hi
    assert state[0] == pytest.approx(np.exp(-gamma * t), rel=1e-12)


def test_jump_walk_is_deterministic_per_seed(params):
    space, prop, channels = _photon_setup(params)
    psi = normalized(space.ket("01") + space.ket("02"))
    horizon = 20.0 / params.cavity_decay
    runs = [
        evolve_with_jumps(psi, [Segment(horizon, prop)], channels, np.random.default_rng(77))
        for _ in range(2)
    ]
    assert len(runs[0].clicks) == len(runs[1].clicks) >= 1
    for c0, c1 in zip(runs[0].clicks, runs[1].clicks):
        assert c0.time == c1.time
        assert c0.channel == c1.channel
    assert np.array_equal(runs[0].psi, runs[1].psi)


def test_no_jump_when_threshold_below_survival(params):
    space, prop, channels = _photon_setup(params)
    psi = space.ket("01")

    class FixedRng:
        def random(self):
            return 1e-12

    run = evolve_with_jumps(psi, [Segment(1.0, prop)], channels, FixedRng())
    assert run.clicks == []
    assert run.elapsed == 1.0
    assert norm2(run.psi) == pytest.approx(np.exp(-2 * params.cavity_decay), rel=1e-9)


def test_stop_after_first_detector(params):
    space, prop, channels = _photon_setup(params)
    psi = space.ket("02")
    rng = np.random.default_rng(9)
    horizon = 50.0 / params.cavity_decay
    run = evolve_with_jumps(psi, [Segment(horizon, prop)], channels, rng, stop_after_first_detector=True)
    # Two photons, but the walk ends at the first click, long before the horizon.
    assert len(run.clicks) == 1
    assert run.elapsed == run.clicks[0].time < horizon


def test_emission_click_stops_walk(params):
    space = Register([SiteShape(1, 3, 1)])
    cache = PropagatorCache(space, params, tier="full")
    channels = emission_channels(space, params)
    psi = space.ket("20")
    # Bare excited atom with only emission channels: the first click aborts.
    horizon = 200.0 / params.atom_decay
    run = evolve_with_jumps(psi, [Segment(horizon, cache.get(()))], channels, np.random.default_rng(1))
    assert [click.kind for click in run.clicks] == ["emission"]
    assert run.elapsed == run.clicks[0].time < horizon


def test_click_times_offset_by_t0(params):
    space, prop, channels = _photon_setup(params)
    psi = space.ket("01")
    base = evolve_with_jumps(
        psi, [Segment(10.0 / params.cavity_decay, prop)], channels, np.random.default_rng(4)
    )
    shifted = evolve_with_jumps(
        psi,
        [Segment(10.0 / params.cavity_decay, prop)],
        channels,
        np.random.default_rng(4),
        t0=500.0,
    )
    assert shifted.clicks[0].time == pytest.approx(base.clicks[0].time + 500.0)


def test_segment_boundaries_do_not_consume_draws(params):
    # Splitting an interval into two segments must not change the outcome.
    space, prop, channels = _photon_setup(params)
    psi = normalized(space.ket("01") + space.ket("00"))
    horizon = 10.0 / params.cavity_decay
    one = evolve_with_jumps(psi, [Segment(horizon, prop)], channels, np.random.default_rng(31))
    two = evolve_with_jumps(
        psi,
        [Segment(horizon / 2, prop), Segment(horizon / 2, prop)],
        channels,
        np.random.default_rng(31),
    )
    assert len(one.clicks) == len(two.clicks)
    for c0, c1 in zip(one.clicks, two.clicks):
        assert c0.time == pytest.approx(c1.time, rel=1e-7)
    assert np.allclose(one.psi, two.psi, atol=1e-9)


def _memo_propagators(params):
    """(propagator, state) for each memoising kind: a dense axis beside a
    diagonal one, an expm axis beside a dense one, diagonal, expm, and one
    dense axis."""
    space = Register([SiteShape(2, 2, 2), SiteShape(1, 2, 2)])  # 12 x 6 states
    cache = PropagatorCache(space, params, tier="effective")
    mixed = cache.get([(0, 1, True, True)])
    assert type(mixed) is EigPropagator and mixed.factors[1][1] is None
    jordan = np.array([[0.1 - 1j, 1.0], [0.0, 0.1 - 1j]])  # defective; its norm still decays
    one_site = Register([SiteShape(1, 2, 2)])
    props = [
        (mixed, space.dim),
        (EigPropagator([2, 12], [ExpmPropagator(jordan), mixed.factors[0]]), 24),
        (cache.get(()), space.dim),
        (ExpmPropagator(jordan), 2),
        (make_propagator(effective_hamiltonian(one_site, params, [(0, 0, True, False)])), one_site.dim),
    ]
    rng = np.random.default_rng(8)
    return [(prop, normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))) for prop, dim in props]


def test_evolve_does_not_depend_on_the_step_memo(params):
    for prop, psi in _memo_propagators(params):
        fresh = prop.evolve(psi, 3.7).tobytes()
        for k in range(3 * STEP_MEMO_SIZE):  # fills the memo past its bound, so it is cleared
            prop.evolve(psi, 0.01 * (k + 1))
            assert len(prop._steps) <= STEP_MEMO_SIZE
        assert prop.evolve(psi, 3.7).tobytes() == fresh
        assert 3.7 in prop._steps
        assert prop.evolve(psi, 3.7).tobytes() == fresh  # warm
        prop._steps.clear()
        assert prop.evolve(psi, 3.7).tobytes() == fresh


def test_jump_search_probes_memoise_nothing(params):
    for prop, psi in _memo_propagators(params):
        if type(prop) is DiagonalPropagator:
            continue  # the walk takes its closed-form survival_time instead
        threshold = 0.5 * (1.0 + norm2(prop.evolve(psi, 5.0)))
        curve = prop.state_curve(psi)
        for t in (0.5, 1.0, 2.0):
            assert np.allclose(curve(t), prop.evolve(psi, t), rtol=0.0, atol=1e-12)
        prop._steps.clear()
        t_jump, at_jump = _bisect_jump_time(prop, psi, threshold, 5.0)
        assert 0.0 < t_jump < 5.0 and not prop._steps
        assert norm2(at_jump) == pytest.approx(threshold, rel=1e-6)
        assert np.allclose(at_jump, prop.evolve(psi, t_jump), rtol=0.0, atol=1e-12)


def test_jump_search_closes_where_decay_is_not_diagonal():
    # Dissipative blocks whose anti-Hermitian part is a full PSD matrix: the
    # diagonal decay gives only a rough slope, and unguarded Newton steps
    # creep. Without the search's half-step rule, two of these 60 draws stop
    # at the probe cap, far outside the tolerance.
    rng = np.random.default_rng(1)
    for _ in range(60):
        size = rng.integers(2, 12)
        x = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        y = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        scale = 10 ** rng.uniform(-2, 2)
        block = 0.5 * (x + x.conj().T) - 0.5j * scale * (y @ y.conj().T) / size
        rows, cols = np.nonzero(np.ones((size, size)))
        prop = make_propagator(SparseOp(size, rows, cols, block.ravel()))
        psi = normalized(rng.normal(size=size) + 1j * rng.normal(size=size))
        t_hi = rng.uniform(0.01, 5)
        n_hi = norm2(prop.evolve(psi, t_hi))
        u = n_hi + rng.uniform(0.001, 0.999) * (1 - n_hi)
        if not n_hi < u < 1:
            continue
        t, _ = _bisect_jump_time(prop, psi, u, t_hi)
        curve = prop.state_curve(psi)
        assert norm2(curve(t - JUMP_TIME_RTOL * t_hi)) > u >= norm2(curve(min(t + JUMP_TIME_RTOL * t_hi, t_hi)))


@pytest.mark.parametrize("dense", [True, False])
def test_walk_norm_reuse_is_bit_identical(params, dense):
    # Lasers on: a dense propagator and its Newton search; off: the diagonal survival path.
    space = Register([SiteShape(1, 2, 2)])
    cache = PropagatorCache(space, params, tier="effective")
    prop = cache.get([(0, 0, True, True)] if dense else ())
    assert type(prop) is (EigPropagator if dense else DiagonalPropagator)
    channels = detector_channels(space, params)
    psi = normalized(space.ket("01") + space.ket("12"))
    horizon = 0.3 / params.cavity_decay
    jumped = quiet = 0
    for seed in range(40):
        run = evolve_with_jumps(psi, [Segment(horizon, prop)], channels, np.random.default_rng(seed))
        assert run.norm2 == norm2(run.psi)
        assert run.normalized_state().tobytes() == normalized(run.psi).tobytes()
        jumped += bool(run.clicks)
        quiet += not run.clicks
    assert jumped and quiet


def test_diagonal_factor_is_the_direct_exp_byte_for_byte():
    # The effective protocol register with lasers off: the detection-window propagator.
    params = desk_params()
    space = protocol_space(levels=2, cutoff=4)
    prop = PropagatorCache(space, params, tier="effective").get(())
    assert type(prop) is DiagonalPropagator
    assert len(np.unique(prop.diag)) < space.dim  # the evolve exponentiates only these
    rate = -1j * prop.diag
    psi = normalized(np.random.default_rng(4).normal(size=space.dim) + 1j)
    times = solve_pulse_times(params)
    for t in (0.0, 1e-12, times.swap_all, times.detect, 1e3 * times.detect):
        assert prop.evolve(psi, t).tobytes() == (psi * np.exp(rate * t)).tobytes(), t


def test_zero_length_walk_may_alias_its_input_but_no_caller_writes_into_it(params):
    space, prop, channels = _photon_setup(params)
    psi = normalized(space.ket("01") + space.ket("02"))
    kept = psi.copy()
    run = evolve_with_jumps(psi, [Segment(0.0, prop)], channels, np.random.default_rng(0))
    assert run.psi is psi and run.clicks == [] and run.elapsed == 0.0
    assert run.normalized_state() is not psi
    # A walk that does advance leaves its input as it was too.
    evolve_with_jumps(psi, [Segment(20.0 / params.cavity_decay, prop)], channels, np.random.default_rng(1))
    assert psi.tobytes() == kept.tobytes()
    # The backend hands back a fresh state from a zero-length wait.
    backend = NumericBackend(desk_params())
    start = backend.initial_state(0.6, 0.8)
    before = start.copy()
    out, clicks, elapsed = backend.phase_wait(start, 0.0, np.random.default_rng(0))
    assert out is not start and clicks == [] and elapsed == 0.0
    out[:] = 0.0
    assert start.tobytes() == before.tobytes()
