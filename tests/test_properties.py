"""Property tests for the survival root-finder, the kept pulse maps, the
sparse operator product, the block propagator and ensemble seeding.

``survival_solve`` is fed survival sums grouped by rate (what its callers
pass) and the same sums spread over many basis states, and its roots are
checked against a bisection of the test's own, in bounded and unbounded
windows and for thresholds a few ulps above the rate-0 floor. A pulse map
built once and passed back must give the same bytes as a fresh build, twice,
and still refuse amplitude past the cutoff; waits are checked against a fresh
engine after the shared one's exponent tables have been filled by earlier,
different calls. ``SparseOp.__matmul__`` is checked against the
dense product on small random operators. ``make_propagator`` is checked
against ``scipy.linalg.expm`` on random dissipative Hamiltonians made of
blocks of mixed sizes in a shuffled basis, and its no-jump norm must not
grow with time. The jump search's probes of the no-jump state must match the
norm of ``evolve`` on propagators of one to three axes, each dense, diagonal
or an ``ExpmPropagator`` fallback. On those and on block propagators whose
decay is not diagonal, the search's jump time must lie in (0, t_hi] within
``JUMP_TIME_RTOL`` t_hi of the test's own tight bisection, its state must be
``evolve``'s, and it must memoise nothing. ``PropagatorCache``'s per-site factors are checked against
``expm_multiply`` of the whole-register Hamiltonian on random registers of
one to three sites. On random register layouts, every basis label must
survive index, string and per-site round trips, and the flat index must
count the labels in lexicographic order. ``receiver_fidelity`` must match the
overlap with the receiver's reduced density matrix to 1e-14. An ensemble's
first trajectories must not depend on how many trajectories follow them.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cavtel.dynamics import (
    JUMP_TIME_RTOL,
    DiagonalPropagator,
    EigPropagator,
    ExpmPropagator,
    PropagatorCache,
    effective_hamiltonian,
    full_hamiltonian,
    _bisect_jump_time,
    make_propagator,
    survival_solve,
)
from cavtel.experiment import EnsembleConfig, receiver_fidelity, run_ensemble
from cavtel.params import reference_params
from cavtel.protocol import protocol_space
from cavtel.pulses import PULSE_INTENT, AnalyticEngine, PulseTruncationError
from cavtel.spaces import Register, SiteShape, SparseOp, norm2, normalized

EPS = np.finfo(float).eps

# Derandomized, so a tier-1 run sees the same examples every time.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _survival(weights, rates, t):
    return float(np.sum(np.asarray(weights) * np.exp(-np.asarray(rates) * t)))


def _slope(weights, rates, t):
    return float(np.sum(np.asarray(weights) * np.asarray(rates) * np.exp(-np.asarray(rates) * t)))


@st.composite
def survival_problems(draw):
    """Grouped (weights, rates), the same sum split over basis states, u, t_max."""
    n_groups = draw(st.integers(1, 6))
    rates = sorted(draw(st.lists(st.floats(0.0, 5.0), min_size=n_groups, max_size=n_groups, unique=True)))
    parts = [draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=5)) for _ in rates]
    flat_w = np.array([w for group in parts for w in group])
    flat_r = np.array([r for r, group in zip(rates, parts) for _ in group])
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(flat_w))
    flat_w, flat_r = flat_w[order], flat_r[order]
    total = float(flat_w.sum())
    flat_w = flat_w / total
    groups = np.searchsorted(rates, flat_r)
    grouped_w = np.bincount(groups, weights=flat_w, minlength=len(rates))
    u = draw(st.floats(0.01, 0.99))
    t_max = draw(st.floats(0.1, 1e3))
    return grouped_w, np.array(rates), flat_w, flat_r, u, t_max


@PROPERTY
@given(survival_problems())
def test_grouped_and_ungrouped_roots_agree(problem):
    grouped_w, rates, flat_w, flat_r, u, t_max = problem
    t_grouped = survival_solve(grouped_w, rates, u, t_max)
    t_flat = survival_solve(flat_w, flat_r, u, t_max)
    assert (t_grouped < 0.0) == (t_flat < 0.0)
    if t_grouped < 0.0:
        assert t_grouped == t_flat == -1.0
        return
    # The search's resolution, plus the band in which the two sums' rounding
    # can disagree about where the survival crosses u.
    band = 64 * EPS / max(_slope(grouped_w, rates, t_grouped), 1e-300)
    assert abs(t_grouped - t_flat) <= 1e-12 * t_max + band


@PROPERTY
@given(survival_problems())
def test_minus_one_iff_survival_at_t_max_exceeds_u(problem):
    grouped_w, rates, _, _, u, t_max = problem
    s_end = _survival(grouped_w, rates, t_max)
    assume(abs(s_end - u) > 1e-12)
    t = survival_solve(grouped_w, rates, u, t_max)
    assert (t == -1.0) == (s_end > u)
    if t != -1.0:
        assert 0.0 < t <= t_max


@PROPERTY
@given(survival_problems())
def test_returned_time_brackets_the_root(problem):
    grouped_w, rates, _, _, u, t_max = problem
    t = survival_solve(grouped_w, rates, u, t_max)
    assume(t >= 0.0)
    step = 1e-12 * t_max
    slack = 16 * EPS
    assert _survival(grouped_w, rates, max(t - step, 0.0)) >= u - slack
    assert _survival(grouped_w, rates, min(t + step, t_max)) <= u + slack


def _reference_root(weights, rates, u, t_hi):
    """Bisection on [0, t_hi] down to adjacent floats, independent of the solver."""
    lo, hi = 0.0, t_hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _survival(weights, rates, mid) > u:
            lo = mid
        else:
            hi = mid


@PROPERTY
@given(survival_problems(), st.booleans(), st.one_of(st.none(), st.integers(1, 64)))
def test_root_matches_a_reference_bisection(problem, unbounded, ulps_above_floor):
    weights, rates, _, _, u, t_max = problem
    floor = float(weights[rates == 0.0].sum())
    if ulps_above_floor is not None:  # u just above the rate-0 floor: a late, ill-conditioned root
        assume(floor > 0.0)
        u = floor + ulps_above_floor * np.spacing(floor)
    if unbounded:
        t_max = math.inf
    s_end = floor if unbounded else _survival(weights, rates, t_max)
    assume(abs(s_end - u) > 1e-12 * (ulps_above_floor is None))
    t = survival_solve(weights, rates, u, t_max)
    if s_end > u:
        assert t == -1.0
        return
    t_hi = t_max
    if unbounded:
        t_hi = 1.0
        while _survival(weights, rates, t_hi) > u and t_hi < 1e300:
            t_hi *= 2.0
        assume(t_hi < 1e300)  # a subnormal rate can put the root past every float
    assert 0.0 <= t <= t_max
    want = _reference_root(weights, rates, u, t_hi)
    band = 64 * EPS / max(_slope(weights, rates, want), 1e-300)
    assert abs(t - want) <= 1e-12 * want + band


@PROPERTY
@given(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=6, max_size=6),
       st.floats(0.01, 0.99), st.floats(1e-3, 1e4))
def test_diagonal_survival_time_matches_ungrouped_solve(amps, u, t_max):
    # Six states on three distinct decay rates, one of them zero.
    diag = -1j * np.array([0.0, 0.5, 0.5, 2.0, 0.0, 2.0])
    psi = np.array(amps, dtype=complex)
    assume(np.vdot(psi, psi).real > 1e-6)
    psi = normalized(psi)
    prop = DiagonalPropagator(diag)
    weights, rates = np.abs(psi) ** 2, 2.0 * prop.decay_rate
    assume(abs(_survival(weights, rates, t_max) - u) > 1e-12)
    t = prop.survival_time(psi, u, t_max)
    t_flat = survival_solve(weights, rates, u, t_max)
    if t < 0.0:
        assert t == t_flat == -1.0
        return
    band = 64 * EPS / max(_slope(weights, rates, t), 1e-300)
    assert abs(t - t_flat) <= 1e-12 * t_max + band


# -- kept closed-form maps --------------------------------------------------------------

SPACE = Register([SiteShape(2, 2, 3), SiteShape(1, 2, 2)])
PARAMS = reference_params()
# A few repeated durations, so the wait tables are hit as well as filled.
DURATIONS = st.one_of(st.sampled_from([0.0, 1.0, 17.5, 250.0]), st.floats(0.0, 500.0))
INTENTS = st.sampled_from([None, *PULSE_INTENT.values()])


def _safe_state(rng, site, atom):
    """Random state with no amplitude where an exchange pulse would cross the cutoff."""
    psi = rng.normal(size=SPACE.dim) + 1j * rng.normal(size=SPACE.dim)
    top = (SPACE.atom_levels(site, atom) == 1) & (SPACE.photon_numbers(site) == SPACE.sites[site].cutoff)
    psi[top] = 0.0
    return normalized(psi)


@pytest.fixture(scope="module")
def shared_engine():
    return AnalyticEngine(SPACE, PARAMS)


@PROPERTY
@given(st.integers(0, 1), st.integers(0, 1), DURATIONS, INTENTS, st.integers(0, 2**32 - 1))
def test_memoised_exchange_pulse_matches_fresh_engine(shared_engine, site, atom, t, intent, seed):
    atom = min(atom, SPACE.sites[site].atoms - 1)
    psi = _safe_state(np.random.default_rng(seed), site, atom)
    pulse_map = shared_engine.exchange_map(site, atom, t, intent)
    first = shared_engine.apply_exchange_pulse(psi, site, atom, t, intent, pulse_map)
    again = shared_engine.apply_exchange_pulse(psi, site, atom, t, intent, pulse_map)
    fresh = AnalyticEngine(SPACE, PARAMS).apply_exchange_pulse(psi, site, atom, t, intent=intent)
    assert first.tobytes() == fresh.tobytes()
    assert again.tobytes() == fresh.tobytes()


@PROPERTY
@given(st.integers(0, 1), st.integers(0, 1), DURATIONS, st.sampled_from([None, 0.3, np.pi / 2]),
       st.integers(0, 2**32 - 1))
def test_memoised_flip_pulse_matches_fresh_engine(shared_engine, site, atom, t, angle, seed):
    atom = min(atom, SPACE.sites[site].atoms - 1)
    rng = np.random.default_rng(seed)
    psi = np.where(SPACE.photon_numbers(0) + SPACE.photon_numbers(1) == 0,
                   rng.normal(size=SPACE.dim) + 1j * rng.normal(size=SPACE.dim), 0.0)
    psi = normalized(psi)
    pulse_map = shared_engine.flip_map(site, atom, t, angle)
    first = shared_engine.apply_flip_pulse(psi, site, atom, t, angle, pulse_map)
    again = shared_engine.apply_flip_pulse(psi, site, atom, t, angle, pulse_map)
    fresh = AnalyticEngine(SPACE, PARAMS).apply_flip_pulse(psi, site, atom, t, intent_angle=angle)
    assert first.tobytes() == fresh.tobytes()
    assert again.tobytes() == fresh.tobytes()
    photon = psi.copy()
    photon[np.flatnonzero(SPACE.photon_numbers(site) > 0)[0]] = 1e-6
    with pytest.raises(PulseTruncationError):
        shared_engine.apply_flip_pulse(photon, site, atom, t, angle, pulse_map)


@PROPERTY
@given(DURATIONS, st.sampled_from([None, [0], [1], [0, 1]]), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_memoised_wait_matches_fresh_engine(shared_engine, t, sites, photon_shift, decay, seed):
    rng = np.random.default_rng(seed)
    psi = normalized(rng.normal(size=SPACE.dim) + 1j * rng.normal(size=SPACE.dim))
    got = shared_engine.apply_wait(psi, t, sites=sites, photon_shift=photon_shift, decay=decay)
    fresh = AnalyticEngine(SPACE, PARAMS).apply_wait(psi, t, sites=sites, photon_shift=photon_shift,
                                                      decay=decay)
    assert np.array_equal(got, fresh)
    phase, dec = shared_engine.wait_exponents(sites, photon_shift, decay)
    assert np.allclose(got, psi * np.exp((1j * phase - dec) * t), rtol=1e-13, atol=0.0)


@PROPERTY
@given(st.integers(0, 1), DURATIONS, INTENTS, st.floats(2e-12, 1.0))
def test_cached_exchange_pulse_still_flags_cutoff(shared_engine, site, t, intent, top_amp):
    safe = _safe_state(np.random.default_rng(0), site, 0)
    pulse_map = shared_engine.exchange_map(site, 0, t, intent)
    shared_engine.apply_exchange_pulse(safe, site, 0, t, intent, pulse_map)
    cutoff = SPACE.sites[site].cutoff
    top = np.flatnonzero((SPACE.atom_levels(site, 0) == 1) & (SPACE.photon_numbers(site) == cutoff))
    hit = safe.copy()
    hit[top[0]] = top_amp
    with pytest.raises(PulseTruncationError):
        shared_engine.apply_exchange_pulse(hit, site, 0, t, intent, pulse_map)


# -- sparse operator product ----------------------------------------------------------


@st.composite
def coo_pairs(draw):
    """Two operators on one small space; empty ones and repeated entries are common."""
    dim = draw(st.integers(1, 6))

    def operator():
        nnz = draw(st.integers(0, 15))
        index = st.lists(st.integers(0, dim - 1), min_size=nnz, max_size=nnz)
        vals = st.lists(st.complex_numbers(max_magnitude=1.0), min_size=nnz, max_size=nnz)
        return SparseOp(dim, draw(index), draw(index), draw(vals))

    return operator(), operator()


@PROPERTY
@given(coo_pairs())
def test_sparse_product_matches_dense_product(pair):
    a, b = pair
    product = a @ b
    assert product.dim == a.dim
    assert np.max(np.abs(product.to_dense() - a.to_dense() @ b.to_dense()), initial=0.0) <= 1e-12


# -- block propagator -----------------------------------------------------------------


@st.composite
def block_hamiltonians(draw):
    """Dissipative H (Hermitian part minus i times a PSD part) built block by block.

    Sizes repeat and include 1x1 blocks, or one lone block spans the space;
    the basis is shuffled and every entry is split over two duplicate
    triplets.
    """
    if draw(st.booleans()):
        sizes = [draw(st.integers(2, 12))]
    else:
        sizes = draw(st.lists(st.sampled_from([1, 1, 2, 3, 3, 5]), min_size=2, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = sum(sizes)
    basis = rng.permutation(dim)
    rows, cols, vals = [], [], []
    start = 0
    for size in sizes:
        x = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        y = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        block = 0.5 * (x + x.conj().T) - 0.5j * (y @ y.conj().T) / size
        r, c = np.meshgrid(basis[start:start + size], basis[start:start + size], indexing="ij")
        split = rng.random(block.shape)
        for part in (split, 1.0 - split):
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append((part * block).ravel())
        start += size
    h = SparseOp(dim, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    psi = normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    return h, psi, draw(st.floats(0.0, 5.0))


@PROPERTY
@given(block_hamiltonians())
def test_block_propagator_matches_expm(problem):
    h, psi, t = problem
    prop = make_propagator(h)
    assert isinstance(prop, (EigPropagator, DiagonalPropagator))
    want = scipy.linalg.expm(-1j * h.to_dense() * t) @ psi
    assert np.max(np.abs(prop.evolve(psi, t) - want)) <= 1e-10


@st.composite
def axis_propagators(draw):
    """An ``EigPropagator`` of one to three dissipative axes, each dense,
    diagonal or an ``ExpmPropagator`` fallback, with a random state."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["dense", "diagonal", "expm"]), min_size=1, max_size=3))
    dims = draw(st.lists(st.integers(1, 5), min_size=len(kinds), max_size=len(kinds)))
    factors = []
    for kind, size in zip(kinds, dims):
        x = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        h = 0.5 * (x + x.conj().T) - 1j * np.diag(rng.random(size))
        if kind == "diagonal":
            factors.append((np.diag(h).copy(), None, None))
        elif kind == "expm":
            factors.append(ExpmPropagator(h))
        else:
            values, vectors = np.linalg.eig(h)
            factors.append((values, vectors, np.linalg.inv(vectors)))
    dim = math.prod(dims)
    psi = normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    return EigPropagator(dims, factors), psi


@PROPERTY
@given(axis_propagators(), st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4))
def test_jump_probes_match_the_evolved_norm(problem, times):
    prop, psi = problem
    curve = prop.state_curve(psi)
    for t in times:
        assert norm2(curve(t)) == pytest.approx(norm2(prop.evolve(psi, t)), rel=1e-12)


@st.composite
def searched_propagators(draw):
    """What the walk's jump search meets: an ``axis_propagators`` draw, or
    ``make_propagator`` of a ``block_hamiltonians`` draw, whose decay is not
    diagonal (a diagonal H takes the closed-form survival search instead)."""
    if draw(st.booleans()):
        return draw(axis_propagators())
    h, psi, _ = draw(block_hamiltonians())
    prop = make_propagator(h)
    assume(not isinstance(prop, DiagonalPropagator))
    return prop, psi


def _tight_root(curve, u, t_hi):
    """The test's own bisection of the probed norm, to 1e-14 t_hi."""
    lo, hi = 0.0, t_hi
    while hi - lo > 1e-14 * t_hi:
        mid = 0.5 * (lo + hi)
        if norm2(curve(mid)) > u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@PROPERTY
@given(searched_propagators(), st.floats(0.05, 5.0), st.floats(0.01, 0.99))
def test_jump_search_matches_a_tight_bisection(problem, t_hi, fraction):
    prop, psi = problem
    curve = prop.state_curve(psi)
    n_start, n_end = norm2(psi), norm2(curve(t_hi))
    u = n_end + fraction * (n_start - n_end)
    assume(n_end < u < n_start)
    prop._steps.clear()
    t, state = _bisect_jump_time(prop, psi, u, t_hi)
    assert not prop._steps
    assert 0.0 < t <= t_hi
    assert abs(t - _tight_root(curve, u, t_hi)) <= (JUMP_TIME_RTOL + 1e-14) * t_hi
    want = prop.evolve(psi, t)
    assert np.linalg.norm(state - want) <= 1e-12 * np.linalg.norm(want)


@PROPERTY
@given(block_hamiltonians(), st.lists(st.floats(0.0, 5.0), min_size=2, max_size=6))
def test_no_jump_norm_never_increases(problem, times):
    h, psi, _ = problem
    prop = make_propagator(h)
    norms = [norm2(prop.evolve(psi, t)) for t in sorted([0.0, *times])]
    # Slack for rounding only: 400 examples grew by at most 7e-16.
    assert norms[0] <= 1.0 + 1e-12
    assert all(later <= earlier + 1e-12 for earlier, later in zip(norms, norms[1:]))


@st.composite
def lit_registers(draw):
    """A tier, a register of one to three sites and one laser row or none per site."""
    tier = draw(st.sampled_from(["effective", "full"]))
    levels = 2 if tier == "effective" else 3
    shapes = draw(st.lists(st.builds(SiteShape, st.integers(1, 2), st.just(levels), st.integers(0, 2)),
                           min_size=1, max_size=3))
    assume(np.prod([shape.dim for shape in shapes]) <= 600)
    lasers = []
    for site, shape in enumerate(shapes):
        if draw(st.booleans()):
            strong, weak = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
            lasers.append((site, draw(st.integers(0, shape.atoms - 1)), strong, weak))
    return tier, Register(shapes), lasers, draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.0, 20.0))


@settings(PROPERTY, max_examples=60)
@given(lit_registers())
def test_site_factors_match_expm_multiply(problem):
    tier, space, lasers, seed, tau = problem
    cache = PropagatorCache(space, reference_params(), tier)
    h = (effective_hamiltonian if tier == "effective" else full_hamiltonian)(cache.space, cache.params, lasers)
    m = scipy.sparse.csr_array((h.vals, (h.rows, h.cols)), shape=(h.dim, h.dim))
    t = tau / np.max(np.abs(m.data))  # expm_multiply's cost grows with |H| t
    rng = np.random.default_rng(seed)
    psi = normalized(rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim))
    want = scipy.sparse.linalg.expm_multiply(-1j * t * m, psi)
    assert np.max(np.abs(cache.get(lasers).evolve(psi, t) - want)) <= 1e-10


# -- register labels --------------------------------------------------------------------

SITE_SHAPES = st.builds(SiteShape, st.integers(1, 2), st.integers(2, 3), st.integers(0, 3))


@settings(PROPERTY, max_examples=40)
@given(st.lists(SITE_SHAPES, min_size=1, max_size=3), st.data())
def test_labels_round_trip(shapes, data):
    reg = Register(shapes)
    labels = [reg.label(i) for i in range(reg.dim)]
    assert [reg.index(label) for label in labels] == list(range(reg.dim))
    # Leftmost digit most significant: the flat index counts labels in lexicographic order.
    radices = [r for shape in shapes for r in [shape.levels] * shape.atoms + [shape.cutoff + 1]]
    assert [sum(label, ()) for label in labels] == list(itertools.product(*map(range, radices)))
    for label in labels:
        assert reg.parse(";".join("".join(map(str, part)) for part in label)) == label
    # A product ket's site marginals are that site's own basis kets.
    label = labels[data.draw(st.integers(0, reg.dim - 1))]
    psi = reg.ket(label)
    for site, part in enumerate(label):
        local = reg.site_ket(site, part)
        assert np.array_equal(reg.reduced_density(psi, site), np.outer(local, local.conj()))


# -- receiver fidelity -------------------------------------------------------------------


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.complex_numbers(max_magnitude=2.0), st.complex_numbers(max_magnitude=2.0),
       st.booleans())
def test_receiver_fidelity_is_the_reduced_density_overlap(seed, a, b, near_target):
    assume(abs(a) ** 2 + abs(b) ** 2 > 1e-6)
    scale = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a, b = a / scale, b / scale
    space = protocol_space()
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    if near_target:  # mostly the teleported qubit, as a success leaves it
        psi = 1e-3 * psi + a * space.ket("0000;100") + b * space.ket("0000;010")
    psi = normalized(psi)
    target = a * space.site_ket(1, "100") + b * space.site_ket(1, "010")
    want = float(np.real(np.conj(target) @ space.reduced_density(psi, 1) @ target))
    assert abs(receiver_fidelity(space, psi, a, b) - want) <= 1e-14


# -- ensemble seeding ------------------------------------------------------------------


@settings(PROPERTY, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
def test_ensemble_prefix_is_stable_under_spawn(seed, m, extra):
    short = run_ensemble(EnsembleConfig(backend="ideal", trajectories=m, seed=seed))
    longer = run_ensemble(EnsembleConfig(backend="ideal", trajectories=m + extra, seed=seed))
    # repr compares every field exactly, NaN fidelities included.
    assert [repr(s) for s in short.summaries] == [repr(s) for s in longer.summaries[:m]]
