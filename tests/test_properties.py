"""Property tests for the survival root-finder, the memoised pulse maps, the
sparse operator product, the block propagator and ensemble seeding.

``survival_solve`` is fed survival sums grouped by rate (what its callers
pass) and the same sums spread over many basis states. The closed-form
maps are checked against a fresh engine after the memo has been filled by
earlier, different calls. ``SparseOp.__matmul__`` is checked against the
dense product on small random operators. ``make_propagator`` is checked
against ``scipy.linalg.expm`` on random dissipative Hamiltonians made of
blocks of mixed sizes in a shuffled basis, and its no-jump norm must not
grow with time. ``PropagatorCache``'s per-site factors are checked against
``expm_multiply`` of the whole-register Hamiltonian on random registers of
one to three sites. On random register layouts, every basis label must
survive index, string and per-site round trips, and the flat index must
count the labels in lexicographic order. An ensemble's first trajectories
must not depend on how many trajectories follow them.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cavtel.dynamics import (
    DiagonalPropagator,
    EigPropagator,
    PropagatorCache,
    effective_hamiltonian,
    full_hamiltonian,
    make_propagator,
    survival_solve,
)
from cavtel.experiment import EnsembleConfig, run_ensemble
from cavtel.params import reference_params
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
    # Bisection resolution, plus the band in which the two sums' rounding
    # can disagree about which side of u a midpoint lies on.
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


# -- memoised closed-form maps ------------------------------------------------------

SPACE = Register([SiteShape(2, 2, 3), SiteShape(1, 2, 2)])
PARAMS = reference_params()
# A few repeated durations, so the memo is hit as well as filled.
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
    first = shared_engine.apply_exchange_pulse(psi, site, atom, t, intent=intent)
    again = shared_engine.apply_exchange_pulse(psi, site, atom, t, intent=intent)
    fresh = AnalyticEngine(SPACE, PARAMS).apply_exchange_pulse(psi, site, atom, t, intent=intent)
    assert np.array_equal(first, fresh)
    assert np.array_equal(again, fresh)


@PROPERTY
@given(st.integers(0, 1), st.integers(0, 1), DURATIONS, st.sampled_from([None, 0.3, np.pi / 2]),
       st.integers(0, 2**32 - 1))
def test_memoised_flip_pulse_matches_fresh_engine(shared_engine, site, atom, t, angle, seed):
    atom = min(atom, SPACE.sites[site].atoms - 1)
    rng = np.random.default_rng(seed)
    psi = np.where(SPACE.photon_numbers(0) + SPACE.photon_numbers(1) == 0,
                   rng.normal(size=SPACE.dim) + 1j * rng.normal(size=SPACE.dim), 0.0)
    psi = normalized(psi)
    first = shared_engine.apply_flip_pulse(psi, site, atom, t, intent_angle=angle)
    again = shared_engine.apply_flip_pulse(psi, site, atom, t, intent_angle=angle)
    fresh = AnalyticEngine(SPACE, PARAMS).apply_flip_pulse(psi, site, atom, t, intent_angle=angle)
    assert np.array_equal(first, fresh)
    assert np.array_equal(again, fresh)
    photon = psi.copy()
    photon[np.flatnonzero(SPACE.photon_numbers(site) > 0)[0]] = 1e-6
    with pytest.raises(PulseTruncationError):
        shared_engine.apply_flip_pulse(photon, site, atom, t, intent_angle=angle)


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
    shared_engine.apply_exchange_pulse(safe, site, 0, t, intent=intent)
    cutoff = SPACE.sites[site].cutoff
    top = np.flatnonzero((SPACE.atom_levels(site, 0) == 1) & (SPACE.photon_numbers(site) == cutoff))
    hit = safe.copy()
    hit[top[0]] = top_amp
    with pytest.raises(PulseTruncationError):
        shared_engine.apply_exchange_pulse(hit, site, 0, t, intent=intent)


def test_memo_stays_bounded(shared_engine):
    psi = _safe_state(np.random.default_rng(1), 0, 0)
    for k in range(3 * AnalyticEngine.MEMO_LIMIT):
        shared_engine.apply_exchange_pulse(psi, 0, 0, 1.0 + k)
    assert len(shared_engine._pulse_maps) <= AnalyticEngine.MEMO_LIMIT


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


# -- ensemble seeding ------------------------------------------------------------------


@settings(PROPERTY, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
def test_ensemble_prefix_is_stable_under_spawn(seed, m, extra):
    short = run_ensemble(EnsembleConfig(backend="ideal", trajectories=m, seed=seed))
    longer = run_ensemble(EnsembleConfig(backend="ideal", trajectories=m + extra, seed=seed))
    # repr compares every field exactly, NaN fidelities included.
    assert [repr(s) for s in short.summaries] == [repr(s) for s in longer.summaries[:m]]
