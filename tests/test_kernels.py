"""The hot numeric kernels, checked through the methods that run them.

Each kernel is one numpy expression inside its caller: the coordinate-form
apply in ``SparseOp.apply``, the phase-decay map in
``DiagonalPropagator.evolve``, the survival root-finder
``dynamics.survival_solve``, the pairwise rotation in the closed-form pulse
maps, and the per-block eigenbasis propagation in ``EigPropagator.evolve``.
"""

import numpy as np
import pytest

from cavtel.dynamics import DiagonalPropagator, EigPropagator, make_propagator, survival_solve
from cavtel.params import reference_params
from cavtel.pulses import AnalyticEngine
from cavtel.spaces import Register, SiteShape, SparseOp


def _rng():
    return np.random.default_rng(42)


def _random_coo(rng, dim=40, nnz=160):
    rows = rng.integers(0, dim, nnz)
    cols = rng.integers(0, dim, nnz)
    vals = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return rows, cols, vals, psi


def _dense(dim, rows, cols, vals):
    mat = np.zeros((dim, dim), dtype=complex)
    np.add.at(mat, (rows, cols), vals)
    return mat


def test_coo_apply_matches_dense_matmul():
    rng = _rng()
    rows, cols, vals, psi = _random_coo(rng)
    out = SparseOp(40, rows, cols, vals).apply(psi)
    assert np.allclose(out, _dense(40, rows, cols, vals) @ psi, atol=1e-12)


def test_coo_apply_accumulates_into_out():
    # A sum of operators concatenates entries; apply accumulates both parts.
    rng = _rng()
    rows, cols, vals, psi = _random_coo(rng, dim=12, nnz=30)
    full_rows, full_cols = np.divmod(np.arange(144), 12)
    seed = SparseOp(12, full_rows, full_cols, rng.normal(size=144) + 1j * rng.normal(size=144))
    out = (seed + SparseOp(12, rows, cols, vals)).apply(psi)
    assert np.allclose(out, seed.to_dense() @ psi + _dense(12, rows, cols, vals) @ psi, atol=1e-12)


def test_coo_apply_duplicate_entries_sum():
    op = SparseOp(5, [3, 3], [1, 1], [2.0, 5.0])
    psi = np.zeros(5, dtype=complex)
    psi[1] = 1.0
    assert op.apply(psi)[3] == pytest.approx(7.0)


def test_phase_decay_apply_closed_form():
    rng = _rng()
    amps = rng.normal(size=64) + 1j * rng.normal(size=64)
    phase = rng.normal(size=64)
    decay = rng.uniform(0.0, 2.0, size=64)
    t = 0.37
    got = DiagonalPropagator(-phase - 1j * decay).evolve(amps, t)
    want = amps * np.exp((1j * phase - decay) * t)
    assert np.allclose(got, want, atol=1e-13)


def test_survival_solve_single_rate_log_formula():
    weights = np.array([1.0])
    rates = np.array([0.8])
    u = 0.3
    t = survival_solve(weights, rates, u, 50.0)
    assert t == pytest.approx(np.log(1.0 / u) / 0.8, rel=1e-9)


def test_survival_solve_mixture_consistency():
    weights = np.array([0.4, 0.35, 0.25])
    rates = np.array([0.1, 1.0, 3.0])
    u = 0.2
    t = survival_solve(weights, rates, u, 100.0)
    assert float(np.sum(weights * np.exp(-rates * t))) == pytest.approx(u, rel=1e-8)


def test_survival_solve_returns_minus_one_when_no_jump():
    weights = np.array([1.0])
    rates = np.array([0.01])
    assert survival_solve(weights, rates, 0.5, 1.0) == -1.0


def test_survival_solve_zero_rate_component_floors_survival():
    # 30% of the weight never decays, so u below 0.3 is unreachable.
    weights = np.array([0.7, 0.3])
    rates = np.array([2.0, 0.0])
    assert survival_solve(weights, rates, 0.25, 1e6) == -1.0
    t = survival_solve(weights, rates, 0.5, 1e6)
    assert float(np.sum(weights * np.exp(-rates * t))) == pytest.approx(0.5, rel=1e-6)


@pytest.fixture(scope="module")
def one_atom():
    return AnalyticEngine(Register([SiteShape(1, 2, 2)]), reference_params())


def test_pair_rotate_reference(one_atom):
    # Exchange pulse blocks (1, y) <-> (0, y+1) in sectors beta = 1 and 2,
    # each rotated by sqrt(beta)*rabi_exchange*t under its own phase.
    eng, p = one_atom, one_atom.params
    space = eng.space
    rng = _rng()
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    labels = ("10", "01", "11", "02")
    psi = sum(a * space.ket(lab) for a, lab in zip(amps, labels))
    t = 3.0e3
    got = eng.apply_exchange_pulse(psi, 0, 0, t)
    for beta, (up, down) in ((1, (0, 1)), (2, (2, 3))):
        angle = np.sqrt(beta) * p.rabi_exchange * t
        fac = np.exp(1j * (p.detuning_offset + 0.5 * p.shift_photon * beta) * t)
        c, s = np.cos(angle), np.sin(angle)
        want_up = fac * (c * amps[up] + 1j * s * amps[down])
        want_down = fac * (c * amps[down] + 1j * s * amps[up])
        assert got[space.index(space.parse(labels[up]))] == pytest.approx(want_up, abs=1e-12)
        assert got[space.index(space.parse(labels[down]))] == pytest.approx(want_down, abs=1e-12)


def test_pair_rotate_identity_on_inert_components(one_atom):
    # Atom in 0 with no photon has no partner: only the shared phase acts.
    eng, p = one_atom, one_atom.params
    psi = (1.0 + 2j) * eng.space.ket("00")
    t = 3.0e3
    got = eng.apply_exchange_pulse(psi, 0, 0, t)
    assert np.allclose(got, np.exp(1j * p.detuning_offset * t) * psi, atol=1e-13)


def test_eig_propagate_matches_expm():
    from scipy.linalg import expm

    rng = _rng()
    n = 10
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rows, cols = np.indices((n, n))
    prop = make_propagator(SparseOp(n, rows.ravel(), cols.ravel(), h.ravel()))
    assert isinstance(prop, EigPropagator)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    t = 0.9
    got = prop.evolve(psi, t)
    want = expm(-1j * h * t) @ psi
    assert np.allclose(got, want, atol=1e-9)
