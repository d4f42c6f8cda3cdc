"""Register layout, labeling, and sparse operator algebra."""

import numpy as np
import pytest

from cavtel.spaces import Register, SiteShape, SparseOp, norm2, normalized


@pytest.fixture
def qubit_register():
    return Register([SiteShape(3, 2, 3), SiteShape(2, 2, 3)])


@pytest.fixture
def small():
    return Register([SiteShape(1, 2, 2)])


def test_site_shape_validation():
    with pytest.raises(ValueError):
        SiteShape(0, 2, 3)
    with pytest.raises(ValueError):
        SiteShape(1, 4, 3)
    with pytest.raises(ValueError):
        SiteShape(1, 2, 11)
    assert SiteShape(3, 2, 3).dim == 32
    assert SiteShape(2, 3, 3).dim == 36


def test_register_dimensions(qubit_register):
    assert qubit_register.dim == 512
    three_level = Register([SiteShape(3, 3, 3), SiteShape(2, 3, 3)])
    assert three_level.dim == 3888


def test_label_index_round_trip(qubit_register):
    reg = qubit_register
    for idx in range(0, reg.dim, 37):
        assert reg.index(reg.label(idx)) == idx
    assert reg.parse("1010;110") == ((1, 0, 1, 0), (1, 1, 0))
    assert reg.index(reg.parse("0000;000")) == 0


def test_label_ordering_is_big_endian(qubit_register):
    reg = qubit_register
    # Last digit (site 1 photon count) is the fastest-running one.
    assert reg.index(reg.parse("0000;001")) == 1
    assert reg.label(1) == ((0, 0, 0, 0), (0, 0, 1))


def test_index_rejects_bad_labels(qubit_register):
    reg = qubit_register
    with pytest.raises(ValueError):
        reg.index(((0, 0, 0, 4), (0, 0, 0)))  # photon above cutoff
    with pytest.raises(ValueError):
        reg.index(((0, 0, 2, 0), (0, 0, 0)))  # level 2 in a two-level atom
    with pytest.raises(ValueError):
        reg.index(((0, 0, 0), (0, 0, 0)))  # missing digit
    with pytest.raises(ValueError):
        reg.parse("000;00;00")


def test_ket_accepts_strings(qubit_register):
    psi = qubit_register.ket("1000;110")
    assert norm2(psi) == pytest.approx(1.0)
    assert psi[qubit_register.index(qubit_register.parse("1000;110"))] == 1.0


def test_digit_tables(qubit_register):
    reg = qubit_register
    idx = reg.index(reg.parse("1012;110"))
    assert reg.photon_numbers(0)[idx] == 2
    assert reg.photon_numbers(1)[idx] == 0
    assert reg.atom_levels(0, 0)[idx] == 1
    assert reg.atom_levels(0, 1)[idx] == 0
    assert reg.atom_levels(1, 1)[idx] == 1
    assert reg.zero_level_count(0)[idx] == 1
    assert reg.zero_level_count(0, exclude_atom=1)[idx] == 0


@pytest.mark.parametrize("site", [-1, 2])
def test_site_tables_reject_sites_outside_the_register(qubit_register, site):
    # A negative site must not wrap around to the last one.
    with pytest.raises(IndexError, match="site out of range"):
        qubit_register.photon_numbers(site)
    with pytest.raises(IndexError, match="site out of range"):
        qubit_register.atom_levels(site, 0)


def test_transition_moves_one_atom(qubit_register):
    reg = qubit_register
    op = reg.transition(0, 1, 1, 0)
    psi = reg.ket("0000;000")
    out = op.apply(psi)
    assert np.allclose(out, reg.ket("0100;000"))
    # Adjoint undoes it.
    back = op.dagger().apply(out)
    assert np.allclose(back, psi)
    with pytest.raises(ValueError):
        reg.transition(0, 0, 2, 0)


def test_annihilate_create_matrix_elements(small):
    reg = small
    a = reg.annihilate(0)
    adag = a.dagger()
    two = reg.ket("02")
    one = reg.ket("01")
    assert np.allclose(a.apply(two), np.sqrt(2.0) * one)
    assert np.allclose(a.apply(reg.ket("00")), 0.0)
    assert np.allclose(adag.apply(one), np.sqrt(2.0) * two)
    # Raising from the cutoff is dropped silently by the bare operator.
    assert np.allclose(adag.apply(two), 0.0)


def test_reduced_density_of_product_and_entangled(qubit_register):
    reg = qubit_register
    psi = reg.ket("0000;100")
    rho = reg.reduced_density(psi, 1)
    target = reg.site_ket(1, "100")
    assert rho.shape == (16, 16)
    assert np.real(target.conj() @ rho @ target) == pytest.approx(1.0)

    bell = (reg.ket("1000;100") + reg.ket("0100;010")) / np.sqrt(2)
    rho = reg.reduced_density(bell, 1)
    assert np.trace(rho).real == pytest.approx(1.0)
    evals = np.linalg.eigvalsh(rho)
    assert sorted(evals[evals > 1e-12]) == pytest.approx([0.5, 0.5])


def test_site_ket_digit_range(small):
    with pytest.raises(ValueError):
        small.site_ket(0, "03")


TWO_THREE_DIGIT_SITES = Register([SiteShape(2, 2, 1)] * 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda reg: reg.site_ket(1, "10"), ValueError, "label arity mismatch"),  # one digit short
        (lambda reg: reg.site_ket(1, "1001"), ValueError, "label arity mismatch"),  # one digit over
        (lambda reg: reg.site_ket(-1, "100"), IndexError, "site out of range"),
        (lambda reg: reg.site_ket(2, "100"), IndexError, "site out of range"),
        (lambda reg: reg.index(((1, 0, 0), (0, 0, 0), (0, 0, 0))), ValueError, "wrong number of sites"),
    ],
    ids=["site_ket_short", "site_ket_long", "site_ket_site_-1", "site_ket_site_2", "index_extra_site"],
)
def test_malformed_labels_are_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call(TWO_THREE_DIGIT_SITES)


def test_sparse_op_algebra():
    rng = np.random.default_rng(7)
    # Explicit triplets with repeated (row, col) entries.
    a = SparseOp(6, rng.integers(0, 6, 30), rng.integers(0, 6, 30),
                 rng.normal(size=30) + 1j * rng.normal(size=30))
    b = SparseOp(6, rng.integers(0, 6, 30), rng.integers(0, 6, 30), rng.normal(size=30))
    assert np.allclose((a + b).to_dense(), a.to_dense() + b.to_dense())
    assert np.allclose(a.scaled(2j).to_dense(), 2j * a.to_dense())
    assert np.allclose(a.dagger().to_dense(), a.to_dense().conj().T)
    assert np.allclose((a @ b).to_dense(), a.to_dense() @ b.to_dense())
    with pytest.raises(ValueError):
        a + SparseOp(5, [], [], [])
    with pytest.raises(ValueError):
        a @ SparseOp(5, [], [], [])


def test_norm_helpers():
    psi = np.array([3.0, 4j])
    assert norm2(psi) == pytest.approx(25.0)
    assert norm2(normalized(psi)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        normalized(np.zeros(3, dtype=complex))
