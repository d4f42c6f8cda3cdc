"""Built-in self-checks: each detector fires on good and bad inputs."""

import numpy as np
import pytest

from cavtel.checks import (
    MODULUS_TOL,
    PHASE_TOL,
    check_decay_balance,
    check_ideal_exactness,
    check_pulse_solver,
    check_validity,
    compare_states,
    pulse_agreement_report,
    run_all_checks,
)
from cavtel.params import PhysicalParams, desk_params, reference_params


def test_compare_states_is_phase_blind():
    a = np.array([0.6, 0.8j, 1e-6], dtype=complex)
    b = a * np.exp(0.7j)
    mod, phase = compare_states(b, a)
    assert mod == pytest.approx(0.0, abs=1e-12)
    assert phase == pytest.approx(0.0, abs=1e-12)


def test_compare_states_sees_errors():
    a = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    b = np.array([1.0, 1.1 * np.exp(0.2j)], dtype=complex)
    mod, phase = compare_states(b, a)
    assert mod > 0.03
    assert phase == pytest.approx(0.2, abs=1e-6)
    # Components below the floor are ignored.
    tiny = np.array([1.0, 1e-9], dtype=complex)
    ref = np.array([1.0, 1e-4 * 1j], dtype=complex)
    mod, _ = compare_states(tiny, ref)
    assert mod == pytest.approx(0.0, abs=1e-8)


def test_compare_states_phase_needs_anchor_weight():
    # A sign flip on a residual-scale component must not poison the phase
    # metric; the same flip on a heavy component must.
    ref = np.array([1.0, 0.02], dtype=complex)
    flipped = np.array([1.0, -0.02], dtype=complex)
    mod, phase = compare_states(flipped, ref)
    assert phase == 0.0
    assert mod == pytest.approx(0.0, abs=1e-9)
    ref = np.array([1.0, 0.3], dtype=complex)
    flipped = np.array([1.0, -0.3], dtype=complex)
    _, phase = compare_states(flipped, ref)
    assert phase == pytest.approx(np.pi, abs=1e-9)


def test_validity_outcomes_are_warnings():
    rows = check_validity(reference_params())
    assert len(rows) == 6
    assert all(r.warn_only for r in rows)
    assert all(r.passed for r in rows)
    shaky = PhysicalParams.from_mhz(
        laser_detuning=2000.0,
        rabi_strong=10.0,
        rabi_weak=5.0,
        cavity_coupling=0.07,
        atom_decay=1e-4,
        cavity_decay=1e-7,
    )
    assert any(not r.passed for r in check_validity(shaky))


def test_pulse_solver_check_windings():
    rows = check_pulse_solver(reference_params())
    assert all(r.passed for r in rows)
    assert "(7, 10)" in rows[0].detail
    assert "(3, 4)" in rows[1].detail


def test_decay_balance_check():
    rows = check_decay_balance(desk_params())
    assert [r.passed for r in rows] == [True, True]
    assert not any(r.warn_only for r in rows)


def test_pulse_agreement_rows_within_tolerance():
    rows = pulse_agreement_report(desk_params())
    labels = [r.label for r in rows]
    assert labels == [
        "laser_off_wait",
        "swap_sector1_up",
        "swap_sector1_down",
        "swap_sector2",
        "swap_sector3",
        "swap_block_phase",
        "half_swap_sector1",
        "half_swap_block_phase",
        "swap_all_sector1",
        "swap_all_sector2",
        "swap_all_down",
        "swap_all_block_phase",
        "swap_double_sector1",
        "swap_double_sector2",
        "swap_double_down",
        "swap_double_block_phase",
        "flip_up",
        "flip_down",
        "flip_block_phase",
        "flip_other_atom",
    ]
    for row in rows:
        assert row.ok, f"{row.label}: modulus {row.modulus_err}, phase {row.phase_err}"
        assert row.modulus_err <= MODULUS_TOL
        assert row.phase_err <= PHASE_TOL


def test_ideal_exactness_check():
    rows = check_ideal_exactness(reference_params())
    assert len(rows) == 1
    assert rows[0].passed


def test_run_all_checks_green_on_reference():
    rows = run_all_checks()
    assert all(r.passed for r in rows)
    names = [r.name for r in rows]
    assert any(name.startswith("regime:") for name in names)
    assert any("pulse agreement" in name for name in names)
    assert any("exactness" in name for name in names)
