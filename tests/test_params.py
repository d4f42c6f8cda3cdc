"""Parameter container, unit conversion, and derived-rate formulas."""

import dataclasses

import numpy as np
import pytest

from cavtel.params import (
    TWO_PI,
    PhysicalParams,
    desk_params,
    reference_params,
)


def _mhz(value_rad_per_us):
    return value_rad_per_us / TWO_PI


def test_from_mhz_converts_to_angular():
    p = PhysicalParams.from_mhz(
        laser_detuning=2000.0,
        rabi_strong=10.0,
        rabi_weak=0.84,
        cavity_coupling=0.07,
        atom_decay=1e-4,
        cavity_decay=1e-7,
    )
    assert p.laser_detuning == pytest.approx(TWO_PI * 2000.0)
    assert p.cavity_decay == pytest.approx(TWO_PI * 1e-7)


def test_population_convention_halves_atom_decay():
    kwargs = dict(
        laser_detuning=2000.0,
        rabi_strong=10.0,
        rabi_weak=0.84,
        cavity_coupling=0.07,
        atom_decay=1e-4,
        cavity_decay=1e-7,
    )
    amp = PhysicalParams.from_mhz(**kwargs)
    pop = PhysicalParams.from_mhz(**kwargs, atom_decay_convention="population")
    assert pop.atom_decay == pytest.approx(amp.atom_decay / 2)
    with pytest.raises(ValueError):
        PhysicalParams.from_mhz(**kwargs, atom_decay_convention="sideways")


@pytest.mark.parametrize("bad", [0.0, -1e-7, float("nan"), float("inf")])
def test_rejects_rates_that_are_not_finite_and_positive(bad):
    good = dataclasses.asdict(reference_params())
    for field in good:
        with pytest.raises(ValueError, match=field):
            PhysicalParams(**{**good, field: bad})


def test_rejects_bare_rates_whose_derived_rates_leave_float_range():
    # rabi_exchange (and the Raman rate and detuning offset) underflow to 0.
    with pytest.raises(ValueError, match="rabi_exchange") as err:
        PhysicalParams.from_mhz(laser_detuning=1e300, rabi_strong=1e-300, rabi_weak=1e-301,
                                cavity_coupling=0.07, atom_decay=1e-4, cavity_decay=1e-7)
    assert "rabi_raman" in str(err.value) and "detuning_offset" in str(err.value)
    # shift_strong = rabi_strong**2 / laser_detuning: the square overflows.
    with pytest.raises(ValueError, match="shift_strong"):
        PhysicalParams(**{**dataclasses.asdict(reference_params()), "rabi_strong": 1e200})


def test_validity_scattering_ratio_does_not_underflow():
    # (rabi_strong / laser_detuning)**2 underflows to 0 here, so the form
    # cavity_decay / (atom_decay * (rabi_strong / laser_detuning)**2) divided by 0.
    p = PhysicalParams(laser_detuning=1e170, rabi_strong=1.0, rabi_weak=1e-10, cavity_coupling=1e-20,
                       atom_decay=1e150, cavity_decay=1e-150)
    ratio = {row.name: row.ratio for row in p.validity()}["cavity_decay over scattering rate"]
    assert ratio == pytest.approx(1e40)


def test_params_are_frozen():
    p = reference_params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.rabi_strong = 1.0


def test_reference_profile_values():
    p = reference_params()
    assert _mhz(p.laser_detuning) == pytest.approx(2000.0)
    assert _mhz(p.rabi_strong) == pytest.approx(10.0)
    assert _mhz(p.rabi_weak) == pytest.approx(0.84)
    assert _mhz(p.cavity_coupling) == pytest.approx(0.07)
    assert _mhz(p.atom_decay) == pytest.approx(1e-4)
    assert _mhz(p.cavity_decay) == pytest.approx(1e-7)


def test_desk_profile_is_scaled_reference():
    ref, desk = reference_params(), desk_params()
    for field in dataclasses.fields(PhysicalParams):
        assert getattr(desk, field.name) == pytest.approx(1000.0 * getattr(ref, field.name))


def test_derived_rates_frozen_oracles():
    # Hand-computed once from the closed-form combinations of the reference
    # profile; any formula regression shows up as a mismatch here.
    p = reference_params()
    assert _mhz(p.shift_strong) == pytest.approx(0.05, rel=1e-12)
    assert p.detuning_offset == p.shift_strong
    assert _mhz(p.weak_detuning) == pytest.approx(2000.05, rel=1e-12)
    assert _mhz(p.shift_weak) == pytest.approx(3.5279118022049443e-4, rel=1e-12)
    assert _mhz(p.shift_photon) == pytest.approx(2.4499387515312126e-6, rel=1e-12)
    assert _mhz(p.rabi_raman) == pytest.approx(4.199947501312467e-3, rel=1e-12)
    assert _mhz(p.rabi_exchange) == pytest.approx(3.4999562510937233e-4, rel=1e-12)
    assert _mhz(p.cross_weak_cavity) == pytest.approx(2.9399265018374543e-5, rel=1e-12)


def test_derived_rate_formulas_against_direct_math():
    p = reference_params()
    delta, omega = p.laser_detuning, p.rabi_strong
    omega_w, g = p.rabi_weak, p.cavity_coupling
    delta_w = delta + omega**2 / delta
    mean_inv = 0.5 * (1 / delta + 1 / delta_w)
    assert p.shift_strong == pytest.approx(omega**2 / delta)
    assert p.weak_detuning == pytest.approx(delta_w)
    assert p.shift_weak == pytest.approx(omega_w**2 / delta_w)
    assert p.shift_photon == pytest.approx(g**2 / delta_w)
    assert p.rabi_raman == pytest.approx(omega * omega_w * mean_inv)
    assert p.rabi_exchange == pytest.approx(g * omega * mean_inv)
    assert p.cross_weak_cavity == pytest.approx(g * omega_w / delta_w)


def test_validity_rows_and_threshold():
    p = reference_params()
    rows = p.validity()
    assert len(rows) == 6
    assert all(row.ok for row in rows)
    ratios = {row.name: row.ratio for row in rows}
    assert ratios["laser_detuning/10 over rabi_strong"] == pytest.approx(20.0)
    assert ratios["rabi_strong over rabi_weak"] == pytest.approx(10.0 / 0.84)
    assert ratios["rabi_weak over cavity_coupling"] == pytest.approx(12.0)
    assert ratios["cavity_decay over scattering rate"] == pytest.approx(40.0)


def test_validity_flags_weak_hierarchy():
    p = PhysicalParams.from_mhz(
        laser_detuning=2000.0,
        rabi_strong=10.0,
        rabi_weak=9.0,  # not well below the strong drive
        cavity_coupling=0.07,
        atom_decay=1e-4,
        cavity_decay=1e-7,
    )
    bad = [row.name for row in p.validity() if not row.ok]
    assert bad == ["rabi_strong over rabi_weak"]
