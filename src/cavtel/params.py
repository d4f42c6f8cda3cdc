"""Physical parameters of the driven atom-cavity register.

All rates and detunings are stored as angular frequencies in rad/us.
``from_mhz`` accepts ordinary frequencies in MHz and multiplies by 2*pi.

Each atom has two stable levels (0 and 1) and one excited level. A strong
laser couples level 1 to the excited state, a weak laser couples level 0,
and the cavity mode couples level 0 as well. Eliminating the excited state
and the cavity-laser sum sectors leaves second-order rates, exposed here
under names that say what each one does:

* ``shift_strong``: light shift of level 1 under the strong laser.
* ``shift_weak``: light shift of level 0 under the weak laser.
* ``shift_photon``: per-photon light shift of level 0 via the cavity.
* ``rabi_raman``: two-laser Raman rate between levels 1 and 0.
* ``rabi_exchange``: laser-cavity rate exchanging level 1 with level 0
  plus one photon.
* ``cross_weak_cavity``: weak-laser/cavity cross coupling within level 0.

The weak laser runs offset from the strong one by ``detuning_offset``,
chosen equal to ``shift_strong`` so the exchange resonance stays centered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

TWO_PI = 2.0 * math.pi

VALIDITY_THRESHOLD = 10.0

# The second-order rates, in the order summary.json states them.
DERIVED_RATES = (
    "shift_strong",
    "detuning_offset",
    "weak_detuning",
    "shift_weak",
    "shift_photon",
    "rabi_raman",
    "rabi_exchange",
    "cross_weak_cavity",
)


@dataclass(frozen=True)
class ValidityRow:
    name: str
    ratio: float

    @property
    def ok(self) -> bool:
        return self.ratio >= VALIDITY_THRESHOLD


@dataclass(frozen=True)
class PhysicalParams:
    """Bare system rates, angular frequencies in rad/us, amplitude-decay convention."""

    laser_detuning: float
    rabi_strong: float
    rabi_weak: float
    cavity_coupling: float
    atom_decay: float
    cavity_decay: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{f.name} must be a finite rate > 0")
        # Extreme bare rates can still overflow or underflow a derived one,
        # and the pulse solver and phase rules divide by some of them.
        bad = []
        for name in DERIVED_RATES:
            try:
                value = getattr(self, name)
            except OverflowError:  # a float ** 2 out of range
                value = math.inf
            if not (math.isfinite(value) and value > 0):
                bad.append(name)
        if bad:
            raise ValueError(f"derived rates must be finite and > 0, not so here: {', '.join(bad)}")

    @classmethod
    def from_mhz(
        cls,
        *,
        laser_detuning,
        rabi_strong,
        rabi_weak,
        cavity_coupling,
        atom_decay,
        cavity_decay,
        atom_decay_convention="amplitude",
    ) -> "PhysicalParams":
        """Build from plain frequencies in MHz.

        ``atom_decay_convention`` says what the supplied atom_decay means:
        ``"amplitude"`` is the per-amplitude rate used internally;
        ``"population"`` is the total excited-state population rate, twice
        the amplitude rate.
        """
        if atom_decay_convention == "amplitude":
            gamma = atom_decay
        elif atom_decay_convention == "population":
            gamma = atom_decay / 2.0
        else:
            raise ValueError("atom_decay_convention must be 'amplitude' or 'population'")
        return cls(
            laser_detuning=TWO_PI * laser_detuning,
            rabi_strong=TWO_PI * rabi_strong,
            rabi_weak=TWO_PI * rabi_weak,
            cavity_coupling=TWO_PI * cavity_coupling,
            atom_decay=TWO_PI * gamma,
            cavity_decay=TWO_PI * cavity_decay,
        )

    # -- second-order rates --------------------------------------------------

    @property
    def shift_strong(self) -> float:
        return self.rabi_strong**2 / self.laser_detuning

    @property
    def detuning_offset(self) -> float:
        return self.shift_strong

    @property
    def weak_detuning(self) -> float:
        return self.laser_detuning + self.detuning_offset

    @property
    def shift_weak(self) -> float:
        return self.rabi_weak**2 / self.weak_detuning

    @property
    def shift_photon(self) -> float:
        return self.cavity_coupling**2 / self.weak_detuning

    @property
    def rabi_raman(self) -> float:
        mean_inv = 0.5 * (1.0 / self.laser_detuning + 1.0 / self.weak_detuning)
        return self.rabi_strong * self.rabi_weak * mean_inv

    @property
    def rabi_exchange(self) -> float:
        mean_inv = 0.5 * (1.0 / self.laser_detuning + 1.0 / self.weak_detuning)
        return self.cavity_coupling * self.rabi_strong * mean_inv

    @property
    def cross_weak_cavity(self) -> float:
        return self.cavity_coupling * self.rabi_weak / self.weak_detuning

    # -- regime checks ---------------------------------------------------------

    def validity(self) -> tuple[ValidityRow, ...]:
        """Scale-separation ratios the second-order model relies on.

        Each ratio should exceed ``VALIDITY_THRESHOLD``. Violations degrade
        accuracy gradually, so callers warn rather than abort by default.
        """
        p = self
        # Written as a product of ratios, so no intermediate underflows to 0.
        detuning_ratio = p.laser_detuning / p.rabi_strong
        return (
            ValidityRow("laser_detuning/10 over rabi_strong", p.laser_detuning / 10.0 / p.rabi_strong),
            ValidityRow("rabi_strong over rabi_weak", p.rabi_strong / p.rabi_weak),
            ValidityRow("rabi_weak over cavity_coupling", p.rabi_weak / p.cavity_coupling),
            ValidityRow("weak_detuning over atom_decay", p.weak_detuning / p.atom_decay),
            ValidityRow("rabi_exchange over cavity_decay", p.rabi_exchange / p.cavity_decay),
            ValidityRow(
                "cavity_decay over scattering rate",
                p.cavity_decay / p.atom_decay * detuning_ratio * detuning_ratio,
            ),
        )


def reference_params() -> PhysicalParams:
    """Headline parameter set: a realistic high-finesse cavity."""
    return PhysicalParams.from_mhz(
        laser_detuning=2000.0,
        rabi_strong=10.0,
        rabi_weak=0.84,
        cavity_coupling=0.07,
        atom_decay=1e-4,
        cavity_decay=1e-7,
    )


def desk_params() -> PhysicalParams:
    """Reference set sped up uniformly by 1000 for quick numerics.

    Scaling every rate by the same factor preserves all validity ratios and
    every dimensionless feature of the dynamics; only the clock changes.
    """
    return PhysicalParams.from_mhz(
        laser_detuning=2.0e6,
        rabi_strong=1.0e4,
        rabi_weak=840.0,
        cavity_coupling=70.0,
        atom_decay=0.1,
        cavity_decay=1e-4,
    )


PROFILES = {
    "reference": reference_params,
    "desk": desk_params,
}
