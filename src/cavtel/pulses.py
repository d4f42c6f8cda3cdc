"""Closed-form pulse maps and the timing solver for the laser schedule.

With the strong laser on one atom, components group into two-state blocks
``(atom in 1, y photons) <-> (atom in 0, y+1 photons)``. A block with total
excitation ``beta = y + 1`` rotates at ``sqrt(beta) * rabi_exchange`` under
a shared phase built from the level shifts. Components with the atom in 0
and no photon are inert up to that phase. With both lasers on, blocks pair
``(1, y) <-> (0, y)`` at ``rabi_raman`` instead.

Pulse durations must serve several blocks at once, so they are chosen by a
winding search: find the duration whose rotation angles land closest to
the wanted multiples of pi/2 in every populated sector simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import PhysicalParams
from .spaces import Register

HALF_PI = 0.5 * math.pi
TWO_PI = 2.0 * math.pi

# Lasers on during each pulse kind, as (strong, weak) on the driven atom.
PULSE_LASERS = {
    "swap": (True, False),
    "half_swap": (True, False),
    "swap_all": (True, False),
    "swap_double": (True, False),
    "flip": (True, True),
}
PULSE_KINDS = PULSE_LASERS.keys()

# Longest winding count the duration search tries per pulse.
MAX_WINDING = 20

# Detection window length in cavity lifetimes, unless a run sets its own.
DETECT_LIFETIMES = 10.0


@dataclass(frozen=True)
class PulseTimes:
    """Solved durations for the protocol's laser pulses, in us."""

    swap: float
    swap_all: float
    swap_double: float
    flip: float
    detect: float
    swap_all_windings: tuple[int, int]
    swap_all_residual: float
    swap_double_windings: tuple[int, int]
    swap_double_residual: float

    @property
    def half_swap(self) -> float:
        return 0.5 * self.swap

    def duration(self, kind: str) -> float:
        if kind not in PULSE_KINDS:
            raise KeyError(kind)
        return getattr(self, kind)


# Rotation angles each pulse kind is meant to realize, by excitation sector.
# The winding search can only approximate the multi-sector targets; these
# are the exact angles the schedule is designed around.
PULSE_INTENT = {
    "swap": {1: HALF_PI},
    "half_swap": {1: 0.5 * HALF_PI},
    "swap_all": {1: HALF_PI, 2: HALF_PI},
    "swap_double": {1: 0.0, 2: HALF_PI},
}

FLIP_INTENT_ANGLE = HALF_PI


def _best_winding(single_target, start=0):
    """Pick the winding count whose double-sector angle lands nearest pi/2.

    ``single_target`` is the single-sector angle modulo 2*pi (pi/2 or 0).
    Returns (n, m, residual) with residual the double-sector angle error in
    radians: sqrt(2)*(single_target + 2*pi*n) - (pi/2 + 2*pi*m).
    """
    best = None
    for n in range(start, MAX_WINDING + 1):
        angle = single_target + TWO_PI * n
        double = math.sqrt(2.0) * angle
        m = round((double - HALF_PI) / TWO_PI)
        if m < 0:
            continue
        residual = double - (HALF_PI + TWO_PI * m)
        if best is None or abs(residual) < abs(best[2]):
            best = (n, m, residual)
    return best


def solve_pulse_times(params: PhysicalParams, detect_lifetimes=DETECT_LIFETIMES) -> PulseTimes:
    if not 0.0 < detect_lifetimes < math.inf:
        raise ValueError("detect_lifetimes must be finite and positive")
    rate = params.rabi_exchange
    n_all, m_all, res_all = _best_winding(HALF_PI, start=0)
    n_dbl, m_dbl, res_dbl = _best_winding(0.0, start=1)
    times = PulseTimes(
        swap=HALF_PI / rate,
        swap_all=(HALF_PI + TWO_PI * n_all) / rate,
        swap_double=(TWO_PI * n_dbl) / rate,
        flip=HALF_PI / params.rabi_raman,
        detect=detect_lifetimes / params.cavity_decay,
        swap_all_windings=(n_all, m_all),
        swap_all_residual=res_all,
        swap_double_windings=(n_dbl, m_dbl),
        swap_double_residual=res_dbl,
    )
    # Finite rates can still be small enough to give an infinite duration.
    bad = [name for name in ("swap", "swap_all", "swap_double", "flip", "detect")
           if not math.isfinite(getattr(times, name))]
    if bad:
        raise ValueError(f"pulse durations must be finite, not so here: {', '.join(bad)}")
    return times


class PulseTruncationError(RuntimeError):
    """A pulse hit amplitude whose partner lies beyond the photon cutoff."""


class AnalyticEngine:
    """Closed-form state maps for two-level sites under the reduced model.

    ``exchange_map`` and ``flip_map`` build one pulse's map; a caller that
    repeats the pulse keeps it and passes it to ``apply_*_pulse``, which
    otherwise builds it fresh. The engine keeps only the wait exponents per
    site set, as their distinct values and an index back to the register.
    """

    def __init__(self, space: Register, params: PhysicalParams):
        for shape in space.sites:
            if shape.levels != 2:
                raise ValueError("closed-form maps cover two-level atoms only")
        self.space = space
        self.params = params
        self._y = [space.photon_numbers(s) for s in range(len(space.sites))]
        self._n0 = [space.zero_level_count(s) for s in range(len(space.sites))]
        self.total_photons = np.sum(self._y, axis=0)
        self._wait_rates = {}

    # -- waits -------------------------------------------------------------------

    def wait_exponents(self, sites=None, photon_shift=True, decay=True):
        """Per-index (phase, decay) rates for laser-off evolution.

        Phase rate per site: zeros * (detuning_offset + photons * shift_photon);
        decay rate: cavity_decay * photons. Flags drop the photon shift or
        the decay for idealized bookkeeping.
        """
        p = self.params
        dim = self.space.dim
        phase = np.zeros(dim)
        dec = np.zeros(dim)
        for s in sites if sites is not None else range(len(self.space.sites)):
            shift = p.detuning_offset + (p.shift_photon * self._y[s] if photon_shift else 0.0)
            phase += self._n0[s] * shift
            if decay:
                dec += p.cavity_decay * self._y[s]
        return phase, dec

    def wait_factor(self, t, sites=None, photon_shift=True, decay=True):
        """Per-index laser-off factor exp((i*phase - decay) * t).

        The exponents take few distinct values (60 of 288 for the full
        wait on the ideal register, 6 without shift and decay), so only
        those are exponentiated and spread by index: each element is still
        ``exp`` of the same product, so the factor is byte-equal to
        ``np.exp(rate * t)``.
        """
        key = (None if sites is None else tuple(sites), photon_shift, decay)
        table = self._wait_rates.get(key)
        if table is None:
            phase, dec = self.wait_exponents(sites, photon_shift, decay)
            table = self._wait_rates[key] = np.unique(1j * phase - dec, return_inverse=True)
        rates, index = table
        return np.exp(rates * t).take(index)

    def apply_wait(self, psi, t, sites=None, photon_shift=True, decay=True):
        return psi * self.wait_factor(t, sites, photon_shift, decay)

    # -- laser pulses ---------------------------------------------------------------

    @staticmethod
    def _rotate(psi, pulse_map, error):
        """Pairwise rotation; refuses amplitude on rows the map does not cover."""
        cos_fac, isin_fac, partner, guard = pulse_map
        if guard.size and float(np.abs(psi[guard]).max()) > 1e-12:
            raise PulseTruncationError(error)
        return cos_fac * psi + isin_fac * psi[partner]

    def apply_exchange_pulse(self, psi, site, atom, t, intent=None, pulse_map=None):
        """One strong-laser pulse on one atom, exact up to in-block averaging.

        ``intent`` optionally pins the rotation angle per excitation sector;
        sectors it omits rotate by the literal sqrt(beta)*rabi_exchange*t.
        A caller that repeats the pulse may pass ``pulse_map``, the
        ``exchange_map`` of the same arguments, so it is not rebuilt.
        """
        if pulse_map is None:
            pulse_map = self.exchange_map(site, atom, t, intent)
        return self._rotate(psi, pulse_map, "exchange pulse reached the photon cutoff")

    def exchange_map(self, site, atom, t, intent=None):
        """(fac*cos, fac*i*sin, partner, cutoff rows) of one exchange pulse."""
        space, p = self.space, self.params
        x = space.atom_levels(site, atom)
        y = self._y[site]
        n0x = space.zero_level_count(site, exclude_atom=atom)
        cutoff = space.sites[site].cutoff
        partner = np.arange(space.dim, dtype=np.int64)
        beta = np.zeros(space.dim, dtype=np.int64)
        da, dy = space.stride(site, atom), space.stride(site)
        up = (x == 1) & (y < cutoff)
        partner[up] = np.flatnonzero(up) - da + dy
        beta[up] = y[up] + 1
        down = (x == 0) & (y >= 1)
        partner[down] = np.flatnonzero(down) + da - dy
        beta[down] = y[down]
        beta[(x == 1) & (y == cutoff)] = -1
        angles = np.where(beta > 0, np.sqrt(np.maximum(beta, 0)) * p.rabi_exchange * t, 0.0)
        if intent:
            for sector, angle in intent.items():
                angles[beta == sector] = angle
        shift_q = np.where(beta > 0, beta * (2 * n0x + 1) - n0x, 0.0)
        fac = np.exp(1j * (p.detuning_offset * (n0x + 1) + 0.5 * p.shift_photon * shift_q) * t)
        return fac * np.cos(angles), fac * (1j * np.sin(angles)), partner, np.flatnonzero(beta < 0)

    def apply_flip_pulse(self, psi, site, atom, t, intent_angle=None, pulse_map=None):
        """One two-laser pulse swapping levels 1 and 0 of one atom.

        Valid on photon-free states; photon-carrying components would leak
        through the exchange coupling, which this map does not include.
        ``pulse_map``, if given, is the ``flip_map`` of the same arguments.
        """
        if pulse_map is None:
            pulse_map = self.flip_map(site, atom, t, intent_angle)
        return self._rotate(psi, pulse_map, "flip pulse applied while photons remain")

    def flip_map(self, site, atom, t, intent_angle=None):
        """(fac*cos, fac*i*sin, partner, photon rows) of one flip pulse."""
        space = self.space
        x = space.atom_levels(site, atom)
        da = space.stride(site, atom)
        partner = np.arange(space.dim, dtype=np.int64)
        partner[x == 1] -= da
        partner[x == 0] += da
        n0x = space.zero_level_count(site, exclude_atom=atom)
        angle = self.params.rabi_raman * t if intent_angle is None else intent_angle
        fac = np.exp(1j * self.params.detuning_offset * (n0x + 1) * t)
        return fac * math.cos(angle), fac * (1j * math.sin(angle)), partner, np.flatnonzero(self.total_photons > 0)
