"""Built-in cross checks: closed-form maps against the numeric propagator,
decay-channel balance, and protocol exactness under the idealized engine.

The pulse-agreement comparison is the library's main internal oracle: every
branch of every laser primitive (each excitation sector, both rotation
directions, inert blocks, and block-relative phases) gets its own probe
state, applied once through the closed-form map with literal rotation
angles and once through the eigendecomposed propagator. Both states are
normalized (the no-jump branch loses norm to cavity decay and to the
off-resonant exchange leak of two-laser pulses, which the closed-form map
does not track) and compared on the closed-form map's support after
removing one global phase: amplitude moduli as absolute differences, and
relative phases only where the amplitude is large enough to anchor a
well-conditioned phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PropagatorCache, decay_balance_defect, detector_channels, emission_channels
from .dynamics import effective_hamiltonian, full_hamiltonian
from .params import PhysicalParams, reference_params
from .protocol import SUCCESS_OUTCOMES, make_backend, run_protocol
from .pulses import PULSE_LASERS, AnalyticEngine, PulseTimes, solve_pulse_times
from .spaces import Register, SiteShape, normalized

MODULUS_TOL = 2e-2
PHASE_TOL = 5e-2
AMPLITUDE_FLOOR = 1e-3
PHASE_FLOOR = 5e-2
# The ideal exactness check: Haar inputs times protocol seeds, 12 runs in milliseconds.
EXACTNESS_INPUTS = 4
EXACTNESS_SEEDS = 3


@dataclass
class AgreementRow:
    label: str
    modulus_err: float
    phase_err: float

    @property
    def ok(self) -> bool:
        return self.modulus_err <= MODULUS_TOL and self.phase_err <= PHASE_TOL


def compare_states(numeric, analytic):
    """Worst modulus and phase deviation on the analytic state's support.

    Moduli are compared as absolute differences wherever the analytic state
    has weight above ``AMPLITUDE_FLOOR``. Phases are compared only above
    ``PHASE_FLOOR``: the phase of a residual-scale component flips by pi
    when a second-order correction pushes its near-zero rotation amplitude
    through zero, so smaller components carry no usable phase information.
    """
    numeric = normalized(numeric)
    analytic = normalized(analytic)
    anchor = int(np.argmax(np.abs(analytic)))
    numeric = numeric * np.exp(1j * (np.angle(analytic[anchor]) - np.angle(numeric[anchor])))
    sig = np.abs(analytic) > AMPLITUDE_FLOOR
    mod_err = float(np.max(np.abs(np.abs(numeric[sig]) - np.abs(analytic[sig]))))
    phased = np.abs(analytic) > PHASE_FLOOR
    phase_err = 0.0
    if np.any(phased):
        phase_err = float(np.max(np.abs(np.angle(numeric[phased] / analytic[phased]))))
    return mod_err, phase_err


def _agreement_cases(times: PulseTimes):
    # Component strings are single-site labels: three atom digits, then the
    # photon count. One probe per map branch: every excitation sector, both
    # rotation directions, inert blocks, and (through two-component probes
    # spanning different blocks) the block-relative phase factors. Probes
    # never superpose the two poles of one rotation pair: the pair's
    # relative phase already shows up in each pole's output, and such a
    # superposition only adds second-order leak interference the map
    # equations do not describe.
    return [
        ("laser_off_wait", None, times.swap_all, ["0000", "0011", "1002", "0101", "1110"]),
        ("swap_sector1_up", (0, "swap"), times.swap, ["1000"]),
        ("swap_sector1_down", (0, "swap"), times.swap, ["0001"]),
        ("swap_sector2", (0, "swap"), times.swap, ["1001"]),
        ("swap_sector3", (0, "swap"), times.swap, ["1102"]),
        ("swap_block_phase", (0, "swap"), times.swap, ["0100", "1000"]),
        ("half_swap_sector1", (0, "half_swap"), times.half_swap, ["1000"]),
        ("half_swap_block_phase", (0, "half_swap"), times.half_swap, ["0110", "1010"]),
        ("swap_all_sector1", (2, "swap_all"), times.swap_all, ["0010"]),
        ("swap_all_sector2", (2, "swap_all"), times.swap_all, ["0011"]),
        ("swap_all_down", (2, "swap_all"), times.swap_all, ["0001"]),
        ("swap_all_block_phase", (2, "swap_all"), times.swap_all, ["1100", "0010"]),
        ("swap_double_sector1", (1, "swap_double"), times.swap_double, ["0100"]),
        ("swap_double_sector2", (1, "swap_double"), times.swap_double, ["0101"]),
        ("swap_double_down", (1, "swap_double"), times.swap_double, ["0002"]),
        ("swap_double_block_phase", (1, "swap_double"), times.swap_double, ["1000", "0101"]),
        ("flip_up", (0, "flip"), times.flip, ["0000"]),
        ("flip_down", (0, "flip"), times.flip, ["1000"]),
        ("flip_block_phase", (0, "flip"), times.flip, ["0000", "0110"]),
        ("flip_other_atom", (2, "flip"), times.flip, ["0010"]),
    ]


def pulse_agreement_report(params: PhysicalParams, times: PulseTimes | None = None) -> list[AgreementRow]:
    times = times or solve_pulse_times(params)
    space = Register([SiteShape(3, 2, 3)])
    engine = AnalyticEngine(space, params)
    cache = PropagatorCache(space, params, "effective")
    rows = []
    for label, drive, duration, parts in _agreement_cases(times):
        psi0 = normalized(sum((space.ket(p) for p in parts), np.zeros(space.dim, dtype=np.complex128)))
        if drive is None:
            lasers = ()
            analytic = engine.apply_wait(psi0, duration)
        else:
            atom, kind = drive
            lasers = ((0, atom, *PULSE_LASERS[kind]),)
            if kind == "flip":
                analytic = engine.apply_flip_pulse(psi0, engine.flip_map(0, atom, duration))
            else:
                analytic = engine.apply_exchange_pulse(psi0, engine.exchange_map(0, atom, duration))
        numeric = cache.get(lasers).evolve(psi0, duration)
        mod_err, phase_err = compare_states(numeric, analytic)
        rows.append(AgreementRow(label, mod_err, phase_err))
    return rows


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    warn_only: bool
    detail: str


def check_validity(params: PhysicalParams) -> list[CheckOutcome]:
    out = []
    for row in params.validity():
        out.append(
            CheckOutcome(
                f"regime: {row.name}",
                row.ok,
                warn_only=True,
                detail=f"ratio {row.ratio:.3g} (want >= 10)",
            )
        )
    return out


def check_pulse_solver(params: PhysicalParams) -> list[CheckOutcome]:
    times = solve_pulse_times(params)
    out = [
        CheckOutcome(
            "pulse solver: joint swap winding",
            times.swap_all_windings == (7, 10) and abs(times.swap_all_residual) < 0.05,
            False,
            f"windings {times.swap_all_windings}, residual {times.swap_all_residual:+.4f} rad",
        ),
        CheckOutcome(
            "pulse solver: double-only winding",
            times.swap_double_windings == (3, 4) and abs(times.swap_double_residual) < 0.05,
            False,
            f"windings {times.swap_double_windings}, residual {times.swap_double_residual:+.4f} rad",
        ),
    ]
    return out


def check_decay_balance(params: PhysicalParams) -> list[CheckOutcome]:
    scale = params.cavity_decay
    space2 = Register([SiteShape(1, 2, 2), SiteShape(1, 2, 2)])
    h2 = effective_hamiltonian(space2, params, [(0, 0, True, False)])
    d2 = decay_balance_defect(h2, detector_channels(space2, params))
    space3 = Register([SiteShape(1, 3, 1), SiteShape(1, 3, 1)])
    h3 = full_hamiltonian(space3, params, [(0, 0, True, True)])
    d3 = decay_balance_defect(h3, detector_channels(space3, params) + emission_channels(space3, params))
    return [
        CheckOutcome("decay balance: reduced tier", d2 <= 1e-12 * max(scale, 1.0), False, f"defect {d2:.3g}"),
        CheckOutcome("decay balance: three-level tier", d3 <= 1e-12 * max(params.atom_decay, 1.0), False, f"defect {d3:.3g}"),
    ]


def check_pulse_agreement(params: PhysicalParams) -> list[CheckOutcome]:
    rows = pulse_agreement_report(params)
    return [
        CheckOutcome(
            f"pulse agreement: {row.label}",
            row.ok,
            False,
            f"modulus {row.modulus_err:.4f} (<= {MODULUS_TOL}), phase {row.phase_err:.4f} rad (<= {PHASE_TOL})",
        )
        for row in rows
    ]


def check_ideal_exactness(params: PhysicalParams) -> list[CheckOutcome]:
    backend = make_backend("ideal", params)
    worst = 1.0
    runs = 0
    from .experiment import haar_input, receiver_fidelity

    sampler = np.random.default_rng(11)
    for _ in range(EXACTNESS_INPUTS):
        a, b = haar_input(sampler)
        for seed in range(EXACTNESS_SEEDS):
            rng = np.random.default_rng(1000 + seed)
            rec = run_protocol(backend, a, b, rng)
            if rec.outcome in SUCCESS_OUTCOMES:
                worst = min(worst, receiver_fidelity(backend.space, rec.final_state, a, b))
                runs += 1
    return [
        CheckOutcome(
            "idealized protocol exactness",
            runs > 0 and worst >= 1.0 - 1e-9,
            False,
            f"worst fidelity 1 - {1.0 - worst:.3g} over {runs} successes",
        )
    ]


def run_all_checks(params: PhysicalParams | None = None) -> list[CheckOutcome]:
    params = params or reference_params()
    out = []
    out.extend(check_validity(params))
    out.extend(check_pulse_solver(params))
    out.extend(check_decay_balance(params))
    out.extend(check_pulse_agreement(params))
    out.extend(check_ideal_exactness(params))
    return out
