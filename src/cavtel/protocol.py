"""State-machine driver for the teleportation protocol with retry insurance.

One register holds the sender site (three atoms: two data carriers and one
ancilla) and the receiver site (two atoms). A protocol round runs five
phases:

1. entangle: swap pulses push the sender ancilla and receiver atom 1 into
   their cavities; the first detector click heralds a shared single photon,
   and repeating the swaps maps it back onto the atoms.
2. encode: four pulses spread the data qubit over photon-number sectors so
   that the upcoming detection splits it into recoverable pieces.
3. main detection: exactly one click teleports; zero or two clicks leave a
   protected copy, and flip pulses rebuild the start state with the atom
   roles rotated, spending one repetition.
4. confirming detection: a swap on the ancilla and a second window fold the
   two remaining encodings together; one click and silence are both wins.
5. recovery: swap pulses and a timed phase wait on the receiver undo the
   heralded phase, leaving the input qubit on the receiver atoms.

Every backend exposes the same five primitives (initial state, pulse
block, detection window, phase wait, truncation exposure), so the driver
is identical for the closed-form engine and the Monte Carlo tiers. The
primitives count click times from the start of each call; the driver owns
the run clock and puts every click on it. The closed-form engine runs
on a register with at most 2 photons per site (288 states), since no
branch of the driver puts a third photon in a cavity; the exhaustive
branch walk ``test_every_driver_branch_fits_the_ideal_register`` in
``tests/test_protocol.py`` proves it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    Channel,
    Click,
    PropagatorCache,
    Segment,
    detector_channels,
    emission_channels,
    evolve_with_jumps,
    survival_solve,
)
from .params import PhysicalParams
from .pulses import FLIP_INTENT_ANGLE, PULSE_INTENT, PULSE_LASERS, AnalyticEngine, PulseTimes, solve_pulse_times
from .spaces import Register, SiteShape, norm2, normalized

# Outcome labels.
SUCCESS_FINAL_CLICK = "success_final_click"
SUCCESS_FINAL_SILENT = "success_final_silent"
ABORT_SPONTANEOUS = "abort_spontaneous_emission"
ABORT_STRAY_CLICK = "abort_stray_click"
INVALID = "invalid"
EXHAUSTED = "exhausted_repetitions"

SUCCESS_OUTCOMES = (SUCCESS_FINAL_CLICK, SUCCESS_FINAL_SILENT)

# Stage labels used in records and traces.
STAGE_PREP = "entangle"
STAGE_ENCODE = "encode"
STAGE_DETECT_MAIN = "detect_main"
STAGE_RESET = "reset"
STAGE_DETECT_CONFIRM = "detect_confirm"
STAGE_RECOVERY = "recovery"

LEAKAGE_LIMIT = 1e-6
PREP_RETRY_LIMIT = 5


class _Abort(Exception):
    def __init__(self, outcome, reason):
        super().__init__(reason)
        self.outcome = outcome
        self.reason = reason


@dataclass
class ProtocolRecord:
    """Everything one run produced, including the classical control data."""

    amp_in: tuple[complex, complex]
    outcome: str | None = None
    reason: str = ""
    repetitions: int = 0
    silent_resets: int = 0
    double_resets: int = 0
    prep_sign: int = 0
    main_sign: int = 0
    main_click_offset: float = 0.0
    branch: str = ""
    branch_phase: complex = 0.0
    recovery_wait: float = 0.0
    clicks: list[Click] = field(default_factory=list)
    final_state: np.ndarray | None = None
    pre_recovery_state: np.ndarray | None = None
    post_reset_state: np.ndarray | None = None
    post_reset_kind: str = ""
    post_reset_roles: tuple[int, int, int] = (0, 1, 2)
    roles: tuple[int, int, int] = (0, 1, 2)
    leakage: float = 0.0
    elapsed: float = 0.0


@dataclass(frozen=True)
class PhaseRules:
    """Classical control law: heralded phases and the waits that undo them.

    The branch phase multiplies the first input amplitude relative to the
    second in the pre-recovery receiver state. It collects the deterministic
    pulse phases of the successful round, one detection-time phase, and one
    reset factor per spent repetition.
    """

    params: PhysicalParams
    times: PulseTimes

    def _alpha(self, t: float) -> complex:
        return cmath.exp(1j * self.params.detuning_offset * t)

    def _chirp(self, t: float) -> complex:
        return cmath.exp(0.5j * self.params.shift_photon * t)

    @property
    def silent_reset_factor(self) -> complex:
        t = self.times
        return -self._chirp(3.0 * (t.swap + t.swap_all))

    @property
    def double_reset_factor(self) -> complex:
        t = self.times
        return self._alpha(-t.swap_double) * self._chirp(2.0 * (t.swap + 3.0 * t.swap_all - 3.0 * t.swap_double))

    def _reset_product(self, record: ProtocolRecord) -> complex:
        return (
            self.silent_reset_factor**record.silent_resets
            * self.double_reset_factor**record.double_resets
        )

    def click_branch_phase(self, record: ProtocolRecord) -> complex:
        t = self.times
        reps = record.repetitions
        phase = (
            record.prep_sign
            * record.main_sign
            * self._alpha((reps + 1) * t.swap + reps * t.swap_all - 3.0 * t.swap_double)
            * self._chirp(1.5 * t.swap + t.swap_all - 13.0 * t.swap_double - 2.0 * record.main_click_offset)
        )
        return phase * self._reset_product(record)

    def silent_branch_phase(self, record: ProtocolRecord) -> complex:
        t = self.times
        reps = record.repetitions
        phase = (
            -record.prep_sign
            * record.main_sign
            * self._alpha((reps + 1) * t.swap + (reps + 2) * t.swap_all + 2.0 * t.swap_double)
            * self._chirp(3.5 * t.swap + 8.0 * t.swap_all + 7.0 * t.swap_double + 2.0 * record.main_click_offset)
        )
        return phase * self._reset_product(record)

    def _principal_wait(self, target: complex) -> float:
        period = 2.0 * math.pi / self.params.detuning_offset
        return (cmath.phase(target) / self.params.detuning_offset) % period

    def click_recovery_wait(self, branch_phase: complex) -> float:
        """Wait making exp(i*offset*t) cancel the click-branch phase."""
        t = self.times
        target = -1.0 / (branch_phase * self._alpha(2.0 * t.swap) * self._chirp(4.0 * t.swap))
        return self._principal_wait(target)

    def silent_recovery_wait(self, branch_phase: complex) -> float:
        return self._principal_wait(1.0 / branch_phase)

    def reset_state_factor(self, kind: str) -> complex:
        """Relative factor on the first amplitude right after one reset.

        Each repetition re-enters the same round structure, so the snapshot
        factor is the per-repetition branch-phase factor times the fresh
        round's own alpha share.
        """
        base = self._alpha(self.times.swap + self.times.swap_all)
        if kind == "silent":
            return base * self.silent_reset_factor
        if kind == "double":
            return base * self.double_reset_factor
        raise ValueError(f"unknown reset kind: {kind}")


def protocol_space(levels=2, cutoff=3) -> Register:
    return Register([SiteShape(3, levels, cutoff), SiteShape(2, levels, cutoff)])


def reset_target_state(space: Register, rules: PhaseRules, record: ProtocolRecord) -> np.ndarray:
    """State the classical tracker predicts right after the first reset."""
    if record.post_reset_state is None:
        raise ValueError("record holds no reset snapshot")
    a, b = record.amp_in
    d1, d2, anc = record.post_reset_roles

    def pattern(hot):
        return "".join("1" if k in (hot, anc) else "0" for k in range(3)) + "0;110"

    psi = a * rules.reset_state_factor(record.post_reset_kind) * space.ket(pattern(d1))
    psi += b * space.ket(pattern(d2))
    return normalized(psi)


class _Backend:
    """What every backend shares: its protocol register and start state."""

    def __init__(self, space: Register):
        self.space = space
        self._start_kets = (space.ket("1010;110"), space.ket("0110;110"))

    def initial_state(self, a, b) -> np.ndarray:
        return normalized(a * self._start_kets[0] + b * self._start_kets[1])


class IdealBackend(_Backend):
    """Closed-form engine: intended pulse angles, detection as an exact
    photon-number measurement with exponentially sampled click times.

    The register is two sites with at most 2 photons each (288 states,
    not the 512 of cutoff 3): no branch of the driver ever puts a third
    photon in a cavity, so a third rung would only carry zeros. The test
    ``test_every_driver_branch_fits_the_ideal_register`` proves it by an
    exhaustive walk of the driver's click-count tree. The closed-form maps
    still raise ``PulseTruncationError`` on any amplitude that would climb
    past the cutoff, so nothing is truncated silently.

    A run repeats fewer than 30 drive sets, so each one's pulse block is
    planned on first use and kept: its span, the idle factors of the sites
    it leaves undriven, and per drive the idle factor before its pulse (or
    ``None``), whether it is a flip, and its pulse map: the only cache of
    pulse maps. ``pulse_block`` passes each map to the engine's
    ``apply_*_pulse``. No plan is built in ``__init__``.
    """

    name = "ideal"
    # Holds every state the driver reaches; proved by
    # test_protocol.py::test_every_driver_branch_fits_the_ideal_register.
    PHOTON_CUTOFF = 2

    def __init__(self, params: PhysicalParams, times: PulseTimes | None = None):
        self.params = params
        self.times = times or solve_pulse_times(params)
        super().__init__(protocol_space(cutoff=self.PHOTON_CUTOFF))
        self.engine = AnalyticEngine(self.space, params)
        self._ports = [ch.op for ch in detector_channels(self.space, params)]
        # Each photon sector decays as one term of the survival sum.
        self._sectors = int(self.engine.total_photons.max()) + 1
        self._sector_rates = 2.0 * params.cavity_decay * np.arange(self._sectors)
        self._lit = np.flatnonzero(self.engine.total_photons)  # rows the vacuum projection clears
        self._plans = {}

    def _plan(self, drives):
        """(span, undriven idle factors, per-drive steps) of one drive set."""
        engine, times = self.engine, self.times
        span = max(times.duration(kind) for _, _, kind in drives)
        driven = {site for site, _, _ in drives}
        idle = [engine.wait_factor(span, sites=[site])
                for site in range(len(self.space.sites)) if site not in driven]
        steps = []
        for site, atom, kind in drives:
            dur = times.duration(kind)
            pre = engine.wait_factor(span - dur, sites=[site]) if dur < span else None
            if kind == "flip":
                steps.append((pre, True, engine.flip_map(site, atom, dur, FLIP_INTENT_ANGLE)))
            else:
                steps.append((pre, False, engine.exchange_map(site, atom, dur, PULSE_INTENT[kind])))
        return span, idle, steps

    def pulse_block(self, psi, drives, rng):
        key = tuple(drives)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(drives)
        span, idle, steps = plan
        engine = self.engine
        for factor in idle:
            psi = psi * factor
        for pre, flip, pulse_map in steps:
            if pre is not None:
                psi = psi * pre
            if flip:
                psi = engine.apply_flip_pulse(psi, pulse_map)
            else:
                psi = engine.apply_exchange_pulse(psi, pulse_map)
        return psi, [], span

    def detect_window(self, psi, rng, stop_after_first=False):
        """Detection in the long-window limit: each photon is eventually
        seen, so click multiplicity measures the total photon number."""
        engine = self.engine
        clicks = []
        elapsed = 0.0
        while True:
            weights = np.bincount(engine.total_photons, weights=np.abs(psi) ** 2, minlength=self._sectors)
            still = weights[0]
            u = rng.random()
            if u <= still:
                psi = psi.copy()
                psi[self._lit] = 0.0  # keep the vacuum sector only
                psi = normalized(psi)
                break
            # u above the no-click weight puts the root at a finite time.
            dt = survival_solve(weights, self._sector_rates, u, math.inf)
            tilde = engine.apply_wait(psi, dt)
            plus, minus = self._ports[0].apply(tilde), self._ports[1].apply(tilde)
            w_plus, w_minus = norm2(plus), norm2(minus)
            take_plus = rng.random() < w_plus / (w_plus + w_minus)
            # normalized(), bit for bit, from the weight already in hand.
            psi = plus / np.sqrt(w_plus) if take_plus else minus / np.sqrt(w_minus)
            elapsed += dt
            clicks.append(Click(elapsed, "detector_plus" if take_plus else "detector_minus",
                                "detector", +1 if take_plus else -1))
            if stop_after_first:
                return psi, clicks, elapsed
        return psi, clicks, self.times.detect

    def phase_wait(self, psi, duration, rng):
        return self.engine.apply_wait(psi, duration, photon_shift=False, decay=False), [], duration

    def truncation_exposure(self, psi, drives) -> float:
        # The closed-form maps raise on any real cutoff hit instead.
        return 0.0


class NumericBackend(_Backend):
    """Monte Carlo wave functions under the reduced or three-level model."""

    def __init__(self, params: PhysicalParams, times: PulseTimes | None = None, tier="effective",
                 cutoff=None):
        self.params = params
        self.times = times or solve_pulse_times(params)
        self.tier = tier
        self.name = tier
        levels = 2 if tier == "effective" else 3
        if cutoff is None:
            # Pulse residue parks ~1e-5 population three rungs up after a failed
            # round; one rung beyond that keeps the guard level quiet.
            cutoff = 4 if tier == "effective" else 3
        super().__init__(protocol_space(levels=levels, cutoff=cutoff))
        self.cache = PropagatorCache(self.space, params, tier)
        self.channels = detector_channels(self.space, params)
        if tier == "full":
            self.channels = self.channels + emission_channels(self.space, params)
        # A protocol run repeats a few drive sets, so their bookkeeping is
        # built on first use and kept: segments and the truncation mask (as
        # an index array) per drives.
        self._segment_lists = {}
        self._exposed = {}

    def _segments(self, drives):
        """Split a block of end-aligned drives at each drive's start time."""
        span = max(self.times.duration(kind) for _, _, kind in drives)
        tol = 1e-9 * span
        starts = {0.0, span}
        for _, _, kind in drives:
            starts.add(span - self.times.duration(kind))
        edges = sorted(starts)
        segments = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo <= tol:
                continue
            rows = []
            for site, atom, kind in drives:
                if span - self.times.duration(kind) <= lo + tol:
                    rows.append((site, atom, *PULSE_LASERS[kind]))
            segments.append(Segment(hi - lo, self.cache.get(rows)))
        return tuple(segments), span

    def pulse_block(self, psi, drives, rng):
        key = tuple(drives)
        if key not in self._segment_lists:
            self._segment_lists[key] = self._segments(drives)
        segments, span = self._segment_lists[key]
        run = evolve_with_jumps(psi, segments, self.channels, rng)
        return run.normalized_state(), run.clicks, span

    def detect_window(self, psi, rng, stop_after_first=False):
        seg = Segment(self.times.detect, self.cache.get(()))
        run = evolve_with_jumps(psi, [seg], self.channels, rng, stop_after_first_detector=stop_after_first)
        return run.normalized_state(), run.clicks, run.elapsed

    def phase_wait(self, psi, duration, rng):
        seg = Segment(duration, self.cache.get(()))
        run = evolve_with_jumps(psi, [seg], self.channels, rng)
        return run.normalized_state(), run.clicks, run.elapsed

    def truncation_exposure(self, psi, drives) -> float:
        """Population sitting in blocks whose upward coupling was cut off.

        Amplitude parked at the top photon level is still propagated exactly
        unless the active drive would have pushed it one rung higher.  Only
        that stranded share measures real cutoff error; the rest of the top
        level is benign and stays out of the tally.
        """
        key = tuple(drives)
        if key not in self._exposed:
            space = self.space
            mask = np.zeros(space.dim, dtype=bool)
            if self.tier == "full":
                for site, shape in enumerate(space.sites):
                    at_top = space.photon_numbers(site) == shape.cutoff
                    for atom in range(shape.atoms):
                        mask |= at_top & (space.atom_levels(site, atom) == 2)
            else:
                for site, atom, _kind in drives:
                    cutoff = space.sites[site].cutoff
                    mask |= (space.photon_numbers(site) == cutoff) & (
                        space.atom_levels(site, atom) == 1
                    )
            self._exposed[key] = np.flatnonzero(mask)
        return float(np.sum(np.abs(psi[self._exposed[key]]) ** 2))


BACKENDS = ("ideal", "effective", "full")


def make_backend(kind, params, times=None):
    if kind == "ideal":
        return IdealBackend(params, times)
    if kind in ("effective", "full"):
        return NumericBackend(params, times, tier=kind)
    raise ValueError(f"unknown backend kind: {kind}")


# -- driver ------------------------------------------------------------------------


def _split_clicks(clicks):
    detector = [c for c in clicks if c.kind == "detector"]
    emission = [c for c in clicks if c.kind == "emission"]
    return detector, emission


def _require_quiet(clicks, where):
    detector, emission = _split_clicks(clicks)
    if emission:
        raise _Abort(ABORT_SPONTANEOUS, f"spontaneous emission during {where}")
    if detector:
        raise _Abort(ABORT_STRAY_CLICK, f"stray detector click during {where}")


class _Run:
    """Mutable state shared by the stage helpers of one protocol run."""

    def __init__(self, backend, rng, record, trace):
        self.backend = backend
        self.rng = rng
        self.rec = record
        self.trace = trace
        self.clock = 0.0
        self.roles = (0, 1, 2)

    def emit(self, event, **fields):
        if self.trace is not None:
            self.trace({"event": event, "t": self.clock, **fields})

    def advance(self, psi, clicks, span):
        """A primitive's state and its clicks copied onto the run clock; the clock moves ``span`` on."""
        if clicks:
            clicks = [Click(self.clock + c.time, c.channel, c.kind, c.sign) for c in clicks]
            self.rec.clicks.extend(clicks)
        self.clock += span
        return psi, clicks

    def pulses(self, psi, drives, stage):
        psi, clicks = self.advance(*self.backend.pulse_block(psi, drives, self.rng))
        if self.trace is not None:
            self.emit("pulses", stage=stage, drives=[list(d) for d in drives])
        leak = self.backend.truncation_exposure(psi, drives)
        self.rec.leakage = max(self.rec.leakage, leak)
        if leak > LEAKAGE_LIMIT:
            raise _Abort(INVALID, "population stranded at the photon cutoff")
        if clicks:
            _require_quiet(clicks, stage)
        return psi

    def window(self, psi, stage, stop_after_first=False):
        psi, clicks = self.advance(*self.backend.detect_window(psi, self.rng, stop_after_first=stop_after_first))
        detector = []
        if clicks:
            detector, emission = _split_clicks(clicks)
            if emission:
                raise _Abort(ABORT_SPONTANEOUS, f"spontaneous emission during {stage}")
        if self.trace is not None:
            self.emit("window", stage=stage, clicks=[[c.time, c.sign] for c in detector])
        return psi, detector

    def wait(self, psi, duration, stage):
        psi, clicks = self.advance(*self.backend.phase_wait(psi, duration, self.rng))
        if clicks:
            _require_quiet(clicks, stage)
        self.emit("wait", stage=stage, duration=duration)
        return psi


def _unit_amplitudes(a, b):
    """(a, b) / sqrt(|a|^2 + |b|^2); ``ValueError`` unless both are finite and not both zero.

    Only where that sum leaves the normal float range (moduli past about
    1e154, or both under about 1e-154) are a and b first divided by their
    largest real or imaginary part. Both are made Python complex first, so
    NumPy scalars overflow as Python floats do rather than warn.
    """
    bad = ValueError("input amplitudes must be two finite numbers, not both zero")
    try:
        a, b = complex(a), complex(b)
    except OverflowError:  # an int past the float range
        raise bad from None
    try:
        scale = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    except OverflowError:
        scale = math.inf
    if not 2.0 ** -511 <= scale < math.inf:  # 2**-511 squared is the smallest normal float
        big = max(abs(part) for v in (a, b) for part in (v.real, v.imag))
        if 0.0 < big < math.inf:
            a, b = a / big, b / big
            scale = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    if not 0.0 < scale < math.inf:  # NaN fails both comparisons
        raise bad
    return a / scale, b / scale


def run_protocol(backend, a, b, rng, max_repetitions=6, trace=None) -> ProtocolRecord:
    """Run one trajectory; returns the record with outcome and final state."""
    a, b = _unit_amplitudes(a, b)
    rec = ProtocolRecord(amp_in=(a, b))
    run = _Run(backend, rng, rec, trace)
    rules = PhaseRules(backend.params, backend.times)
    psi = backend.initial_state(a, b)
    try:
        psi = _main_rounds(run, psi, max_repetitions)
        if rec.outcome is None:
            psi = _confirm_and_recover(run, psi, rules)
    except _Abort as sig:
        rec.outcome = sig.outcome
        rec.reason = sig.reason
    rec.roles = run.roles
    rec.elapsed = run.clock
    return rec


def _main_rounds(run: _Run, psi, max_repetitions):
    rec, backend = run.rec, run.backend
    for attempt in range(max_repetitions + 1):
        psi = _entangle(run, psi)
        psi = _encode(run, psi)
        psi, detector = run.window(psi, STAGE_DETECT_MAIN)
        if len(detector) == 1:
            rec.repetitions = attempt
            rec.main_sign = detector[0].sign
            rec.main_click_offset = detector[0].time - (run.clock - backend.times.detect)
            return psi
        if len(detector) == 0:
            run.emit("reset", kind="silent")
            rec.silent_resets += 1
            psi = run.pulses(psi, [(0, run.roles[0], "flip")], STAGE_RESET)
            run.roles = (run.roles[2], run.roles[1], run.roles[0])
            _snapshot_reset(rec, psi, "silent", run.roles)
        elif len(detector) == 2:
            run.emit("reset", kind="double")
            rec.double_resets += 1
            psi = run.pulses(
                psi, [(0, run.roles[0], "flip"), (1, 0, "flip")], STAGE_RESET
            )
            psi = run.pulses(psi, [(1, 1, "flip")], STAGE_RESET)
            run.roles = (run.roles[1], run.roles[2], run.roles[0])
            _snapshot_reset(rec, psi, "double", run.roles)
        else:
            raise _Abort(INVALID, "more than two clicks in the main window")
    raise _Abort(EXHAUSTED, "no heralding click within the repetition budget")


def _snapshot_reset(rec: ProtocolRecord, psi, kind, roles):
    """Keep the state right after the first reset so its quality is auditable."""
    if rec.post_reset_state is None:
        rec.post_reset_state = normalized(psi)
        rec.post_reset_kind = kind
        rec.post_reset_roles = roles


def _entangle(run: _Run, psi):
    """Herald one shared photon between the ancilla and receiver atom 1."""
    swaps = [(0, run.roles[2], "swap"), (1, 0, "swap")]
    for retry in range(PREP_RETRY_LIMIT):
        psi = run.pulses(psi, swaps, STAGE_PREP)
        psi, detector = run.window(psi, STAGE_PREP, stop_after_first=True)
        if detector:
            run.rec.prep_sign = detector[0].sign
            return run.pulses(psi, swaps, STAGE_PREP)
        # No click in a window many lifetimes long: photons were lost to
        # numerical residue. Put the swapped atoms back and retry.
        run.emit("reset", kind="entangle_retry")
        psi = run.pulses(psi, [(0, run.roles[2], "flip"), (1, 0, "flip")], STAGE_PREP)
    raise _Abort(INVALID, "entanglement herald never clicked")


def _encode(run: _Run, psi):
    d1, d2, anc = run.roles
    psi = run.pulses(psi, [(0, d1, "swap")], STAGE_ENCODE)
    psi = run.pulses(psi, [(0, anc, "swap_all")], STAGE_ENCODE)
    psi = run.pulses(psi, [(0, d2, "swap_double")], STAGE_ENCODE)
    psi = run.pulses(psi, [(0, anc, "swap_double"), (1, 1, "half_swap")], STAGE_ENCODE)
    return psi


def _confirm_and_recover(run: _Run, psi, rules: PhaseRules):
    rec = run.rec
    psi = run.pulses(psi, [(0, run.roles[2], "swap")], STAGE_DETECT_CONFIRM)
    psi, detector = run.window(psi, STAGE_DETECT_CONFIRM)
    if len(detector) > 1:
        raise _Abort(INVALID, "multiple clicks in the confirming window")
    if len(detector) == 1:
        rec.branch = "click"
        rec.branch_phase = rules.click_branch_phase(rec)
        rec.recovery_wait = rules.click_recovery_wait(rec.branch_phase)
        rec.pre_recovery_state = psi.copy()
        psi = run.pulses(psi, [(1, 0, "swap")], STAGE_RECOVERY)
        psi = run.wait(psi, rec.recovery_wait, STAGE_RECOVERY)
        psi = run.pulses(psi, [(1, 0, "swap")], STAGE_RECOVERY)
        rec.outcome = SUCCESS_FINAL_CLICK
    else:
        rec.branch = "silent"
        rec.branch_phase = rules.silent_branch_phase(rec)
        rec.recovery_wait = rules.silent_recovery_wait(rec.branch_phase)
        rec.pre_recovery_state = psi.copy()
        psi = run.pulses(psi, [(1, 0, "swap")], STAGE_RECOVERY)
        psi = run.pulses(psi, [(1, 1, "swap")], STAGE_RECOVERY)
        psi = run.wait(psi, rec.recovery_wait, STAGE_RECOVERY)
        psi = run.pulses(psi, [(1, 0, "swap")], STAGE_RECOVERY)
        rec.outcome = SUCCESS_FINAL_SILENT
    rec.final_state = normalized(psi)
    run.emit("outcome", outcome=rec.outcome)
    return psi
