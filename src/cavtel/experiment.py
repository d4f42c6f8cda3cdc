"""Ensembles of protocol runs and density-matrix cross checks.

Trajectories are independently seeded by spawning one child seed per index
from a master seed, and all statistics reduce over summaries sorted by
index, so results are bit-identical however the work is ordered.

Success probability is reported as a function of the repetition budget:
``P[k]`` is the fraction of all trajectories that succeeded using at most
``k`` repetitions. ``F[k]`` is the mean teleportation fidelity over those
successes, so the two arrays trace the insurance trade-off curve.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import weakref
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Number, Real

import numpy as np
from scipy.integrate import solve_ivp

from .dynamics import Segment, evolve_with_jumps, make_propagator
from .params import DERIVED_RATES, TWO_PI, PROFILES, VALIDITY_THRESHOLD, PhysicalParams
from .protocol import BACKENDS, SUCCESS_OUTCOMES, ProtocolRecord, make_backend, run_protocol
from .pulses import DETECT_LIFETIMES, solve_pulse_times
from .spaces import Register, SparseOp, norm2


def haar_input(rng) -> tuple[complex, complex]:
    """Amplitude pair drawn uniformly from the qubit state space."""
    cos_polar = rng.uniform(-1.0, 1.0)
    half = 0.5 * math.acos(cos_polar)
    phase = rng.uniform(0.0, TWO_PI)
    return complex(math.cos(half)), complex(math.sin(half) * np.exp(1j * phase))


# The receiver's two input-qubit basis kets, built once per register.
_RECEIVER_KETS = weakref.WeakKeyDictionary()


def receiver_fidelity(space: Register, psi, a, b) -> float:
    """Overlap <t|rho_R|t> of the receiver's reduced state with the intended qubit t.

    The receiver (site 1) is the register's last site, so psi viewed as a
    (sender, receiver) matrix Psi has rho_R = Psi^T conj(Psi), and the
    overlap is ||Psi conj(t)||^2: one product, no reduced density matrix.
    """
    if len(space.sites) != 2:
        raise ValueError("receiver_fidelity needs the receiver (site 1) as the register's last site")
    kets = _RECEIVER_KETS.get(space)
    if kets is None:
        kets = _RECEIVER_KETS[space] = (space.site_ket(1, "100"), space.site_ket(1, "010"))
    target = a * kets[0] + b * kets[1]
    return norm2(psi.reshape(-1, space.sites[1].dim) @ np.conj(target))


@dataclass
class TrajectorySummary:
    index: int
    outcome: str
    repetitions: int
    silent_resets: int
    double_resets: int
    fidelity: float
    branch: str
    leakage: float
    elapsed: float
    reason: str = ""

    @property
    def succeeded(self) -> bool:
        return self.outcome in SUCCESS_OUTCOMES


@dataclass
class EnsembleConfig:
    """One ensemble's run settings: the one place they are named, defaulted and checked.

    ``__post_init__`` makes plain comparisons only, so building or
    ``dataclasses.replace``-ing a config stays cheap.
    """

    backend: str = "ideal"
    profile: str = "reference"
    trajectories: int = 100
    max_repetitions: int = 6
    seed: int = 20240816
    detect_lifetimes: float = DETECT_LIFETIMES
    amp_in: tuple[complex, complex] | None = None
    params: PhysicalParams | None = None

    def __post_init__(self):
        def number(value, kind):  # bool is an Integral, but not a count or a time
            return isinstance(value, kind) and not isinstance(value, bool)

        def finite(value):
            try:
                return cmath.isfinite(value)
            except OverflowError:  # an int past the float range
                return False

        if not (isinstance(self.backend, str) and self.backend in BACKENDS):
            raise ValueError(f"backend must be one of {', '.join(BACKENDS)}")
        if not (isinstance(self.profile, str) and (self.params is not None or self.profile in PROFILES)):
            raise ValueError(f"profile must be one of {', '.join(sorted(PROFILES))}")
        if not (number(self.trajectories, Integral) and self.trajectories >= 1):
            raise ValueError("trajectories must be a positive integer")
        if not (number(self.max_repetitions, Integral) and self.max_repetitions >= 0):
            raise ValueError("max_repetitions must be an integer >= 0")
        if not (number(self.seed, Integral) and self.seed >= 0):
            raise ValueError("seed must be an integer >= 0")
        if not (number(self.detect_lifetimes, Real) and 0.0 < self.detect_lifetimes < math.inf):
            raise ValueError("detect_lifetimes must be finite and positive")
        amps = self.amp_in
        if amps is not None and not (
            isinstance(amps, (tuple, list)) and len(amps) == 2
            and all(isinstance(v, Number) and finite(v) for v in amps) and any(amps)
        ):
            raise ValueError("input amplitudes (amp_in) must be two finite numbers, not both zero")

    def resolve_params(self) -> PhysicalParams:
        return self.params if self.params is not None else PROFILES[self.profile]()


# The settings a run records in summary.json, in field order.
RUN_SETTINGS = tuple(f.name for f in fields(EnsembleConfig) if f.name not in ("amp_in", "params"))


@dataclass
class EnsembleResult:
    config: EnsembleConfig
    params: PhysicalParams
    summaries: list[TrajectorySummary]
    stats: dict
    records: list[ProtocolRecord] = field(default_factory=list)


def run_ensemble(config: EnsembleConfig, trace=None, keep_records=False) -> EnsembleResult:
    params = config.resolve_params()
    times = solve_pulse_times(params, detect_lifetimes=config.detect_lifetimes)
    backend = make_backend(config.backend, params, times)
    children = np.random.SeedSequence(config.seed).spawn(config.trajectories)
    summaries = []
    records = []
    for index in range(config.trajectories):
        rng = np.random.default_rng(children[index])
        a, b = config.amp_in if config.amp_in is not None else haar_input(rng)
        tracer = None
        if trace is not None:
            tracer = lambda event, _i=index: trace({"trajectory": _i, **event})
        record = run_protocol(backend, a, b, rng, max_repetitions=config.max_repetitions, trace=tracer)
        fidelity = math.nan
        if record.outcome in SUCCESS_OUTCOMES:
            fidelity = receiver_fidelity(backend.space, record.final_state, *record.amp_in)
        summaries.append(
            TrajectorySummary(
                index=index,
                outcome=record.outcome,
                repetitions=record.silent_resets + record.double_resets,
                silent_resets=record.silent_resets,
                double_resets=record.double_resets,
                fidelity=fidelity,
                branch=record.branch,
                leakage=record.leakage,
                elapsed=record.elapsed,
                reason=record.reason,
            )
        )
        if keep_records:
            records.append(record)
    stats = compute_stats(summaries, config.max_repetitions)
    return EnsembleResult(config, params, summaries, stats, records)


def compute_stats(summaries, max_repetitions) -> dict:
    ordered = sorted(summaries, key=lambda s: s.index)
    n = len(ordered)
    outcomes = {}
    for s in ordered:
        outcomes[s.outcome] = outcomes.get(s.outcome, 0) + 1
    budgets = list(range(max_repetitions + 1))
    p_curve, p_err, f_curve, f_err, counts = [], [], [], [], []
    for k in budgets:
        fids = [s.fidelity for s in ordered if s.succeeded and s.repetitions <= k]
        m = len(fids)
        p = m / n if n else 0.0
        p_curve.append(p)
        p_err.append(math.sqrt(p * (1.0 - p) / n) if n else 0.0)
        counts.append(m)
        if m:
            mean = sum(fids) / m
            var = sum((f - mean) ** 2 for f in fids) / m
            f_curve.append(mean)
            f_err.append(math.sqrt(var / m))
        else:
            f_curve.append(math.nan)
            f_err.append(math.nan)
    all_fids = [s.fidelity for s in ordered if s.succeeded]
    return {
        "trajectories": n,
        "outcomes": outcomes,
        "budgets": budgets,
        "success_probability": p_curve,
        "success_probability_err": p_err,
        "success_counts": counts,
        "mean_fidelity": f_curve,
        "mean_fidelity_err": f_err,
        "overall_success_fidelity": (sum(all_fids) / len(all_fids)) if all_fids else math.nan,
        "mean_repetitions": (
            sum(s.repetitions for s in ordered if s.succeeded) / len(all_fids) if all_fids else math.nan
        ),
    }


# -- density-matrix references ----------------------------------------------------


def _require_channel_sizes(h: SparseOp, channels):
    """``ValueError`` naming both sizes unless every channel acts on H's states."""
    for ch in channels:
        if ch.op.dim != h.dim:
            raise ValueError(f"channel {ch.name} acts on {ch.op.dim} states, but H on {h.dim}")


def master_equation_reference(h: SparseOp, channels, rho0, t_points):
    """Integrate the unconditional evolution matching the jump unraveling.

    d(rho)/dt = -i (H rho - rho H^dag) + sum_c C rho C^dag, with H carrying
    the anti-Hermitian decay half. Returns one density matrix per requested
    time. Every channel must act on H's states.
    """
    _require_channel_sizes(h, channels)
    dim = h.dim
    hd = h.to_dense()
    hdc = hd.conj().T
    cs = [ch.op.to_dense() for ch in channels]
    csd = [c.conj().T for c in cs]

    def rhs(_t, y):
        rho = y.reshape(dim, dim)
        out = -1j * (hd @ rho - rho @ hdc)
        for c, cd in zip(cs, csd):
            out += c @ rho @ cd
        return out.ravel()

    t_end = float(t_points[-1])
    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        np.asarray(rho0, dtype=np.complex128).ravel(),
        t_eval=t_points,
        method="DOP853",
        rtol=1e-8,
        atol=1e-8,
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T.reshape(len(t_points), dim, dim)


# Trajectories whose checkpoint states are held at once before they are folded
# into the density matrices: memory stays fixed however many are averaged.
_CHUNK = 64


def mcwf_density_average(h: SparseOp, channels, psi0, t_points, n_traj, seed):
    """Trajectory-averaged density matrices at the requested checkpoints.

    Trajectory ``i`` draws from its own generator, seeded by child ``i`` of
    ``SeedSequence(seed).spawn(n_traj)``, and is walked checkpoint by
    checkpoint with ``evolve_with_jumps``, once for every checkpoint that
    advances time. Its normalized states are stacked with those of up to
    ``_CHUNK`` trajectories, and each checkpoint's stack ``S`` adds
    ``S.T @ S.conj()`` to that checkpoint's sum, so memory does not grow
    with ``n_traj``. ``n_traj`` must be an integer >= 1, ``t_points`` a
    1-D, finite, non-negative, non-decreasing sequence (repeats are
    allowed), ``psi0`` a finite 1-D state of length ``h.dim`` whose squared
    norm is 1 to within 1e-9, and every channel must act on H's states.
    """
    _require_channel_sizes(h, channels)
    if not (isinstance(n_traj, Integral) and n_traj >= 1):
        raise ValueError("n_traj must be an integer >= 1")
    times = np.asarray(t_points, dtype=float)
    if not (times.ndim == 1 and np.all(np.isfinite(times)) and np.all(times >= 0.0)
            and np.all(np.diff(times) >= 0.0)):
        raise ValueError("t_points must be a 1-D, finite, non-negative, non-decreasing sequence")
    start_state = np.asarray(psi0, dtype=np.complex128)
    if not (start_state.shape == (h.dim,) and np.all(np.isfinite(start_state))
            and abs(norm2(start_state) - 1.0) <= 1e-9):
        raise ValueError(f"psi0 must be a finite, normalized 1-D state of length {h.dim}")
    prop = make_propagator(h)
    dim = h.dim
    # One segment list per checkpoint, built once; None where time does not advance.
    walks = []
    t_prev = 0.0
    for t in times:
        walks.append([Segment(float(t - t_prev), prop)] if t > t_prev else None)
        t_prev = float(t)
    rhos = np.zeros((len(walks), dim, dim), dtype=np.complex128)
    states = np.empty((len(walks), _CHUNK, dim), dtype=np.complex128)
    children = np.random.SeedSequence(seed).spawn(n_traj)
    for first in range(0, n_traj, _CHUNK):
        chunk = children[first:first + _CHUNK]
        for k, child in enumerate(chunk):
            rng = np.random.default_rng(child)
            psi = start_state
            for j, segments in enumerate(walks):
                if segments is not None:
                    run = evolve_with_jumps(psi, segments, channels, rng, stop_on_emission=False)
                    psi = run.normalized_state()
                states[j, k] = psi
        stacked = states[:, :len(chunk)]
        rhos += stacked.transpose(0, 2, 1) @ stacked.conj()
    rhos /= n_traj
    return rhos


def trace_distance(rho_a, rho_b) -> float:
    eigs = np.linalg.eigvalsh(rho_a - rho_b)
    return 0.5 * float(np.sum(np.abs(eigs)))


# -- exports -----------------------------------------------------------------------


def write_summaries_csv(path, summaries):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["index", "outcome", "repetitions", "silent_resets", "double_resets",
             "fidelity", "branch", "leakage", "elapsed_us", "reason"]
        )
        for s in sorted(summaries, key=lambda s: s.index):
            writer.writerow(
                [s.index, s.outcome, s.repetitions, s.silent_resets, s.double_resets,
                 f"{s.fidelity:.12g}", s.branch, f"{s.leakage:.3g}", f"{s.elapsed:.6g}", s.reason]
            )


def _nan_to_none(value):
    """``value`` with every NaN float, in nested dicts and lists, replaced by None."""
    if isinstance(value, dict):
        return {key: _nan_to_none(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_nan_to_none(item) for item in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def result_summary_dict(result: EnsembleResult) -> dict:
    """The summary.json payload. A statistic with no successes to average
    (NaN in ``stats``) is None, so the file is strict JSON (``null``).
    ``derived_rad_per_us`` holds the second-order rates the model runs on
    (``params.DERIVED_RATES``). ``validity`` holds each of
    ``params.validity()``'s ratios by name, with the threshold it must
    reach and whether it passes."""
    return {
        "config": {key: getattr(result.config, key) for key in RUN_SETTINGS},
        "params_rad_per_us": asdict(result.params),
        "derived_rad_per_us": {name: getattr(result.params, name) for name in DERIVED_RATES},
        "validity": {row.name: {"ratio": row.ratio, "threshold": VALIDITY_THRESHOLD, "passes": row.ok}
                     for row in result.params.validity()},
        "stats": _nan_to_none(result.stats),
    }


def write_summary_json(path, result: EnsembleResult):
    with open(path, "w") as fh:
        json.dump(result_summary_dict(result), fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_figure_csvs(outdir, stats):
    """Write the three trade-off curves as fig3/fig4/fig5 CSV files."""
    import os

    budgets = stats["budgets"]
    with open(os.path.join(outdir, "fig3.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["repetition_budget", "success_probability", "stderr"])
        for k in budgets:
            w.writerow([k, f"{stats['success_probability'][k]:.8g}", f"{stats['success_probability_err'][k]:.4g}"])
    with open(os.path.join(outdir, "fig4.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["repetition_budget", "mean_fidelity", "stderr", "successes"])
        for k in budgets:
            w.writerow(
                [k, f"{stats['mean_fidelity'][k]:.8g}", f"{stats['mean_fidelity_err'][k]:.4g}",
                 stats["success_counts"][k]]
            )
    with open(os.path.join(outdir, "fig5.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["success_probability", "mean_fidelity"])
        for k in budgets:
            w.writerow([f"{stats['success_probability'][k]:.8g}", f"{stats['mean_fidelity'][k]:.8g}"])
