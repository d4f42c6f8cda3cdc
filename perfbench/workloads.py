"""The benchmark's three workloads, their correctness gate and their metrics.

``ideal_reference`` and ``effective_desk`` are the ensembles ``cavtel run``
produces: ``run_ensemble`` plus the ``results.csv``/``summary.json`` export,
with Haar-random inputs from the seed. ``mcwf_oracle`` averages Monte Carlo
trajectories of a small register with ``mcwf_density_average`` and checks
them against ``master_equation_reference``.

Every workload repeats its user-facing call, same seed, until ``seconds``
have passed (at least once). Each call builds its own pulse times and
backend, or propagator, so each is cold for the program, and throughput is
every trajectory the calls ran over their total wall time. A shared 2-core
host switches between a fast and a slow state every few seconds; a total
over the run weighs both states as the run saw them, where a median of the
calls snaps to one of them.
For the ensembles, one warm replay then runs the same seeded trajectories
through what the last call built, captured by passing the program's own
functions through; it times each trajectory and must reproduce the cold
outcomes exactly. Set-up is what a cold call pays and the replay does not,
or, where that is below the jitter, the time before the first trajectory
starts (see ``Ensemble``). The import of numpy, scipy and cavtel is
reported apart from it.
"""

from __future__ import annotations

import importlib
import math
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from cavtel import dynamics, experiment, params, spaces
from tracing import LAYERS, EventSink, Tracer

# Public names whose loss would change what an end-to-end metric times.
ENTRY_POINTS = {
    "cavtel.experiment": (
        "EnsembleConfig", "run_ensemble", "solve_pulse_times", "make_backend", "run_protocol",
        "write_summaries_csv", "write_summary_json", "mcwf_density_average",
        "master_equation_reference", "trace_distance",
    ),
    "cavtel.dynamics": ("effective_hamiltonian", "detector_channels", "normalize_lasers", "Segment"),
    "cavtel.params": ("PhysicalParams",),
    "cavtel.spaces": ("Register", "SiteShape", "normalized"),
}


class MissingEntryPoint(Exception):
    """A program function the benchmark times is gone or no longer called."""


def require_entry_points():
    missing = []
    for module_name, names in ENTRY_POINTS.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(module_name)
            continue
        missing.extend(f"{module_name}.{name}" for name in names if not hasattr(module, name))
    if missing:
        raise MissingEntryPoint("entry points gone: " + ", ".join(missing))


@dataclass(frozen=True)
class Ensemble:
    backend: str
    profile: str
    trajectories: int
    # Set-up is the median, over this many cold one-trajectory ensembles
    # before each main call, each with its own seed, of the time before the
    # trajectory starts; None takes the main cold call minus the warm replay,
    # lazy builds included.
    setup_calls: int | None


ENSEMBLES = {
    # About 6 ms a trajectory and a set-up of ~0.4 ms with nothing built
    # lazily: far below the jitter of two 6 s walls, so it is timed directly.
    "ideal_reference": Ensemble("ideal", "reference", 1000, setup_calls=50),
    # One set-up is ~19 dense 800-dim eigendecompositions, ~20 s, most of
    # them built lazily by the first trajectories: measured once.
    "effective_desk": Ensemble("effective", "desk", 200, setup_calls=None),
}
ORACLE_TRAJECTORIES = 10_000
ORACLE_SETUP_REPS = 3  # before each call
ORACLE_TRACE_DISTANCE = 0.02
ORACLE_CHECKPOINTS = 5  # evenly spaced over one cavity lifetime
IDEAL_FIDELITY_FLOOR = 1.0 - 1e-9
EXACT_RTOL = 1e-12
OVERHEAD_PAIRS = 3  # untraced/traced repeats alternated to measure tracing overhead
SAME_SEED_SE = 3.0  # P[k]/F[k] tolerance against the seed's own reference
OTHER_SEED_SE = 5.0  # against the canonical seed, for seeds with no reference


def default_trajectories(workload):
    return ENSEMBLES[workload].trajectories if workload in ENSEMBLES else ORACLE_TRAJECTORIES


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    failed: int = 0  # operations this check found wrong


@dataclass
class Outcome:
    attempted: int
    metrics: dict  # name -> (value, unit); value None marks an absent target
    checks: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def correct(self):
        return all(c.ok for c in self.checks)

    @property
    def failed(self):
        return min(self.attempted, sum(c.failed for c in self.checks))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _ms(samples, q):
    return 1e3 * float(np.percentile(samples, q))


@contextmanager
def _patched(module, name, value):
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


# -- ensembles -----------------------------------------------------------------------


class Passthrough:
    """Stands in for the names ``run_ensemble`` looks up in ``cavtel.experiment``.

    It keeps the pulse times and backend the cold call builds and times each
    ``run_protocol`` call, noting when the first one started. With ``replay``
    set it hands the kept objects back, so a second call repeats the
    trajectories without doing any set-up.
    """

    def __init__(self):
        self.times = None
        self.backend = None
        self.replay = False
        self.latencies = []
        self.first_start = None

    @contextmanager
    def installed(self):
        solve = experiment.solve_pulse_times
        build = experiment.make_backend
        run = experiment.run_protocol

        def solve_pulse_times(*args, **kwargs):
            if not self.replay:
                self.times = solve(*args, **kwargs)
            return self.times

        def make_backend(*args, **kwargs):
            if not self.replay:
                self.backend = build(*args, **kwargs)
            return self.backend

        def run_protocol(*args, **kwargs):
            start = perf_counter()
            if self.first_start is None:
                self.first_start = start
            record = run(*args, **kwargs)
            self.latencies.append(perf_counter() - start)
            return record

        with _patched(experiment, "solve_pulse_times", solve_pulse_times), \
                _patched(experiment, "make_backend", make_backend), \
                _patched(experiment, "run_protocol", run_protocol):
            yield self

    def require_capture(self, trajectories):
        if self.backend is None or self.times is None:
            raise MissingEntryPoint(
                "cavtel.experiment.run_ensemble no longer builds through "
                "cavtel.experiment.solve_pulse_times and cavtel.experiment.make_backend")
        if len(self.latencies) != trajectories:
            raise MissingEntryPoint(
                "cavtel.experiment.run_ensemble no longer runs each trajectory through "
                "cavtel.experiment.run_protocol")


def user_call(config, outdir, trace=None):
    """What ``cavtel run`` does: the ensemble, then results.csv and summary.json."""
    outdir.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    result = experiment.run_ensemble(config, trace=trace)
    experiment.write_summaries_csv(outdir / "results.csv", result.summaries)
    experiment.write_summary_json(outdir / "summary.json", result)
    return result, perf_counter() - start


def _row(s):
    return (s.index, s.outcome, s.repetitions, s.silent_resets, s.double_resets,
            s.fidelity, s.branch, s.leakage, s.elapsed)


def _same(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))


def replay_check(cold, replays):
    bad = set()
    for warm in replays:
        for s, w in zip(cold.summaries, warm.summaries):
            if not all(_same(x, y) for x, y in zip(_row(s), _row(w))):
                bad.add(s.index)
        if len(warm.summaries) != len(cold.summaries):
            bad.update(range(len(cold.summaries)))
    n = len(cold.summaries)
    return Check("replay", not bad,
                 f"{n - len(bad)}/{n} trajectories reproduced by {len(replays)} later call(s)", len(bad))


def reference_record(stats):
    """The part of ``compute_stats`` output the gate compares; NaN as null."""
    def clean(values):
        return [None if isinstance(v, float) and math.isnan(v) else v for v in values]

    return {
        "trajectories": stats["trajectories"],
        "outcomes": dict(sorted(stats["outcomes"].items())),
        "success_counts": list(stats["success_counts"]),
        "success_probability": clean(stats["success_probability"]),
        "success_probability_err": clean(stats["success_probability_err"]),
        "mean_fidelity": clean(stats["mean_fidelity"]),
        "mean_fidelity_err": clean(stats["mean_fidelity_err"]),
    }


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= EXACT_RTOL * max(abs(a), abs(b), 1e-300)


def _exact(got, ref):
    return (got["outcomes"] == ref["outcomes"]
            and got["success_counts"] == ref["success_counts"]
            and all(_close(a, b) for key in ("success_probability", "mean_fidelity")
                    for a, b in zip(got[key], ref[key], strict=True)))


def _worst_z(got, ref):
    """Largest |difference| over P[k] and F[k], in combined standard errors."""
    worst = 0.0
    for value, err in (("success_probability", "success_probability_err"),
                       ("mean_fidelity", "mean_fidelity_err")):
        for a, b, ea, eb in zip(got[value], ref[value], got[err], ref[err], strict=True):
            if a is None or b is None:
                if (a is None) != (b is None):
                    return math.inf
                continue
            diff = abs(a - b)
            if diff <= 1e-9:
                continue
            se = math.hypot(ea or 0.0, eb or 0.0)
            worst = max(worst, diff / se if se > 0 else math.inf)
    return worst


def reference_check(workload, seed, stats, references):
    """Exact against the committed reference for this seed and size.

    Where the program's algorithm changed the counts may move; P[k]/F[k]
    then pass within 3 combined standard errors. A seed with no committed
    reference is held to 5 standard errors of the workload's largest one.
    """
    got = reference_record(stats)
    table = references.get(workload, {})
    ref = table.get(f"{seed}/{got['trajectories']}")
    if ref is not None:
        if _exact(got, ref):
            return Check("reference", True, f"identical to the committed reference for seed {seed}")
        z = _worst_z(got, ref)
        return Check("reference", z <= SAME_SEED_SE,
                     f"differs from the committed reference for seed {seed}: P[k]/F[k] within "
                     f"{z:.2f} combined standard errors (limit {SAME_SEED_SE:g})",
                     0 if z <= SAME_SEED_SE else got["trajectories"])
    if not table:
        return Check("reference", False, f"no committed reference for {workload}", got["trajectories"])
    key, base = max(table.items(), key=lambda item: item[1]["trajectories"])
    z = _worst_z(got, base)
    return Check("reference", z <= OTHER_SEED_SE,
                 f"no reference for seed {seed}: P[k]/F[k] within {z:.2f} combined standard errors "
                 f"of reference {key} (limit {OTHER_SEED_SE:g})",
                 0 if z <= OTHER_SEED_SE else got["trajectories"])


def fidelity_check(result):
    fids = [s.fidelity for s in result.summaries if s.succeeded]
    low = sum(1 for f in fids if not f >= IDEAL_FIDELITY_FLOOR)
    worst = min(fids) if fids else math.nan
    return Check("fidelity", low == 0,
                 f"{len(fids) - low}/{len(fids)} successes at fidelity >= 1-1e-9 (lowest {worst:.15f})", low)


def error_rate(result):
    invalid = sum(1 for s in result.summaries if s.outcome == "invalid")
    return invalid / len(result.summaries)


def time_to_first_trajectory(config, via, calls):
    """Cold one-trajectory ensembles, each with its own seed: seconds before the trajectory starts."""
    waits = []
    via.replay = False
    for i in range(calls):
        via.first_start = None
        start = perf_counter()
        experiment.run_ensemble(replace(config, trajectories=1, seed=config.seed * 1000 + i))
        waits.append(via.first_start - start)
    return waits


def run_ensemble_workload(workload, seed, seconds, trajectories, references, import_s, outdir, traced):
    spec = ENSEMBLES[workload]
    config = experiment.EnsembleConfig(
        backend=spec.backend, profile=spec.profile, trajectories=trajectories, seed=seed)
    via = Passthrough()
    with via.installed():
        if traced:
            return _traced_ensemble(workload, seed, config, via, references, outdir)
        # Every call builds its own backend, so each is cold for the program.
        calls, walls, setups = [], [], []
        start = perf_counter()
        while not calls or perf_counter() - start < seconds:
            if spec.setup_calls is not None:
                # The host switches between a fast and a slow state every
                # tenth of a second or so, which moves a set-up this short
                # by 40%: blocks spread over the run see both.
                setups += time_to_first_trajectory(config, via, spec.setup_calls)
            via.replay = False
            via.latencies = []
            result, wall = user_call(config, outdir / "cold")
            via.require_capture(trajectories)
            calls.append(result)
            walls.append(wall)
        via.replay = True
        via.latencies = []
        warm, warm_s = user_call(config, outdir / "warm")
        latencies = list(via.latencies)
        setups = setups or [walls[0] - warm_s]

    cold = calls[0]
    checks = [replay_check(cold, [*calls[1:], warm]),
              reference_check(workload, seed, cold.stats, references)]
    if spec.backend == "ideal":
        checks.append(fidelity_check(cold))
    metrics = {
        "traj_per_s": (trajectories * len(walls) / sum(walls), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "outcomes": dict(sorted(cold.stats["outcomes"].items())),
        "error_rate": error_rate(cold),
        "traj_ms_p50": _ms(latencies, 50),
        "traj_ms_p95": _ms(latencies, 95),
        "latency_samples": len(latencies),
        "import_s": import_s,
        "call_s": walls,
        "warm_s": warm_s,
        "setup_samples_s": setups,
    }
    return Outcome(trajectories, metrics, checks, info)


def _traced_ensemble(workload, seed, config, via, references, outdir):
    """Spans over the cold call; overhead from alternating untraced and traced replays."""
    n = config.trajectories
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    with open(outdir / "trace.jsonl", "w") as fh, tracer.installed():
        sink = EventSink(fh)
        cold, cold_s = user_call(config, outdir / "cold", trace=tracer.wrap("cli.trace", sink))
    via.require_capture(n)
    via.replay = True
    replays, plain_s, traced_s = [], [], []
    for _ in range(OVERHEAD_PAIRS):
        via.latencies = []
        plain, wall = user_call(config, outdir / "warm")
        replays.append(plain)
        plain_s.append(wall)
        latencies = list(via.latencies)
        with open(outdir / "trace-replay.jsonl", "w") as fh, Tracer().installed() as again:
            replay, wall = user_call(config, outdir / "warm", trace=again.wrap("cli.trace", EventSink(fh)))
        replays.append(replay)
        traced_s.append(wall)
    tracer.write(outdir / "spans.jsonl")

    export_bytes = sum((outdir / "cold" / f).stat().st_size for f in ("results.csv", "summary.json"))
    covered = (tracer.busy("experiment.run_ensemble") - tracer.self_time("experiment.run_ensemble")
               + tracer.busy("experiment.export"))
    extra = {
        "protocol.rounds": sink.rounds,
        "protocol.resets.silent": sink.resets.get("silent", 0),
        "protocol.resets.double": sink.resets.get("double", 0),
        "protocol.entangle_retries": sink.resets.get("entangle_retry", 0),
        "protocol.useful_round_ratio": sink.heralded / sink.rounds if sink.rounds else 0.0,
        "experiment.export.bytes": export_bytes,
        "cli.trace.events": sink.events,
        "cli.trace.bytes": sink.bytes,
        "traj_ms_p50": _ms(latencies, 50),
        "traj_ms_p95": _ms(latencies, 95),
        "trace.overhead": statistics.median(traced_s) / statistics.median(plain_s) - 1.0,
        "trace.span_cover": covered / cold_s,
        "trace.traj_per_s": n / cold_s,
        "trace.wall_s": cold_s,
        "error_rate": error_rate(cold),
    }
    checks = [replay_check(cold, replays), reference_check(workload, seed, cold.stats, references)]
    if config.backend == "ideal":
        checks.append(fidelity_check(cold))
    info = {"outcomes": dict(sorted(cold.stats["outcomes"].items())), "spans": len(tracer.spans),
            "absent_targets": tracer.absent, "replay_plain_s": plain_s, "replay_traced_s": traced_s}
    return Outcome(n, layer_metrics(tracer, extra), checks, info)


# -- oracle --------------------------------------------------------------------------


def oracle_problem():
    """The two-site, 36-dim, both-Raman register of the master-equation acceptance test."""
    p = params.PhysicalParams.from_mhz(
        laser_detuning=200.0, rabi_strong=10.0, rabi_weak=4.0,
        cavity_coupling=2.0, atom_decay=1e-3, cavity_decay=0.25,
    )
    space = spaces.Register([spaces.SiteShape(1, 2, 2), spaces.SiteShape(1, 2, 2)])
    lasers = dynamics.normalize_lasers([(0, 0, True, True), (1, 0, True, True)])
    h = dynamics.effective_hamiltonian(space, p, lasers)
    channels = dynamics.detector_channels(space, p)
    psi0 = spaces.normalized(space.ket("10;00") + space.ket("00;10"))
    horizon = 1.0 / p.cavity_decay
    t_points = np.linspace(horizon / ORACLE_CHECKPOINTS, horizon, ORACLE_CHECKPOINTS)
    rho_ref = experiment.master_equation_reference(h, channels, np.outer(psi0, psi0.conj()), t_points)
    return h, channels, psi0, t_points, rho_ref


def oracle_setup():
    """Build the oracle problem ORACLE_SETUP_REPS times, timing each build."""
    walls = []
    for _ in range(ORACLE_SETUP_REPS):
        start = perf_counter()
        problem = oracle_problem()
        walls.append(perf_counter() - start)
    return problem, walls


def _distance_check(rho_ref, rhos):
    dists = [experiment.trace_distance(a, b) for a, b in zip(rho_ref, rhos, strict=True)]
    ok = all(d < ORACLE_TRACE_DISTANCE for d in dists)
    return Check("master_equation", ok,
                 f"trace distances {', '.join(f'{d:.4f}' for d in dists)} "
                 f"(limit {ORACLE_TRACE_DISTANCE:g} at all {len(dists)} checkpoints)"), dists


def _repeat_check(first, repeats, trajectories):
    """Every later call with the same seed gives the first call's density matrices."""
    diff = max((float(np.max(np.abs(first - r))) for r in repeats), default=0.0)
    return Check("repeat", diff <= 1e-12,
                 f"{len(repeats)} later call(s) differ by at most {diff:.3g}",
                 0 if diff <= 1e-12 else trajectories)


def _mcwf_call(problem, trajectories, seed):
    h, channels, psi0, t_points, _ = problem
    start = perf_counter()
    rhos = experiment.mcwf_density_average(h, channels, psi0, t_points, n_traj=trajectories, seed=seed)
    return rhos, perf_counter() - start


def run_oracle_workload(seed, seconds, trajectories, import_s, outdir, traced):
    if traced:
        return _traced_oracle(seed, trajectories, outdir)
    # Each call builds its own propagator, so each is cold for the program.
    # Set-ups run before every call, so they sample the host's fast and slow
    # states (see run_ensemble_workload) over the whole run.
    calls, walls, setup_walls = [], [], []
    start = perf_counter()
    while not calls or perf_counter() - start < seconds:
        problem, more = oracle_setup()
        setup_walls += more
        rhos, wall = _mcwf_call(problem, trajectories, seed)
        calls.append(rhos)
        walls.append(wall)
    check, dists = _distance_check(problem[-1], calls[0])
    metrics = {
        "traj_per_s": (trajectories * len(walls) / sum(walls), "1/s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {"trace_distances": dists, "error_rate": 0.0, "import_s": import_s, "call_s": walls,
            "setup_samples_s": setup_walls}
    return Outcome(trajectories, metrics, [check, _repeat_check(calls[0], calls[1:], trajectories)], info)


def _traced_oracle(seed, trajectories, outdir):
    """Spans over set-up and one call; overhead from alternating untraced and traced repeats."""
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    with tracer.installed(walks_per_trajectory=ORACLE_CHECKPOINTS):
        problem, _ = oracle_setup()
        tracer.trajectory = -1
        rhos, traced_wall = _mcwf_call(problem, trajectories, seed)
    repeats, plain_s, traced_s = [], [], []
    for _ in range(OVERHEAD_PAIRS):
        plain, wall = _mcwf_call(problem, trajectories, seed)
        repeats.append(plain)
        plain_s.append(wall)
        with Tracer().installed(walks_per_trajectory=ORACLE_CHECKPOINTS):
            again, wall = _mcwf_call(problem, trajectories, seed)
        repeats.append(again)
        traced_s.append(wall)
    tracer.write(outdir / "spans.jsonl")
    check, _ = _distance_check(problem[-1], rhos)
    covered = tracer.busy("experiment.mcwf") - tracer.self_time("experiment.mcwf")
    # Per-trajectory latency from the program's own walks, first start to last
    # end; absent once the walks no longer split into one per checkpoint.
    latencies = None
    if tracer.calls("dynamics.walk") == trajectories * ORACLE_CHECKPOINTS:
        latencies = tracer.trajectory_extents("dynamics.walk")
    extra = {
        "protocol.rounds": 0,
        "protocol.resets.silent": 0,
        "protocol.resets.double": 0,
        "protocol.entangle_retries": 0,
        "protocol.useful_round_ratio": 0.0,
        "experiment.export.bytes": 0,
        "cli.trace.events": 0,
        "cli.trace.bytes": 0,
        "traj_ms_p50": None if latencies is None else _ms(latencies, 50),
        "traj_ms_p95": None if latencies is None else _ms(latencies, 95),
        "trace.overhead": statistics.median(traced_s) / statistics.median(plain_s) - 1.0,
        "trace.span_cover": covered / traced_wall,
        "trace.traj_per_s": trajectories / traced_wall,
        "trace.wall_s": traced_wall,
        "error_rate": 0.0,
    }
    checks = [check, _repeat_check(rhos, repeats, trajectories)]
    info = {"spans": len(tracer.spans), "absent_targets": tracer.absent}
    return Outcome(trajectories, layer_metrics(tracer, extra), checks, info)


# -- per-layer table -----------------------------------------------------------------

# (metric, unit, span name, statistic) read from the tracer's totals.
SPAN_METRICS = (
    ("pulses.exchange.calls", "count", "pulses.exchange", "calls"),
    ("pulses.exchange.busy_s", "s", "pulses.exchange", "busy"),
    ("pulses.wait.calls", "count", "pulses.wait", "calls"),
    ("pulses.wait.busy_s", "s", "pulses.wait", "busy"),
    ("pulses.flip.busy_s", "s", "pulses.flip", "busy"),
    ("protocol.detect_window.calls", "count", "protocol.detect_window", "calls"),
    ("protocol.detect_window.self_s", "s", "protocol.detect_window", "self"),
    ("protocol.pulse_block.self_s", "s", "protocol.pulse_block", "self"),
    ("protocol.phase_wait.self_s", "s", "protocol.phase_wait", "self"),
    ("protocol.leak_check.busy_s", "s", "protocol.leak_check", "busy"),
    ("protocol.driver.self_s", "s", "protocol.driver", "self"),
    ("dynamics.build.count", "count", "dynamics.build", "calls"),
    ("dynamics.build.busy_s", "s", "dynamics.build", "busy"),
    ("dynamics.hamiltonian.busy_s", "s", "dynamics.hamiltonian", "busy"),
    ("dynamics.evolve.dense.calls", "count", "dynamics.evolve.dense", "calls"),
    ("dynamics.evolve.dense.busy_s", "s", "dynamics.evolve.dense", "busy"),
    ("dynamics.evolve.diag.calls", "count", "dynamics.evolve.diag", "calls"),
    ("dynamics.evolve.diag.busy_s", "s", "dynamics.evolve.diag", "busy"),
    ("dynamics.jump_search.calls", "count", "dynamics.jump_search", "calls"),
    ("dynamics.jump_search.busy_s", "s", "dynamics.jump_search", "busy"),
    ("dynamics.walk.self_s", "s", "dynamics.walk", "self"),
    ("spaces.collapse.calls", "count", "spaces.collapse", "calls"),
    ("spaces.collapse.busy_s", "s", "spaces.collapse", "busy"),
    ("experiment.fidelity.busy_s", "s", "experiment.fidelity", "busy"),
    ("experiment.stats.busy_s", "s", "experiment.stats", "busy"),
    ("experiment.export.busy_s", "s", "experiment.export", "busy"),
    ("experiment.mcwf.busy_s", "s", "experiment.mcwf", "busy"),
    ("experiment.master_equation.busy_s", "s", "experiment.master_equation", "busy"),
    ("cli.trace.busy_s", "s", "cli.trace", "busy"),
)

# Metrics measured outside the span totals, with the span whose targets they need.
EXTRA_METRICS = (
    ("dynamics.jumps", "count", "dynamics.walk"),
    ("protocol.rounds", "count", None),
    ("protocol.resets.silent", "count", None),
    ("protocol.resets.double", "count", None),
    ("protocol.entangle_retries", "count", None),
    ("protocol.useful_round_ratio", "ratio", None),
    ("experiment.export.bytes", "B", "experiment.export"),
    ("cli.trace.events", "count", None),
    ("cli.trace.bytes", "B", None),
    ("error_rate", "ratio", None),
    ("traj_ms_p50", "ms", None),
    ("traj_ms_p95", "ms", None),
    ("trace.overhead", "ratio", None),
    ("trace.span_cover", "ratio", None),
    ("trace.traj_per_s", "1/s", None),
    ("trace.wall_s", "s", None),
)


def layer_metrics(tracer, extra):
    """Every per-layer metric; a target that is gone makes its metrics absent (None)."""
    absent = tracer.absent_names()
    extra = {**extra, "dynamics.jumps": tracer.jumps}
    read = {"calls": tracer.calls, "busy": tracer.busy, "self": tracer.self_time}
    out = {}
    for metric, unit, span, stat in SPAN_METRICS:
        out[metric] = (None if span in absent else read[stat](span), unit)
    for metric, unit, span in EXTRA_METRICS:
        out[metric] = (None if span in absent else extra[metric], unit)
    for layer in LAYERS:
        gone = any(name.split(".")[0] == layer for name in absent)
        out[f"{layer}.self_s"] = (None if gone else tracer.layer_self(layer), "s")
    return out


def run(workload, seed, seconds, trajectories, references, import_s, outdir, traced):
    if workload in ENSEMBLES:
        return run_ensemble_workload(workload, seed, seconds, trajectories, references, import_s,
                                     outdir, traced)
    return run_oracle_workload(seed, seconds, trajectories, import_s, outdir, traced)

