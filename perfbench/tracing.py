"""Spans around the calls into each cavtel layer, for the traced run.

The tracer replaces module functions and class methods of the program with
wrappers that record one span per call: a name, a start, an end, the span
that was open when it began, and the trajectory it belongs to. Spans stay in
memory and are written out when the run ends. Totals per span name (calls,
inclusive busy time, self time) are kept as the spans close, so the per-layer
table needs no second pass.

Every wrapper is removed again when the ``installed`` block exits, so an
untraced measurement in the same process runs the program's own functions.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute path). A name listed more than once sums the
# calls of every target; the names are the per-layer metric prefixes.
TARGETS = (
    ("experiment.run_ensemble", "cavtel.experiment", "run_ensemble"),
    ("experiment.fidelity", "cavtel.experiment", "receiver_fidelity"),
    ("experiment.stats", "cavtel.experiment", "compute_stats"),
    ("experiment.export", "cavtel.experiment", "write_summaries_csv"),
    ("experiment.export", "cavtel.experiment", "write_summary_json"),
    ("experiment.mcwf", "cavtel.experiment", "mcwf_density_average"),
    ("experiment.master_equation", "cavtel.experiment", "master_equation_reference"),
    ("pulses.solve", "cavtel.experiment", "solve_pulse_times"),
    ("pulses.exchange", "cavtel.pulses", "AnalyticEngine.apply_exchange_pulse"),
    ("pulses.wait", "cavtel.pulses", "AnalyticEngine.apply_wait"),
    ("pulses.flip", "cavtel.pulses", "AnalyticEngine.apply_flip_pulse"),
    ("protocol.make_backend", "cavtel.experiment", "make_backend"),
    ("protocol.driver", "cavtel.experiment", "run_protocol"),
    ("protocol.pulse_block", "cavtel.protocol", "IdealBackend.pulse_block"),
    ("protocol.pulse_block", "cavtel.protocol", "NumericBackend.pulse_block"),
    ("protocol.detect_window", "cavtel.protocol", "IdealBackend.detect_window"),
    ("protocol.detect_window", "cavtel.protocol", "NumericBackend.detect_window"),
    ("protocol.phase_wait", "cavtel.protocol", "IdealBackend.phase_wait"),
    ("protocol.phase_wait", "cavtel.protocol", "NumericBackend.phase_wait"),
    ("protocol.leak_check", "cavtel.protocol", "IdealBackend.truncation_exposure"),
    ("protocol.leak_check", "cavtel.protocol", "NumericBackend.truncation_exposure"),
    ("dynamics.walk", "cavtel.protocol", "evolve_with_jumps"),
    ("dynamics.walk", "cavtel.experiment", "evolve_with_jumps"),
    ("dynamics.build", "cavtel.dynamics", "make_propagator"),
    ("dynamics.build", "cavtel.experiment", "make_propagator"),
    ("dynamics.hamiltonian", "cavtel.dynamics", "effective_hamiltonian"),
    ("dynamics.hamiltonian", "cavtel.dynamics", "full_hamiltonian"),
    ("dynamics.evolve.dense", "cavtel.dynamics", "EigPropagator.evolve"),
    ("dynamics.evolve.dense", "cavtel.dynamics", "ExpmPropagator.evolve"),
    ("dynamics.evolve.diag", "cavtel.dynamics", "DiagonalPropagator.evolve"),
    ("dynamics.jump_search", "cavtel.dynamics", "_bisect_jump_time"),
    ("dynamics.jump_search", "cavtel.dynamics", "DiagonalPropagator.survival_time"),
    ("spaces.collapse", "cavtel.spaces", "SparseOp.apply"),
)

LAYERS = ("pulses", "protocol", "dynamics", "spaces", "experiment", "cli")


def _resolve(module_name, path):
    """(owner, attribute) for a dotted path inside a module, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Records nested spans and keeps calls, busy and self seconds per name."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, trajectory]
        self.totals = {}  # name -> [calls, busy_s, self_s]
        self.trajectory = -1
        self.jumps = 0
        self.absent = []  # "module:path" of targets that no longer exist
        self._stack = []  # [span index, seconds covered by child spans]
        self._undo = []

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recording one span per call; hooks run outside the timing."""
        spans, stack, totals = self.spans, self._stack, self.totals

        def traced(*args, **kwargs):
            if before is not None:
                before()
            span = [name, 0.0, 0.0, stack[-1][0] if stack else -1, self.trajectory]
            frame = [len(spans), 0.0]
            spans.append(span)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[1], span[2] = start, end
                busy = end - start
                if stack:
                    stack[-1][1] += busy
                total = totals.get(name)
                if total is None:
                    total = totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += busy
                total[2] += busy - frame[1]
            if after is not None:
                after(result)
            return result

        return traced

    def _hooks(self, name, module_name, walks_per_trajectory):
        if name == "protocol.driver":
            def next_trajectory():
                self.trajectory += 1

            return next_trajectory, None
        if name == "dynamics.walk":
            walks = [0]

            def count_walk():
                # mcwf_density_average walks each trajectory once per checkpoint.
                if walks_per_trajectory and module_name == "cavtel.experiment":
                    self.trajectory = walks[0] // walks_per_trajectory
                    walks[0] += 1

            def count_jumps(run):
                self.jumps += len(run.clicks)

            return count_walk, count_jumps
        return None, None

    @contextmanager
    def installed(self, walks_per_trajectory=0):
        """Wrap every target that exists; restore the originals on exit."""
        try:
            for name, module_name, path in TARGETS:
                found = _resolve(module_name, path)
                if found is None:
                    self.absent.append(f"{module_name}:{path}")
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                own = attr in vars(owner)
                before, after = self._hooks(name, module_name, walks_per_trajectory)
                setattr(owner, attr, self.wrap(name, original, before, after))
                self._undo.append((owner, attr, original, own))
            yield self
        finally:
            while self._undo:
                owner, attr, original, own = self._undo.pop()
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def absent_names(self):
        """Span names with at least one target gone: their meaning changed."""
        gone = set(self.absent)
        return {name for name, module_name, path in TARGETS if f"{module_name}:{path}" in gone}

    def calls(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def busy(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def layer_self(self, layer):
        return sum((t[2] for name, t in self.totals.items() if name.split(".")[0] == layer), 0.0)

    def trajectory_extents(self, name):
        """Seconds from the first start to the last end of ``name`` spans, per trajectory."""
        extents = {}
        for span_name, start, end, _, trajectory in self.spans:
            if span_name == name and trajectory >= 0:
                first, last = extents.get(trajectory, (start, end))
                extents[trajectory] = (min(first, start), max(last, end))
        return [last - first for first, last in extents.values()]

    def write(self, path):
        """One JSON object per span, in the order the spans began."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, trajectory) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "trajectory": trajectory}) + "\n")


class EventSink:
    """JSON-lines trace sink shaped like ``cavtel run --trace``.

    It also counts the protocol's own events: main-window rounds, the rounds
    that heralded (exactly one click), and resets by kind.
    """

    def __init__(self, fh):
        self.fh = fh
        self.events = 0
        self.bytes = 0
        self.rounds = 0
        self.heralded = 0
        self.resets = {}

    def __call__(self, event):
        line = json.dumps(event) + "\n"
        self.fh.write(line)
        self.events += 1
        self.bytes += len(line)
        kind = event.get("event")
        if kind == "window" and event.get("stage") == "detect_main":
            self.rounds += 1
            self.heralded += len(event["clicks"]) == 1
        elif kind == "reset":
            self.resets[event["kind"]] = self.resets.get(event["kind"], 0) + 1
