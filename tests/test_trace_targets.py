"""The benchmark reaches cavtel functions by name.

``perfbench/tracing.py`` lists every function and method it times. A name
that no longer resolves turns its per-layer metrics absent, so a rename in
``cavtel`` has to show here, not only in a traced benchmark run.
``perfbench/workloads.py`` lists the entry points its end-to-end metrics
call; the benchmark refuses to run when one is gone.

The traced oracle workload also relies on how the program calls those
names. It wraps ``cavtel.experiment.evolve_with_jumps`` and reads one walk
per trajectory and advancing checkpoint; with any other count its
``traj_ms_p50``/``traj_ms_p95`` are reported absent. It wraps
``cavtel.dynamics._bisect_jump_time`` on the module, so a walk that calls
the search by another route hides ``dynamics.jump_search``. A traced run
with an absent metric cannot be compared with its parent, so both calling
conventions are checked here, on a small two-site problem shaped like the
oracle's (both Raman lasers on, so every propagator is dense).

The ``pulses.exchange`` and ``pulses.flip`` metrics count calls of
``AnalyticEngine.apply_exchange_pulse`` and ``apply_flip_pulse``. The ideal
backend's pulse-block plans hold each drive's map, so every planned pulse
must still go through those methods, with its planned map; a block that
rotated the state by another route would read 0 there.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from cavtel import dynamics, experiment, protocol
from cavtel.params import PhysicalParams
from cavtel.pulses import AnalyticEngine
from cavtel.spaces import Register, SiteShape, normalized

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    if not TRACING.exists():
        pytest.skip("perfbench/tracing.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_target_resolves():
    with _tracing().Tracer().installed() as tracer:
        assert tracer.absent == []


def test_every_traced_method_is_its_own_class_attribute():
    # The tracer wraps each ``Class.method`` on its class, in list order. A
    # method the class only inherits is looked up through the wrapper already
    # on its base, so each call would also count under the base's name.
    methods = [(module_name, path.split(".")) for _, module_name, path in _tracing().TARGETS if "." in path]
    assert methods
    for module_name, (cls_name, method) in methods:
        assert method in vars(getattr(importlib.import_module(module_name), cls_name)), f"{cls_name}.{method}"


def test_every_benchmark_entry_point_resolves(monkeypatch):
    if not PERFBENCH.is_dir():
        pytest.skip("perfbench/ is not in this checkout")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads").require_entry_points()


def _oracle_like():
    p = PhysicalParams.from_mhz(laser_detuning=200.0, rabi_strong=10.0, rabi_weak=4.0,
                                cavity_coupling=2.0, atom_decay=1e-3, cavity_decay=0.25)
    space = Register([SiteShape(1, 2, 1), SiteShape(1, 2, 1)])
    h = dynamics.effective_hamiltonian(space, p, [(0, 0, True, True), (1, 0, True, True)])
    psi0 = normalized(space.ket("10;00") + space.ket("00;10"))
    return h, dynamics.detector_channels(space, p), psi0, 1.0 / p.cavity_decay


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's result."""
    results = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, counted)
    return results


def test_oracle_walks_once_per_trajectory_and_advancing_checkpoint(monkeypatch):
    h, channels, psi0, lifetime = _oracle_like()
    assert type(dynamics.make_propagator(h)) is dynamics.EigPropagator
    walks = _counting(monkeypatch, experiment, "evolve_with_jumps")
    # Four checkpoints, two of which advance time (0 and a repeat do not).
    t_points = np.array([0.0, 0.5, 0.5, 1.5]) * lifetime
    experiment.mcwf_density_average(h, channels, psi0, t_points, n_traj=7, seed=77)
    assert len(walks) == 7 * 2


def test_dense_jumps_call_the_search_through_the_module(monkeypatch):
    h, channels, psi0, lifetime = _oracle_like()
    walks = _counting(monkeypatch, experiment, "evolve_with_jumps")
    searches = _counting(monkeypatch, dynamics, "_bisect_jump_time")
    experiment.mcwf_density_average(h, channels, psi0, [2.0 * lifetime], n_traj=20, seed=77)
    jumps = sum(len(run.clicks) for run in walks)
    assert jumps > 0 and len(searches) == jumps



def _recording(monkeypatch, cls, name):
    """Replace method ``cls.name`` by a wrapper that records each call's named arguments."""
    calls = []
    original = getattr(cls, name)
    signature = inspect.signature(original)

    def recorded(self, *args, **kwargs):
        calls.append(signature.bind(self, *args, **kwargs).arguments)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, recorded)
    return calls


def test_ideal_pulses_reach_the_engine_with_their_planned_maps(monkeypatch):
    blocks = _recording(monkeypatch, protocol.IdealBackend, "pulse_block")
    exchanges = _recording(monkeypatch, AnalyticEngine, "apply_exchange_pulse")
    flips = _recording(monkeypatch, AnalyticEngine, "apply_flip_pulse")
    exchange_maps = _counting(monkeypatch, AnalyticEngine, "exchange_map")
    flip_maps = _counting(monkeypatch, AnalyticEngine, "flip_map")
    experiment.run_ensemble(experiment.EnsembleConfig(backend="ideal", trajectories=20, seed=7))
    drive_sets = [tuple(call["drives"]) for call in blocks]
    kinds = [kind for drives in drive_sets for _, _, kind in drives]
    assert len(flips) == kinds.count("flip") > 0
    assert len(exchanges) == len(kinds) - kinds.count("flip") > 0
    built = {id(m) for m in exchange_maps + flip_maps}
    assert all(id(call.get("pulse_map")) in built for call in exchanges + flips)
    # Each distinct drive set's plan builds one map per drive, at most.
    assert len(exchange_maps) + len(flip_maps) <= sum(map(len, set(drive_sets)))
