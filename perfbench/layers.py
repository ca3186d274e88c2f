"""Run-time wrappers that attribute wall time to the layers of ``repro``.

Nothing here edits the package: :meth:`LayerTracer.install` replaces each
traced function or method with a timing wrapper *where callers look it up*
(every ``repro.*`` module attribute bound to a traced function, or the class
attribute for a method) and :meth:`LayerTracer.uninstall` puts the originals
back.  A layer's self time is the wrapper's duration minus the time of the
wrapped calls nested inside it, so the self times of all layers add up to the
time spent inside the outermost wrappers; the rest of a cycle is reported as
``unattributed_s``.

The same wrappers serve the sensitivity self-test: ``delays`` adds a fixed
sleep to every call of the named layers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layers whose calls are protocol, simulation or graph work; a warm replay
#: from the store must make none of these calls.
COMPUTE_LAYERS = (
    "graph.topology",
    "graph.extended",
    "graph.neighborhoods",
    "distributed.ptas_init",
    "distributed.decide",
    "mwis.local",
    "mwis.exact",
    "core.select",
    "core.observe",
    "channels.sample",
    "sim.loop",
    "dynamics.apply",
    "faults.engine",
)


def _after_decide(tracer: "LayerTracer", args, result) -> None:
    comm = result.costs.communication
    tracer.counts["distributed.decisions"] += 1
    tracer.counts["distributed.mini_rounds"] += result.num_mini_rounds
    tracer.counts["distributed.messages"] += comm.total_messages
    tracer.counts["distributed.deliveries"] += comm.total_deliveries
    # Every workload decides over a lossless simulated transport, where the
    # winners must form an independent set of H.
    if not result.independent:
        tracer.violations.append("a lossless decision reported independent=False")


def _after_put(tracer: "LayerTracer", args, result) -> None:
    tracer.counts["sweep.store_puts"] += 1
    tracer.counts["sweep.store_bytes_written"] += result.stat().st_size


def _after_load(tracer: "LayerTracer", args, result) -> None:
    store, key_hash = args[0], args[1]
    tracer.counts["sweep.store_loads"] += 1
    if result is not None:
        tracer.counts["sweep.store_hits"] += 1
        tracer.counts["sweep.store_bytes_read"] += store.path_for(key_hash).stat().st_size


def _after_lookup(tracer: "LayerTracer", args, result) -> None:
    tracer.counts["sweep.store_lookups"] += 1


def _after_events(tracer: "LayerTracer", args, result) -> None:
    tracer.counts["dynamics.events"] += result.num_events


def targets() -> List[Tuple[str, object, str, Optional[Callable]]]:
    """``(layer, owner, attribute, after_hook)`` for every traced call.

    ``owner`` is a module (the function is re-bound in every ``repro``
    module that imported it) or a class (the method is replaced on it).
    """
    from repro.channels.state import ChannelState
    from repro.core.policies import CombinatorialUCBPolicy, LLRPolicy
    from repro.distributed.ptas import DistributedRobustPTAS
    from repro.dynamics.engine import DynamicStrategyEngine
    from repro.faults.runtime import FaultInjectionEngine
    from repro.graph import neighborhoods, topology
    from repro.graph.extended import ExtendedConflictGraph
    from repro.mwis import local
    from repro.mwis.exact import ExactMWISSolver
    from repro.sim.dynamic import DynamicSimulator
    from repro.sim.engine import Simulator
    from repro.sim.periodic import PeriodicSimulator
    from repro.spec.runner import ExperimentResult
    from repro.sweep import engine
    from repro.sweep.store import ResultStore

    return [
        ("graph.topology", topology, "random_network", None),
        ("graph.topology", topology, "connected_random_network", None),
        ("graph.extended", ExtendedConflictGraph, "__init__", None),
        ("graph.extended", ExtendedConflictGraph, "adjacency_sets", None),
        ("graph.neighborhoods", neighborhoods, "r_hop_neighborhood", None),
        ("distributed.ptas_init", DistributedRobustPTAS, "__init__", None),
        ("distributed.decide", DistributedRobustPTAS, "run", _after_decide),
        ("mwis.local", local, "solve_local_mwis", None),
        ("mwis.exact", ExactMWISSolver, "solve", None),
        ("core.select", CombinatorialUCBPolicy, "select_strategy", None),
        ("core.select", LLRPolicy, "select_strategy", None),
        ("core.observe", CombinatorialUCBPolicy, "observe_arms", None),
        ("core.observe", LLRPolicy, "observe_arms", None),
        ("channels.sample", ChannelState, "sample_arm_array", None),
        ("sim.loop", Simulator, "run", None),
        ("sim.loop", PeriodicSimulator, "run", None),
        ("sim.loop", DynamicSimulator, "run", None),
        ("dynamics.apply", DynamicStrategyEngine, "apply_events", _after_events),
        ("faults.engine", FaultInjectionEngine, "run", None),
        ("sweep.plan", engine, "plan_units", None),
        ("sweep.store_put", ResultStore, "put", _after_put),
        ("sweep.store_load", ResultStore, "load", _after_load),
        ("sweep.store_lookup", ResultStore, "__contains__", _after_lookup),
        ("sweep.assemble", engine, "assemble_point", None),
        ("spec.envelope", ExperimentResult, "to_dict", None),
        ("spec.envelope", ExperimentResult, "from_dict", None),
    ]


class LayerTracer:
    """Self-time and call accounting for the layers named by :func:`targets`.

    ``delays`` maps a layer to seconds of sleep added after every call of it
    (the sensitivity self-test); it may be changed between calls.
    """

    def __init__(self) -> None:
        self.delays: Dict[str, float] = {}
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.violations: List[str] = []
        self._stack: List[float] = []
        self._paused = False
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every accumulator (between measured cycles)."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def pause(self) -> None:
        """Stop accounting (the harness's own correctness checks)."""
        self._paused = True

    def resume(self) -> None:
        """Resume accounting after :meth:`pause`."""
        self._paused = False

    def attributed_s(self) -> float:
        """Seconds spent inside any wrapper (the sum of all self times)."""
        return sum(self.self_s.values())

    def wrapper_calls(self) -> int:
        """Wrapper invocations since the last :meth:`reset`."""
        return sum(self.calls.values())

    def _wrap(self, layer: str, fn: Callable, after: Optional[Callable]) -> Callable:
        tracer = self
        stack = self._stack
        delays = self.delays
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
                if delays.get(layer):
                    time.sleep(delays[layer])
            finally:
                elapsed = clock() - started
                nested = stack.pop()
                tracer.self_s[layer] += elapsed - nested
                tracer.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every target; idempotent per tracer."""
        if self._undo:
            return
        for layer, owner, name, after in targets():
            if isinstance(owner, type):
                raw = owner.__dict__[name]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(layer, raw.__func__, after))
                else:
                    patched = self._wrap(layer, raw, after)
                self._undo.append((owner, name, raw))
                setattr(owner, name, patched)
                continue
            original = getattr(owner, name)
            patched = self._wrap(layer, original, after)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if not (module_name == "repro" or module_name.startswith("repro.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, patched)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def wrapper_cost_s(iterations: int = 20000) -> float:
    """Measured cost of one wrapped call over a plain call, in seconds."""
    tracer = LayerTracer()

    def plain():
        return None

    wrapped = tracer._wrap("calibration", plain, None)
    started = time.perf_counter()
    for _ in range(iterations):
        plain()
    bare = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(iterations):
        wrapped()
    return max(0.0, (time.perf_counter() - started - bare) / iterations)


def span_cost_s(iterations: int = 20000) -> float:
    """Measured cost of one recorded :class:`TracingObserver` span, in seconds."""
    from repro.obs.trace import TracingObserver

    observer = TracingObserver()
    started = time.perf_counter()
    for _ in range(iterations):
        with observer.span("calibration"):
            pass
    return (time.perf_counter() - started) / iterations
