"""The benchmark's workloads and the checks that every operation must pass.

A workload is a list of *items* (single-point sweep plans) plus the plans
replayed warm from a store.  The first pass (:meth:`Runner.fill`) computes
every item cold into the store that is replayed warm for the rest of the
run; each later *cycle* computes every item cold into a fresh
:class:`~repro.sweep.store.ResultStore`, in an order drawn from the run's
seed, and follows each item with :data:`WARM_PER_ITEM` warm replays of the
workload's plans.  All work goes through the public ``run_sweep`` API on
the serial backend.  Outside traced runs every cold item is bracketed by the
host-speed probe of ``hostspeed.py``, which turns its time into reference
seconds.

Every operation is checked: it must not raise, every envelope must survive
an ``ExperimentResult.from_dict`` round-trip, its digest (wall-clock fields
removed) must equal the one recorded in ``reference.json``, and a warm
replay must hit the store for every unit and return the cold envelope
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed
from layers import COMPUTE_LAYERS
from repro.spec.registry import get_scenario
from repro.spec.runner import ExperimentResult
from repro.sweep.engine import plan_units, run_sweep
from repro.sweep.plan import SweepPlan
from repro.sweep.presets import get_plan
from repro.sweep.store import ResultStore

WORKLOADS = ("decide", "learn", "sweep")

#: Warm replays of the workload's plans after every cold item of a cycle.
WARM_PER_ITEM = 5

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Item:
    """One cold operation: a single-point plan and the work it completes."""

    key: str
    plan: SweepPlan
    work: int


@dataclass(frozen=True)
class Workload:
    """Items computed cold, plans replayed warm, and what a work item is."""

    name: str
    work_unit: str
    items: Tuple[Item, ...]
    replay: Tuple[SweepPlan, ...]

    @property
    def replay_units(self) -> int:
        """Units one warm replay of every plan reads from the store."""
        return sum(
            len({unit.hash for point in plan.points() for unit in plan_units(point)})
            for plan in self.replay
        )


def _simulated_slots(spec) -> int:
    """Slots one run of a learning scenario simulates, over all policies."""
    schedule = spec.schedule
    if schedule.mode == "per-round":
        per_policy = schedule.num_rounds
    else:
        per_policy = sum(schedule.periods) * schedule.num_periods
    return per_policy * len(spec.policies) * spec.replication.replications


def _point_items(plan: SweepPlan, work_of) -> List[Item]:
    return [
        Item(
            key=f"{plan.name}[{point.index}]",
            plan=SweepPlan(name=f"{plan.name}[{point.index}]", base=point.spec),
            work=work_of(point),
        )
        for point in plan.points()
    ]


def build(name: str) -> Workload:
    """Resolve a workload's specs and plans (the part of set-up it times)."""
    if name == "decide":
        # fig6-paper's {50,100,200} users x {5,10} channels, r=2, one
        # decision per network; a work item is a vertex of H.
        plan = get_plan("fig6-paper-sweep")
        items = _point_items(
            plan,
            lambda point: point.spec.topology.num_nodes
            * point.spec.topology.num_channels,
        )
        return Workload(name, "vertices", tuple(items), (plan,))
    if name == "learn":
        # Per-round (fig7) and periodic (fig8) learning with Algorithm 2 and
        # LLR on small fixed graphs; a work item is a simulated slot.  Each
        # policy and update period runs as its own item (the runner gives
        # every policy and period its own seed stream, so the split computes
        # the presets' traces), which keeps items under a second: the cost
        # of each shows on its own line and a deadline never waits long.
        items = []
        for scenario in ("fig7-quick", "fig8-quick"):
            spec = get_scenario(scenario)
            periodic = spec.schedule.mode == "periodic"
            periods = spec.schedule.periods if periodic else (None,)
            for policy in spec.policies:
                for period in periods:
                    part = replace(spec, policies=(policy,))
                    label = f"{scenario}:{policy.display_label}"
                    if periodic:
                        part = replace(part, schedule=replace(spec.schedule, periods=(period,)))
                        label += f",y={period}"
                    plan = SweepPlan(name=label, base=part)
                    items.append(Item(f"{label}[0]", plan, _simulated_slots(part)))
        return Workload(name, "slots", tuple(items), tuple(item.plan for item in items))
    if name == "sweep":
        # The built-in fault and churn studies; a work item is a unit.
        plans = [get_plan("byzantine-sweep"), get_plan("churn-rate-sweep")]
        items = [
            item
            for plan in plans
            for item in _point_items(
                plan, lambda point: len(plan_units(point))
            )
        ]
        return Workload(name, "units", tuple(items), tuple(plans))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def canonical(data) -> str:
    """Canonical JSON text of an envelope (NaN-safe equality)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _strip_wall_clocks(data):
    if isinstance(data, dict):
        return {
            key: _strip_wall_clocks(value)
            for key, value in data.items()
            if not key.endswith("wall_clock_s")
        }
    if isinstance(data, list):
        return [_strip_wall_clocks(value) for value in data]
    return data


def digest(envelope: Dict[str, object]) -> str:
    """SHA-256 of an envelope without its wall-clock fields."""
    return hashlib.sha256(
        canonical(_strip_wall_clocks(envelope)).encode("utf-8")
    ).hexdigest()


def load_reference() -> Dict[str, Dict[str, Dict[str, object]]]:
    """The recorded digests and exact counts, keyed by workload."""
    return json.loads(REFERENCE_PATH.read_text())


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Timings and outcomes of every operation a run attempted."""

    item_s: Dict[str, List[float]] = field(default_factory=dict)
    warm_s: List[float] = field(default_factory=list)
    #: The same times in reference seconds (see ``hostspeed.py``).
    item_ref_s: Dict[str, List[float]] = field(default_factory=dict)
    warm_ref_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    check_s: float = 0.0
    #: Protocol, simulation or graph calls made during warm replays.
    warm_compute_calls: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def work_per_s(self, workload: Workload) -> float:
        """Work items per wall-clock second of one cycle at each item's mean time."""
        seconds = sum(statistics.fmean(self.item_s[item.key]) for item in workload.items)
        return sum(item.work for item in workload.items) / seconds

    def work_per_ref_s(self, workload: Workload) -> float:
        """Work items per reference second of one cycle at each item's median.

        The host's speed drifts by more than the bound over minutes, which
        no run length averages away; reference seconds cancel it (see
        ``hostspeed.py`` and README.md).
        """
        seconds = sum(statistics.median(self.item_ref_s[item.key]) for item in workload.items)
        return sum(item.work for item in workload.items) / seconds

    def warm_units_per_ref_s(self, workload: Workload) -> float:
        """Units per reference second of the median warm replay."""
        return workload.replay_units / statistics.median(self.warm_ref_s)


class Runner:
    """Runs cycles of one workload and checks every operation."""

    def __init__(
        self,
        workload: Workload,
        scratch: Path,
        digests: Optional[Dict[str, str]],
        tracer=None,
    ) -> None:
        self.workload = workload
        self.scratch = scratch
        self.digests = digests
        self.tracer = tracer
        #: Traced runs report layer times, not reference seconds: no probe.
        self.probe = tracer is None
        #: The latest host-speed probe time.
        self.host_s = hostspeed.REFERENCE_S
        self.tally = Tally()
        self.cold: Dict[str, str] = {}
        self.warm_store: Optional[ResultStore] = None
        self.seen_digests: Dict[str, str] = {}

    def _check(self, plan: SweepPlan, sweep, key: Optional[str]) -> List[str]:
        warm = key is None
        problems = []
        units = {unit.hash for point in plan.points() for unit in plan_units(point)}
        if warm and (sweep.computed_units or sweep.cached_units != len(units)):
            problems.append(
                f"{plan.name}: warm replay computed {sweep.computed_units} of "
                f"{len(units)} unit(s) instead of reading them from the store"
            )
        if not warm and sweep.computed_units != len(units):
            problems.append(f"{plan.name}: a fresh store served cached units")
        for outcome in sweep.outcomes:
            name = key if key is not None else f"{plan.name}[{outcome.point.index}]"
            envelope = outcome.result.to_dict()
            text = canonical(envelope)
            if warm:
                if text != self.cold.get(name):
                    problems.append(f"{name}: warm envelope differs from the cold one")
                continue
            # The first cold envelope of a key is the one the store replays.
            self.cold.setdefault(name, text)
            self.seen_digests[name] = digest(envelope)
            reloaded = ExperimentResult.from_dict(json.loads(json.dumps(envelope)))
            if canonical(reloaded.to_dict()) != text:
                problems.append(f"{name}: envelope does not survive from_dict")
            if self.digests is not None and self.seen_digests[name] != self.digests.get(name):
                problems.append(f"{name}: envelope digest differs from reference.json")
        return problems

    def operation(
        self, plans, store: ResultStore, key: Optional[str] = None
    ) -> Optional[float]:
        """Run and time one operation; returns its seconds, or None if failed.

        A cold operation computes one item (``key``); a warm one (``key`` is
        None) replays every plan of the workload.
        """
        self.tally.attempted += 1
        try:
            started = time.perf_counter()
            sweeps = [run_sweep(plan, store=store, backend="serial") for plan in plans]
            elapsed = time.perf_counter() - started
            started = time.perf_counter()
            if self.tracer is not None:
                self.tracer.pause()
            try:
                problems = [
                    problem
                    for plan, sweep in zip(plans, sweeps)
                    for problem in self._check(plan, sweep, key)
                ]
            finally:
                if self.tracer is not None:
                    self.tracer.resume()
                self.tally.check_s += time.perf_counter() - started
        except Exception as err:  # any raise is a failed operation
            self.tally.fail(f"{plans[0].name}: raised {type(err).__name__}: {err}")
            return None
        if problems:
            self.tally.fail("; ".join(problems))
            return None
        return elapsed

    def _compute_calls(self) -> int:
        if self.tracer is None:
            return 0
        return sum(self.tracer.calls[layer] for layer in COMPUTE_LAYERS)

    def _probe(self) -> None:
        if self.probe:
            self.host_s = hostspeed.probe_s()

    def _cold(self, item: Item, store: ResultStore) -> None:
        """Compute one item, scaled by the host-speed probes around it.

        The probe before it is the one after the previous item (or the one
        that starts the pass); the probe after it also scales the warm
        replays that follow.
        """
        before = self.host_s
        elapsed = self.operation([item.plan], store, item.key)
        self._probe()
        if elapsed is None:
            return
        self.tally.item_s.setdefault(item.key, []).append(elapsed)
        if self.probe:
            self.tally.item_ref_s.setdefault(item.key, []).append(
                hostspeed.to_reference(elapsed, (before + self.host_s) / 2)
            )

    def fill(self, order: List[Item]) -> None:
        """First cycle: compute every item cold into the store replayed warm."""
        self.warm_store = ResultStore(tempfile.mkdtemp(prefix="warm-", dir=self.scratch))
        self._probe()
        for item in order:
            self._cold(item, self.warm_store)

    def cycle(self, order: List[Item], deadline: Optional[float] = None) -> bool:
        """Compute ``order`` cold into a fresh store, each item followed by
        :data:`WARM_PER_ITEM` warm replays from the filled store; False if
        the ``deadline`` passed before every item had started.

        Interleaving spreads the short warm replays over the whole run, and
        keeps each one close to the probe that scales it.
        """
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        try:
            store = ResultStore(root)
            self._probe()
            for item in order:
                if deadline is not None and time.perf_counter() >= deadline:
                    return False
                self._cold(item, store)
                compute_calls = self._compute_calls()
                for _ in range(WARM_PER_ITEM):
                    elapsed = self.operation(list(self.workload.replay), self.warm_store)
                    if elapsed is not None:
                        self.tally.warm_s.append(elapsed)
                        if self.probe:
                            self.tally.warm_ref_s.append(
                                hostspeed.to_reference(elapsed, self.host_s)
                            )
                self.tally.warm_compute_calls += self._compute_calls() - compute_calls
            return True
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def warm_up(self) -> None:
        """Run the smallest item once, untimed, so lazy set-up is done."""
        smallest = min(self.workload.items, key=lambda item: item.work)
        root = Path(tempfile.mkdtemp(prefix="warmup-", dir=self.scratch))
        try:
            run_sweep(smallest.plan, store=ResultStore(root), backend="serial")
        finally:
            shutil.rmtree(root, ignore_errors=True)
