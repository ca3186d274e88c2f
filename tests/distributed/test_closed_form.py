"""Differential test: the closed-form engine against the vertex machines.

:class:`DistributedRobustPTAS` without a transport runs
:class:`~repro.distributed.closed_form.ClosedFormEngine`; with a
:class:`SimulatedTransport` it runs the per-vertex
:class:`~repro.distributed.runtime.VertexProtocol` machines, the oracle.
Every field of the result must agree, and so must what ``==`` cannot see:
the iteration order of every frozenset, the ``repr`` of every float, and
the spans and counters a tracing observer records.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import DistributedRobustPTAS, SimulatedTransport
from repro.dynamics import DynamicStrategyEngine, poisson_churn_schedule
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.topology import connected_random_network, random_network
from repro.obs import TracingObserver, use_observer

WEIGHT_KINDS = ("random", "tied", "zero")


def random_instance(seed, kind):
    """A seeded extended conflict graph and a weight vector of ``kind``."""
    rng = np.random.default_rng(seed)
    num_nodes = int(rng.integers(4, 12))
    num_channels = int(rng.integers(1, 4))
    if seed % 3 == 0:
        # Possibly disconnected: isolated vertices are their own leaders.
        graph = random_network(num_nodes, num_channels, rng=rng)
    else:
        graph = connected_random_network(num_nodes, num_channels, rng=rng)
    adjacency = ExtendedConflictGraph(graph).adjacency_sets()
    size = len(adjacency)
    if kind == "random":
        weights = rng.uniform(0.0, 10.0, size=size)
    elif kind == "tied":
        weights = rng.choice([0.0, 0.5, 1.0], size=size)
    else:
        weights = np.zeros(size)
    return adjacency, weights, rng


def traced(run):
    """``run()`` under a tracing observer: result, spans and counters."""
    observer = TracingObserver()
    with use_observer(observer):
        result = run()
    spans = [(s.span_id, s.parent_id, s.name, s.attrs) for s in observer.spans()]
    return result, spans, observer.metrics.snapshot()["counters"]


def fingerprint(result):
    """The orders and float reprs that ``ProtocolResult.__eq__`` ignores."""
    return (
        list(result.independent_set.vertices),
        repr(result.independent_set.weight),
        [
            (
                list(record.leaders),
                list(record.new_winners),
                list(record.new_losers),
                repr(record.cumulative_weight),
            )
            for record in result.mini_rounds
        ],
        list(result.costs.communication.mini_timeslots_per_phase.items()),
    )


def assert_engines_agree(closed, weights, broadcasters=None):
    """Run ``closed`` and the oracle over the same tables; compare all."""
    assert closed.transport is None
    adjacency = closed._adjacency
    hoods = closed.transport_neighborhoods()
    oracle = DistributedRobustPTAS(
        adjacency,
        r=closed.r,
        max_mini_rounds=closed._max_mini_rounds,
        local_solver=closed._local_solver,
        precomputed_neighborhoods=hoods,
        transport=SimulatedTransport(adjacency, precomputed_neighborhoods=hoods),
    )
    got = traced(lambda: closed.run(weights, broadcasting_vertices=broadcasters))
    want = traced(lambda: oracle.run(weights, broadcasting_vertices=broadcasters))
    got_result, got_spans, got_counters = got
    want_result, want_spans, want_counters = want
    assert got_result == want_result
    assert fingerprint(got_result) == fingerprint(want_result)
    assert got_result.converged == want_result.converged
    assert got_result.independent == want_result.independent
    assert got_spans == want_spans
    assert got_counters == want_counters
    return got_result


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_closed_form_matches_the_vertex_machines(seed, r, kind):
    adjacency, weights, rng = random_instance(seed, kind)
    size = len(adjacency)
    partial = sorted(
        int(v) for v in rng.choice(size, size=max(1, size // 3), replace=False)
    )
    for budget in (None, 1, 2, 3):
        closed = DistributedRobustPTAS(adjacency, r=r, max_mini_rounds=budget)
        for broadcasters in (None, partial, []):
            assert_engines_agree(closed, weights, broadcasters)


def test_closed_form_matches_across_a_churn_sequence():
    # Dynamics maintains the neighbourhood lists in place between events;
    # the closed form reads them live, exactly as the machines do.
    rng = np.random.default_rng(7)
    graph = connected_random_network(10, 2, rng=rng)
    engine = DynamicStrategyEngine(graph, r=1)
    schedule = poisson_churn_schedule(graph, num_rounds=8, rate=1.5, rng=rng)
    previous = None
    runs = 0
    for round_index in range(1, schedule.max_round + 1):
        events = schedule.events_for_round(round_index)
        if events:
            engine.apply_events(events)
            previous = None
        weights = rng.uniform(0.0, 1.0, size=engine.extended.num_vertices)
        result = assert_engines_agree(engine.protocol, weights, previous)
        previous = set(result.independent_set.vertices)
        runs += 1
    assert engine.num_events_applied > 0
    assert runs == schedule.max_round


def test_out_of_range_broadcaster_is_rejected_by_both_engines():
    adjacency, weights, _ = random_instance(1, "random")
    closed = DistributedRobustPTAS(adjacency, r=1)
    oracle = DistributedRobustPTAS(
        adjacency, r=1, transport=SimulatedTransport(adjacency)
    )
    messages = []
    for protocol in (closed, oracle):
        with pytest.raises(ValueError, match="out of range") as caught:
            protocol.run(weights, broadcasting_vertices=[0, len(adjacency)])
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
