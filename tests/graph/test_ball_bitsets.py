"""Bitmask balls against the set-based BFS they replace in the closed form.

:func:`repro.graph.neighborhoods.ball_bitsets` builds every ``J_k(v)`` as a
Python-int bitmask in one level-synchronous pass.  The closed-form decision
reads its (2r+1)- and (3r+2)-balls in that form, so it must agree with
:func:`r_hop_neighborhood` for every vertex and every radius ``0..3r+2``:
on seeded random graphs (disconnected ones, isolated vertices, the empty
graph) and on the extended graph of every registered topology preset.  The
set tables handed to transports keep the BFS build and its iteration order,
and the bitmask view that dynamics keeps stays current after every event.
"""

from __future__ import annotations

from typing import List, Set

import numpy as np
import pytest

from repro.distributed import DistributedRobustPTAS
from repro.dynamics import (
    DynamicStrategyEngine,
    poisson_churn_schedule,
    random_waypoint_schedule,
)
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.neighborhoods import (
    ball_bitsets,
    bitmask,
    protocol_neighborhoods,
    r_hop_neighborhood,
)
from repro.graph.topology import connected_random_network
from repro.spec.registry import get_scenario, list_scenarios

#: Every radius the protocol reads for r in {1, 2, 3}: 0..3r+2.
RADII = range(0, 3 * 3 + 3)


def random_adjacency(seed: int) -> List[Set[int]]:
    """A seeded random graph; sparse draws leave it disconnected with
    isolated vertices, and seed 0 gives the empty graph."""
    rng = np.random.default_rng(seed)
    n = 0 if seed == 0 else int(rng.integers(1, 40))
    p = float(rng.choice([0.0, 0.03, 0.1, 0.3]))
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adjacency[u].add(v)
                adjacency[v].add(u)
    return adjacency


def assert_balls_match_bfs(adjacency, radii=RADII) -> None:
    balls = ball_bitsets(adjacency, radii)
    assert sorted(balls) == sorted(set(radii))
    for hops, masks in balls.items():
        assert len(masks) == len(adjacency)
        for vertex, mask in enumerate(masks):
            assert mask == bitmask(r_hop_neighborhood(adjacency, vertex, hops)), (
                f"J_{hops}({vertex}) differs"
            )


@pytest.mark.parametrize("seed", range(12))
def test_ball_bitsets_match_bfs_on_random_graphs(seed):
    assert_balls_match_bfs(random_adjacency(seed))


def test_ball_bitsets_of_the_empty_graph():
    assert ball_bitsets([], RADII) == {hops: [] for hops in RADII}


@pytest.mark.parametrize("preset", list_scenarios())
def test_ball_bitsets_match_bfs_on_every_preset(preset):
    topology = get_scenario(preset).topology
    if topology.num_nodes > 15:
        topology = topology.with_size(15, topology.num_channels)
    graph = topology.build(np.random.default_rng(3))
    assert_balls_match_bfs(ExtendedConflictGraph(graph).adjacency_sets())


def test_ball_bitsets_accept_csr_graphs():
    graph = connected_random_network(12, 3, rng=np.random.default_rng(5))
    extended = ExtendedConflictGraph(graph)
    assert ball_bitsets(extended, RADII) == ball_bitsets(
        extended.adjacency_sets(), RADII
    )
    assert ball_bitsets(graph, (2,)) == ball_bitsets(graph.adjacency_sets(), (2,))


def test_every_radius_gets_its_own_list():
    # A path of three vertices is stable after two levels; the radii past
    # that level must still be separate lists (dynamics patches them).
    path = [{1}, {0, 2}, {1}]
    balls = ball_bitsets(path, (8, 5, 2, 5))
    assert sorted(balls) == [2, 5, 8]
    assert balls[2] == balls[5] == balls[8] == [0b111] * 3
    assert len({id(masks) for masks in balls.values()}) == 3


def test_negative_radius_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        ball_bitsets([{1}, {0}], (2, -1))


def test_bitmask_sets_one_bit_per_member():
    assert bitmask([]) == 0
    assert bitmask({0, 3, 64}) == (1 << 0) | (1 << 3) | (1 << 64)


def test_protocol_neighborhoods_are_the_bfs_tables():
    adjacency = random_adjacency(4)
    known = {2: [r_hop_neighborhood(adjacency, v, 2) for v in range(len(adjacency))]}
    tables = protocol_neighborhoods(adjacency, 2, known=known)
    assert tuple(tables) == (2, 3, 5, 8)
    assert tables[2] is known[2]
    for hops, hoods in tables.items():
        assert hoods == [
            r_hop_neighborhood(adjacency, v, hops) for v in range(len(adjacency))
        ]


def iteration_orders(tables):
    return {hops: [list(hood) for hood in hoods] for hops, hoods in tables.items()}


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 5, 9])
def test_transport_neighborhoods_match_a_fresh_build(seed, r):
    adjacency = random_adjacency(seed)
    protocol = DistributedRobustPTAS(adjacency, r=r)
    fresh = protocol_neighborhoods(adjacency, r)
    tables = protocol.transport_neighborhoods()
    assert tables == fresh
    assert iteration_orders(tables) == iteration_orders(fresh)
    # Built once, then shared.
    again = protocol.transport_neighborhoods()
    assert all(again[hops] is tables[hops] for hops in tables)


def test_precomputed_tables_need_only_the_engines_radii():
    adjacency = random_adjacency(5)
    tables = protocol_neighborhoods(adjacency, 1)
    closed_form = {hops: tables[hops] for hops in (1, 3, 5)}
    DistributedRobustPTAS(adjacency, r=1, precomputed_neighborhoods=closed_form)
    with pytest.raises(ValueError, match=r"missing radii \[5\]"):
        DistributedRobustPTAS(
            adjacency,
            r=1,
            precomputed_neighborhoods={hops: tables[hops] for hops in (1, 2, 3)},
        )


@pytest.mark.parametrize("kind", ["churn", "mobility"])
def test_dynamics_keeps_the_bitmask_view_current(kind):
    rng = np.random.default_rng(11)
    graph = connected_random_network(12, 2, rng=rng)
    engine = DynamicStrategyEngine(graph, r=1)
    if kind == "churn":
        schedule = poisson_churn_schedule(graph, num_rounds=10, rate=1.5, rng=rng)
    else:
        schedule = random_waypoint_schedule(
            graph, num_rounds=10, speed=0.3, step_every=1, rng=rng
        )
    changed = 0
    for round_index in range(1, schedule.max_round + 1):
        events = schedule.events_for_round(round_index)
        if not events:
            continue
        changed += engine.apply_events(events).changed_topology
        adjacency = engine.extended.adjacency
        assert engine.protocol._balls == ball_bitsets(adjacency, (3, 5))
        # The tables handed to transports follow the live topology too,
        # including the (r+1)-ball dynamics no longer maintains.
        assert engine.protocol.transport_neighborhoods() == protocol_neighborhoods(
            adjacency, 1
        )
    assert changed > 0
