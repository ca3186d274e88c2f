"""Hop distances and r-hop neighbourhoods.

The robust PTAS and its distributed variant operate on r-hop neighbourhoods
``J_{G,r}(v) = {u : d_G(u, v) <= r}`` (Table I of the paper).  The helpers
here accept any adjacency-set sequence *or* a CSR-backed graph
(:class:`~repro.graph.conflict_graph.ConflictGraph`,
:class:`~repro.graph.extended.ExtendedConflictGraph`), so they are shared by
the original conflict graph ``G`` and the extended conflict graph ``H``.

Two implementations sit behind one API:

* CSR-backed graphs run a **frontier-based BFS** entirely on numpy arrays —
  each hop gathers the concatenated neighbour rows of the whole frontier in
  one shot, marks a boolean visited vector and dedupes with ``np.unique``.
  No per-vertex Python set is ever materialized on this path;
  :func:`r_hop_neighborhood_arrays` exposes the raw CSR-of-neighbourhoods
  form for bulk consumers (macro benchmarks, large-``n`` pipelines).
* Raw ``Sequence[Set[int]]`` adjacency (the live mutable structures of
  :mod:`repro.dynamics.graph`) keeps the original pure-Python traversal,
  bit for bit.

Equivalence of the two paths over every registered topology preset and
under random churn sequences is locked by
``tests/graph/test_csr_equivalence.py``.

Two more forms serve the strategy decision of Algorithm 3:

* :func:`protocol_neighborhoods` builds the per-vertex set tables of every
  radius the protocol uses, the form the per-vertex machines, the
  transports and fault runs read;
* :func:`ball_bitsets` returns whole tables of balls as Python-int
  bitmasks from one level-synchronous pass, for consumers that only count
  or intersect balls (the closed-form decision).  It is held to the BFS by
  ``tests/graph/test_ball_bitsets.py``.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from operator import or_
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph

__all__ = [
    "hop_distances",
    "hop_distance",
    "r_hop_neighborhood",
    "all_r_hop_neighborhoods",
    "r_hop_neighborhood_arrays",
    "protocol_neighborhoods",
    "ball_bitsets",
    "bitmask",
    "eccentricity",
    "graph_diameter",
]

AdjacencyLike = Union[Sequence[Set[int]], ConflictGraph, ExtendedConflictGraph]

_CSRGraph = (ConflictGraph, ExtendedConflictGraph)


def _adjacency(graph: AdjacencyLike) -> Sequence[Set[int]]:
    """Normalise the supported graph representations to adjacency sets."""
    if isinstance(graph, _CSRGraph):
        return graph.adjacency_sets()
    return graph


def _size(graph: AdjacencyLike) -> int:
    if isinstance(graph, ConflictGraph):
        return graph.num_nodes
    if isinstance(graph, ExtendedConflictGraph):
        return graph.num_vertices
    return len(graph)


def _csr_bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    source: int,
    max_hops: Optional[int] = None,
) -> np.ndarray:
    """Frontier BFS over CSR adjacency; returns the hop-distance vector.

    Unvisited vertices hold ``-1``.  The traversal stops after ``max_hops``
    levels (or when the frontier empties), so truncated searches only ever
    touch the ball they return.
    """
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    hops = 0
    while frontier.size and (max_hops is None or hops < max_hops):
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        offsets = np.cumsum(counts) - counts
        flat = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        gathered = indices[np.repeat(starts, counts) + flat]
        fresh = gathered[dist[gathered] < 0]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        hops += 1
        dist[frontier] = hops
    return dist


def hop_distances(graph: AdjacencyLike, source: int) -> Dict[int, int]:
    """Breadth-first hop distances from ``source`` to every reachable vertex.

    The source itself is at distance 0.  Unreachable vertices are omitted.
    """
    n = _size(graph)
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")
    if isinstance(graph, _CSRGraph):
        dist = _csr_bfs(*graph.csr_adjacency(), source)
        reached = np.flatnonzero(dist >= 0)
        return dict(zip(reached.tolist(), dist[reached].tolist()))
    adjacency = graph
    distances: Dict[int, int] = {source: 0}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbor in adjacency[vertex]:
            if neighbor not in distances:
                distances[neighbor] = distances[vertex] + 1
                queue.append(neighbor)
    return distances


def hop_distance(graph: AdjacencyLike, source: int, target: int) -> float:
    """Hop distance ``d(source, target)``; ``inf`` when disconnected."""
    n = _size(graph)
    if not (0 <= target < n):
        raise ValueError(f"target {target} out of range [0, {n})")
    distances = hop_distances(graph, source)
    return float(distances.get(target, float("inf")))


def r_hop_neighborhood(graph: AdjacencyLike, vertex: int, r: int) -> Set[int]:
    """The r-hop neighbourhood ``J_r(vertex)`` *including* the vertex itself.

    Matches the paper's definition ``J_{G,r}(v) = {u : d_G(u, v) <= r}``.
    A truncated breadth-first search is used so only vertices within ``r``
    hops are ever visited.
    """
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    n = _size(graph)
    if not (0 <= vertex < n):
        raise ValueError(f"vertex {vertex} out of range [0, {n})")
    if isinstance(graph, _CSRGraph):
        dist = _csr_bfs(*graph.csr_adjacency(), vertex, max_hops=r)
        return set(np.flatnonzero(dist >= 0).tolist())
    adjacency = graph
    reached: Set[int] = {vertex}
    frontier = {vertex}
    for _ in range(r):
        next_frontier: Set[int] = set()
        for current in frontier:
            for neighbor in adjacency[current]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    next_frontier.add(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
    return reached


def all_r_hop_neighborhoods(graph: AdjacencyLike, r: int) -> List[Set[int]]:
    """Return ``J_r(v)`` for every vertex ``v`` of the graph."""
    if isinstance(graph, _CSRGraph):
        return [
            r_hop_neighborhood(graph, vertex, r) for vertex in range(_size(graph))
        ]
    adjacency = _adjacency(graph)
    return [r_hop_neighborhood(adjacency, vertex, r) for vertex in range(len(adjacency))]


def r_hop_neighborhood_arrays(
    graph: Union[ConflictGraph, ExtendedConflictGraph], r: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``J_r(v)`` packed as CSR-of-neighbourhoods arrays.

    Returns ``(offsets, members)``: the (sorted) members of ``J_r(v)`` are
    ``members[offsets[v]:offsets[v + 1]]``.  This is the large-``n`` bulk
    form — no per-vertex Python set is created.  Only CSR-backed graphs are
    supported; raw adjacency-set consumers keep
    :func:`all_r_hop_neighborhoods`.
    """
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    indptr, indices = graph.csr_adjacency()
    n = len(indptr) - 1
    hoods: List[np.ndarray] = []
    sizes = np.zeros(n, dtype=np.int64)
    for vertex in range(n):
        dist = _csr_bfs(indptr, indices, vertex, max_hops=r)
        ball = np.flatnonzero(dist >= 0)
        sizes[vertex] = ball.size
        hoods.append(ball)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    members = (
        np.concatenate(hoods) if hoods else np.zeros(0, dtype=np.int64)
    )
    return offsets, members


def protocol_neighborhoods(
    adjacency: Sequence[Set[int]],
    r: int,
    known: Optional[Mapping[int, List[Set[int]]]] = None,
) -> Dict[int, List[Set[int]]]:
    """Per-vertex ``J_k(v)`` set tables for every radius Algorithm 3 reads.

    The radii are ``r`` (local MWIS), ``r + 1`` (Loser ball), ``2r + 1``
    (knowledge and elections) and ``3r + 2`` (determination broadcast; see
    :mod:`repro.distributed.ptas`).  Tables already in ``known`` are reused
    by reference; the others are built with :func:`r_hop_neighborhood`,
    whose set iteration order the protocol's records inherit.
    """
    known = known or {}
    tables: Dict[int, List[Set[int]]] = {}
    for hops in (r, r + 1, 2 * r + 1, 3 * r + 2):
        if hops in known:
            tables[hops] = known[hops]
        else:
            tables[hops] = [
                r_hop_neighborhood(adjacency, vertex, hops)
                for vertex in range(len(adjacency))
            ]
    return tables


def ball_bitsets(graph: AdjacencyLike, radii: Iterable[int]) -> Dict[int, List[int]]:
    """Every ``J_k(v)`` for each ``k`` in ``radii``, as Python-int bitmasks.

    Bit ``u`` of ``balls[k][v]`` is set iff ``d(u, v) <= k``.  One
    level-synchronous pass builds them all: level ``k + 1`` ORs each
    vertex's level-``k`` mask with its neighbours' masks, since
    ``J_{k+1}(v)`` is the union of ``J_k(u)`` over ``u`` in ``J_1(v)``.  The
    cost is ``max(radii)`` sweeps of big-int ORs over the edge list; no set
    is built.  The pass stops early once a level adds no bit, every ball
    then being its connected component.  Each radius gets its own list.
    """
    wanted = sorted(set(radii))
    if wanted and wanted[0] < 0:
        raise ValueError(f"radii must be non-negative, got {wanted[0]}")
    adjacency = _adjacency(graph)
    level = [1 << vertex for vertex in range(len(adjacency))]
    hops = 0
    stable = False
    balls: Dict[int, List[int]] = {}
    for target in wanted:
        while hops < target and not stable:
            grown = [
                reduce(or_, map(level.__getitem__, neighbors), level[vertex])
                for vertex, neighbors in enumerate(adjacency)
            ]
            stable = grown == level
            level = grown
            hops += 1
        # Past a stable level, the radii would otherwise share one list.
        balls[target] = level if hops == target else list(level)
    return balls


def bitmask(members: Iterable[int]) -> int:
    """The bitmask of a vertex set: bit ``u`` set iff ``u`` is a member."""
    mask = 0
    for member in members:
        mask |= 1 << member
    return mask


def eccentricity(graph: AdjacencyLike, vertex: int) -> float:
    """Maximum hop distance from ``vertex`` to any reachable vertex.

    Returns ``inf`` when some vertex of the graph is unreachable.
    """
    distances = hop_distances(graph, vertex)
    if len(distances) < _size(graph):
        return float("inf")
    return float(max(distances.values(), default=0))


def graph_diameter(graph: AdjacencyLike) -> float:
    """Diameter (maximum eccentricity); ``inf`` for disconnected graphs."""
    n = _size(graph)
    if not n:
        return 0.0
    return max(eccentricity(graph, vertex) for vertex in range(n))
