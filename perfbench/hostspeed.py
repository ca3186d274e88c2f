"""Host-speed probe: fixed pure-Python work timed between the benchmark's items.

The benchmark host shares its cores with other tenants, and its speed swings
by up to a factor of two within seconds and drifts over minutes; process CPU
time swings with wall time, so the cores themselves slow down.  A run cannot
average minute-long drift away, but fixed work timed right before and right
after an item slows down with it.  Dividing the item's time by the mean of the
two probe times gives its cost in probe runs, which the host's speed cancels
out of; multiplying by :data:`REFERENCE_S` turns that cost back into seconds
of a host where the probe takes its reference time ("reference seconds").

The probe has two parts, because contention slows code down by different
amounts and the protocol does both kinds of work:

* a greedy maximum-weight independent set on a small fixed graph: dict and
  set operations on a working set that stays in the core's caches;
* rounds of local-maximum elections among a few thousand vertex objects
  that tell their neighbours their weights: method calls, attribute and
  per-object dict traffic spread over megabytes.

Timed around ``learn`` items over 11 windows of 30 s, normalizing by the
first part alone left throughput following the host's speed (correlation
+0.58 with wall-clock throughput, +0.93 in an earlier record), by the
second alone +0.11 there but the reverse in later runs; the two together
had the least noise per item.  Everything the probe touches is built once,
at import, and the collector is off while it runs, so its time does not
depend on the size of the benchmark's own heap.  Nothing here imports
``repro``, so no change to the program moves the probe.
"""

from __future__ import annotations

import gc
import random
import time

#: Reference probe time in seconds: about the fastest the probe ran on the
#: host the benchmark was defined on (Intel Xeon at 2.1 GHz, Python 3.11).
#: Only a scale: changing it changes every run's reference seconds alike.
REFERENCE_S = 0.040

_GRAPH_NODES = 300
_GRAPH_EDGES = 1200
_GRAPH_ROUNDS = 50

_VERTICES = 3000
_DEGREE = 8
_ELECTIONS = 3


class _Vertex:
    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.weight = 0.0
        self.neighbors = []
        self.seen = {}
        self.decided = False

    def observe(self, other: int, weight: float) -> None:
        self.seen[other] = weight

    def is_local_maximum(self) -> bool:
        return not {other for other, weight in self.seen.items() if weight > self.weight}


def _build():
    rng = random.Random(7)
    adjacency = {node: set() for node in range(_GRAPH_NODES)}
    for _ in range(_GRAPH_EDGES):
        a, b = rng.randrange(_GRAPH_NODES), rng.randrange(_GRAPH_NODES)
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    node_weights = [
        {node: rng.random() for node in range(_GRAPH_NODES)} for _ in range(_GRAPH_ROUNDS)
    ]
    vertices = [_Vertex(ident) for ident in range(_VERTICES)]
    for vertex in vertices:
        vertex.neighbors = [vertices[rng.randrange(_VERTICES)] for _ in range(_DEGREE)]
    vertex_weights = [[rng.random() for _ in vertices] for _ in range(_ELECTIONS)]
    return adjacency, node_weights, vertices, vertex_weights


_ADJACENCY, _NODE_WEIGHTS, _VERTEX_LIST, _VERTEX_WEIGHTS = _build()


def _greedy_weights() -> float:
    total = 0.0
    for weight in _NODE_WEIGHTS:
        free = set(_ADJACENCY)
        chosen = []
        while free:
            node = max(free, key=weight.__getitem__)
            chosen.append(node)
            free.discard(node)
            free -= _ADJACENCY[node]
        total += sum(weight[node] for node in chosen)
    return total


def _elections() -> int:
    winners = 0
    for weights in _VERTEX_WEIGHTS:
        for vertex, weight in zip(_VERTEX_LIST, weights):
            vertex.weight = weight
            vertex.seen.clear()
            vertex.decided = False
        active = _VERTEX_LIST
        while active:
            for vertex in active:
                for neighbor in vertex.neighbors:
                    if not neighbor.decided:
                        neighbor.observe(vertex.ident, vertex.weight)
            elected = [vertex for vertex in active if vertex.is_local_maximum()]
            for vertex in elected:
                vertex.decided = True
                for neighbor in vertex.neighbors:
                    neighbor.decided = True
            winners += len(elected)
            active = [vertex for vertex in active if not vertex.decided]
            for vertex in active:
                vertex.seen.clear()
    return winners


def probe_s() -> float:
    """Seconds the probe's fixed work takes now."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _greedy_weights()
        _elections()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def to_reference(seconds: float, host_s: float) -> float:
    """``seconds`` measured while the probe took ``host_s``, in reference seconds."""
    return seconds / host_s * REFERENCE_S
