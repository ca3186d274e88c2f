"""Local MWIS over a candidate vertex subset.

Algorithm 3 line 8 of the paper has every LocalLeader "compute a local
MWIS(A_r(v)) using enumeration" where ``A_r(v)`` is the set of Candidate
vertices within its r-hop neighbourhood.  :func:`solve_local_mwis` performs
that computation: it restricts the graph to the candidate set and solves the
induced instance exactly, returning vertices in the *original* ids.

The same helper is used by the centralized robust PTAS to evaluate
``MWIS(J_r(v))`` for growing ``r``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Set, Union

from repro.mwis.base import Adjacency, IndependentSet, MWISSolver
from repro.mwis.exact import ExactMWISSolver

__all__ = ["solve_local_mwis", "induced_subgraph"]


def induced_subgraph(
    adjacency: Adjacency, vertices: Iterable[int]
) -> "tuple[List[Set[int]], List[int]]":
    """Return the induced subgraph over ``vertices`` and the local->global map.

    The result is ``(local_adjacency, local_to_global)`` where vertex ``i`` of
    the local graph corresponds to ``local_to_global[i]`` in the original one.
    """
    local_to_global = sorted(set(vertices))
    for vertex in local_to_global:
        if not (0 <= vertex < len(adjacency)):
            raise ValueError(f"vertex {vertex} out of range [0, {len(adjacency)})")
    global_to_local: Dict[int, int] = {
        vertex: index for index, vertex in enumerate(local_to_global)
    }
    local_adjacency: List[Set[int]] = [set() for _ in local_to_global]
    for local_index, vertex in enumerate(local_to_global):
        for neighbor in adjacency[vertex]:
            local_neighbor = global_to_local.get(neighbor)
            if local_neighbor is not None:
                local_adjacency[local_index].add(local_neighbor)
    return local_adjacency, local_to_global


def solve_local_mwis(
    adjacency: Adjacency,
    weights: Union[Sequence[float], Mapping[int, float]],
    candidates: Iterable[int],
    solver: MWISSolver = None,
) -> IndependentSet:
    """Exactly solve MWIS restricted to ``candidates``.

    Parameters
    ----------
    adjacency, weights:
        The full graph, and its weights indexed by vertex id: a flat vector
        or a mapping that covers at least ``candidates``.
    candidates:
        The vertex subset (e.g. ``A_r(v)``) the solution must be drawn from.
    solver:
        Optional solver used on the induced instance; defaults to the exact
        branch-and-bound solver, matching the paper's enumeration.
    """
    candidate_list = sorted(set(candidates))
    if not candidate_list:
        return IndependentSet(vertices=frozenset(), weight=0.0)
    local_adjacency, local_to_global = induced_subgraph(adjacency, candidate_list)
    local_weights = [float(weights[vertex]) for vertex in local_to_global]
    solver = solver if solver is not None else ExactMWISSolver()
    local_solution = solver.solve(local_adjacency, local_weights)
    global_vertices = {local_to_global[v] for v in local_solution.vertices}
    return IndependentSet.from_iterable(global_vertices, weights)
