"""Distributed robust PTAS for strategy decision (Algorithm 3 of the paper).

Every mini-round proceeds in three logical phases, realised by the
message-driven state machines of :mod:`repro.distributed.runtime` over a
:class:`~repro.distributed.transport.Transport`:

1. *LocalLeader selection (LS/LD)* -- every Candidate that is the
   maximum-weight Candidate of its (2r+1)-hop neighbourhood declares itself
   LocalLeader within (2r+1) hops.
2. *Local MWIS (LMWIS)* -- every LocalLeader solves MWIS exactly (by
   enumeration) over the Candidate vertices ``A_r(v)`` of its r-hop
   neighbourhood; the members of the MWIS become Winners, and the remaining
   Candidates of ``A_r(v)`` *plus every Candidate adjacent to a new Winner*
   become Losers.  Including the Winners' direct neighbours in the Loser set
   mirrors the centralized robust PTAS ("remove the MWIS and all adjacent
   vertices") and guarantees that Winners chosen by later LocalLeaders can
   never conflict with Winners chosen now.
3. *Local broadcast (LB)* -- the decisions are broadcast within (3r+2) hops so
   that every vertex whose (2r+1)-hop knowledge horizon contains a decided
   vertex learns about the decision before the next mini-round.

The union of the Winner sets of all mini-rounds is an independent set of ``H``
achieving the same approximation ratio as the centralized robust PTAS
(Theorem 3); with a truncated number of mini-rounds ``D`` the output is still
a constant-factor approximation on random networks (Theorem 4) -- experiment
E1 / Fig. 6 measures exactly this convergence.

This class is the user-facing wrapper: it validates parameters, precomputes
the neighbourhood tables once per topology, and picks the engine from one
fact, whether a transport was supplied:

* without ``transport=`` it runs the closed-form engine of
  :mod:`repro.distributed.closed_form`, which executes Algorithm 3 over one
  global candidate set and charges the messages a lossless
  :class:`~repro.distributed.transport.SimulatedTransport` would carry;
* with ``transport=`` (the simulated oracle, the asyncio runtime, a lossy
  network) it runs the per-vertex state machines of
  :mod:`repro.distributed.runtime` over that transport.

Both give bit-identical results on a lossless, in-order transport (see
``docs/architecture.md``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.distributed.closed_form import ClosedFormEngine
from repro.distributed.runtime import MiniRoundRecord, ProtocolEngine, ProtocolResult
from repro.distributed.transport import Transport
from repro.graph.neighborhoods import (
    all_r_hop_neighborhoods,
    ball_bitsets,
    bitmask,
    protocol_neighborhoods,
)
from repro.mwis.base import Adjacency, MWISSolver

__all__ = ["MiniRoundRecord", "ProtocolResult", "DistributedRobustPTAS"]


class DistributedRobustPTAS:
    """Executable model of Algorithm 3 on a fixed extended conflict graph.

    Neighbourhood structures are precomputed once per topology so that the
    per-round work matches the distributed algorithm (the real protocol also
    discovers its neighbourhood once, not every round).  The space-cost
    report counts the weights stored by each vertex of ``H``.

    Parameters
    ----------
    adjacency:
        Adjacency sets of the extended conflict graph ``H``.  May be omitted
        when ``transport`` is given (the transport's adjacency is used).
    r:
        The PTAS radius (the paper's simulations use ``r = 2``).
    max_mini_rounds:
        Mini-round budget ``D``.  ``None`` means "run until every vertex is
        marked" (at most ``|V(H)|`` mini-rounds, the paper's O(N) bound).
    local_solver:
        Solver used for the local MWIS instances; defaults to exact
        enumeration as in the paper.
    precomputed_neighborhoods:
        Optional externally-owned neighbourhood caches, mapping hop radius
        to the per-vertex neighbourhood list.  Must cover the radii the
        selected engine reads: ``r``, ``r + 1`` and ``2r + 1`` with a
        transport; ``r``, ``2r + 1`` and ``3r + 2`` without one, where the
        last two are read by :meth:`refresh_neighborhoods` (the closed
        form's bitmasks start from the adjacency).  Lists are kept *by
        reference*, which lets :mod:`repro.dynamics` maintain them
        incrementally while the protocol keeps running on the live topology.
    transport:
        Optional :class:`~repro.distributed.transport.Transport` instance to
        run the protocol over.  It is :meth:`~repro.distributed.transport.
        Transport.reset` before every :meth:`run` so per-run cost reports
        never mix rounds.  When omitted, each run uses the closed-form
        engine, whose results, spans and counters are those of a fresh
        :class:`~repro.distributed.transport.SimulatedTransport` run, bit
        for bit.
    """

    def __init__(
        self,
        adjacency: Optional[Adjacency] = None,
        r: int = 2,
        max_mini_rounds: Optional[int] = None,
        local_solver: Optional[MWISSolver] = None,
        precomputed_neighborhoods: Optional[Dict[int, List[Set[int]]]] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        if adjacency is None:
            if transport is None:
                raise ValueError(
                    "DistributedRobustPTAS needs an adjacency, a transport, or both"
                )
            adjacency = transport.adjacency
        if transport is not None and transport.num_vertices != len(adjacency):
            raise ValueError(
                f"transport connects {transport.num_vertices} vertices but the "
                f"adjacency has {len(adjacency)}"
            )
        if r < 1:
            raise ValueError(
                "r must be at least 1 for the protocol's knowledge horizons to "
                f"be consistent, got {r}"
            )
        if max_mini_rounds is not None and max_mini_rounds <= 0:
            raise ValueError(
                f"max_mini_rounds must be positive or None, got {max_mini_rounds}"
            )
        self._adjacency = adjacency
        self._num_vertices = len(adjacency)
        self._r = r
        self._max_mini_rounds = max_mini_rounds
        self._local_solver = local_solver
        self._transport = transport
        # The protocol's radii: r for the local MWIS, r+1 for the Loser
        # ball, 2r+1 for knowledge/elections and 3r+2 for the determination
        # broadcast.  The paper broadcasts within 3r+1 hops because its
        # Losers lie within r hops of the leader; our Loser set additionally
        # contains the Winners' direct neighbours (distance up to r+1), so one
        # extra hop is needed for every vertex whose (2r+1)-hop election
        # horizon contains a decided vertex to learn about the decision
        # before the next mini-round.  Each engine reads only some of them:
        # the closed form the r-ball as a set and the (2r+1)- and (3r+2)-balls
        # as bitmasks, the vertex machines the r-, (r+1)- and (2r+1)-balls as
        # sets.
        if transport is None:
            required = (r, 2 * r + 1, 3 * r + 2)
        else:
            required = (r, r + 1, 2 * r + 1)
        if precomputed_neighborhoods is not None:
            missing = [hops for hops in required if hops not in precomputed_neighborhoods]
            if missing:
                raise ValueError(
                    f"precomputed_neighborhoods is missing radii {missing}; "
                    f"the protocol needs {list(required)}"
                )
            self._tables = dict(precomputed_neighborhoods)
        elif transport is None:
            self._tables = {r: all_r_hop_neighborhoods(adjacency, r)}
        else:
            self._tables = protocol_neighborhoods(adjacency, r)
        # Every protocol radius as sets, built by transport_neighborhoods().
        self._transport_tables: Optional[Dict[int, List[Set[int]]]] = None
        if transport is None:
            self._balls = ball_bitsets(adjacency, required[1:])
            self._closed_form: Optional[ClosedFormEngine] = ClosedFormEngine(
                self._adjacency,
                r=self._r,
                hood_r=self._tables[r],
                ball_2r1=self._balls[2 * r + 1],
                ball_lb=self._balls[3 * r + 2],
                local_solver=self._local_solver,
            )
        else:
            self._closed_form = None
            self._engine = ProtocolEngine(
                self._adjacency,
                r=self._r,
                hood_r=self._tables[r],
                hood_r1=self._tables[r + 1],
                hood_2r1=self._tables[2 * r + 1],
                local_solver=self._local_solver,
            )

    @property
    def r(self) -> int:
        """The PTAS radius."""
        return self._r

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the extended graph."""
        return self._num_vertices

    @property
    def transport(self) -> Optional[Transport]:
        """The externally-supplied transport (``None`` = simulated per run)."""
        return self._transport

    def transport_neighborhoods(self) -> Dict[int, List[Set[int]]]:
        """The set tables of every protocol radius, for external transports.

        A transport built over the same graph can share these caches instead
        of recomputing k-hop routing (the radii cover every broadcast the
        protocol emits plus the local-MWIS radius ``r``).  Tables the engine
        holds are shared; the others are built on the first call by the same
        BFS, so every table iterates as a fresh build does.
        """
        if self._transport_tables is None:
            self._transport_tables = protocol_neighborhoods(
                self._adjacency, self._r, known=self._tables
            )
        return dict(self._transport_tables)

    def refresh_neighborhoods(self, vertices: Iterable[int]) -> None:
        """Re-read ``vertices``' entries after the precomputed tables changed.

        Callers that patch ``precomputed_neighborhoods`` in place (as
        :mod:`repro.dynamics` does after each event batch) name the vertices
        whose balls they recomputed.  The closed form's bitmasks of those
        vertices are rebuilt from the patched (2r+1)- and (3r+2)-hop sets,
        and the tables built by :meth:`transport_neighborhoods` are dropped.
        """
        self._transport_tables = None
        if self._closed_form is None:
            return
        vertices = list(vertices)
        for hops, balls in self._balls.items():
            hoods = self._tables[hops]
            for vertex in vertices:
                balls[vertex] = bitmask(hoods[vertex])

    # ------------------------------------------------------------------
    # Protocol execution
    # ------------------------------------------------------------------
    def run(
        self,
        weights: Sequence[float],
        broadcasting_vertices: Optional[Iterable[int]] = None,
        max_mini_rounds: Optional[int] = None,
    ) -> ProtocolResult:
        """Execute one strategy decision (one full round of Algorithm 3).

        Parameters
        ----------
        weights:
            Flat estimated-weight vector over the vertices of ``H`` (the
            output of the learning policy's index computation).
        broadcasting_vertices:
            Vertices that refresh their weight during the WB phase (the
            members of the previous strategy, per Algorithm 2 line 2-3).
            ``None`` means every vertex broadcasts, which is what happens in
            the very first round.
        max_mini_rounds:
            Optional per-call override of the mini-round budget ``D``.
        """
        if len(weights) != self._num_vertices:
            raise ValueError(
                f"weights has length {len(weights)} but the graph has "
                f"{self._num_vertices} vertices"
            )
        budget = max_mini_rounds if max_mini_rounds is not None else self._max_mini_rounds
        if budget is not None and budget <= 0:
            raise ValueError(f"max_mini_rounds must be positive, got {budget}")
        hard_limit = self._num_vertices if budget is None else min(budget, max(1, self._num_vertices))

        if self._closed_form is not None:
            return self._closed_form.run(
                weights,
                broadcasting_vertices=broadcasting_vertices,
                hard_limit=hard_limit,
            )
        self._transport.reset()
        return self._engine.run(
            self._transport,
            weights,
            broadcasting_vertices=broadcasting_vertices,
            hard_limit=hard_limit,
        )
