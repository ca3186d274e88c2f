"""Closed-form strategy decision for the internally simulated network.

On a lossless, in-order transport every vertex's knowledge at the start of a
mini-round is exactly the global state restricted to its (2r+1)-hop ball:
weights are primed from the global vector, and every decision about a vertex
``u`` is broadcast within 3r+2 hops of its leader, which covers every vertex
whose horizon contains ``u`` (see :mod:`repro.distributed.ptas`).  The
messages of :class:`~repro.distributed.runtime.ProtocolEngine` therefore
carry no information the driver does not already hold.

:class:`ClosedFormEngine` runs Algorithm 3 over one global candidate set
instead of one :class:`~repro.distributed.runtime.VertexProtocol` per vertex,
and charges the messages, deliveries and mini-timeslots a
:class:`~repro.distributed.transport.SimulatedTransport` would count, in
closed form from ball sizes:

* a WB or LD broadcast from ``v`` costs one message, ``|J_{2r+1}(v)| - 1``
  deliveries and ``2r+1`` mini-timeslots;
* an LB broadcast costs one message, ``|J_{3r+2}(v)| - 1`` deliveries and
  ``3r+2`` mini-timeslots;
* every vertex stores ``|J_{2r+1}(v)|`` weights.

The (2r+1)- and (3r+2)-balls are only counted or intersected, so the engine
reads them as Python-int bitmasks
(:func:`~repro.graph.neighborhoods.ball_bitsets`): sizes are
``int.bit_count()`` and the election is one AND per candidate.  The r-ball
stays a set built by :func:`~repro.graph.neighborhoods.r_hop_neighborhood`,
because its iteration order feeds the local MWIS and the order of every
frozenset in the records.

Its result, spans and counters are bit-identical to ``ProtocolEngine`` over
``SimulatedTransport``, which stays the oracle (the differential test in
``tests/distributed/test_closed_form.py`` holds the two together) and the
only engine for any supplied transport and for fault injection.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

from repro.distributed.costs import CommunicationCosts, ComputationCosts, RoundCosts
from repro.distributed.runtime import (
    DEPENDENT_OUTPUT_MESSAGE,
    MiniRoundRecord,
    ProtocolResult,
)
from repro.mwis.base import Adjacency, IndependentSet, MWISSolver, is_independent
from repro.mwis.local import solve_local_mwis
from repro.obs import current_observer

__all__ = ["ClosedFormEngine"]


class ClosedFormEngine:
    """Algorithm 3 over one global candidate set (lossless simulated runs).

    Parameters mirror :class:`~repro.distributed.runtime.ProtocolEngine`,
    except that the (2r+1)- and (3r+2)-balls come as bitmask lists
    (``ball_2r1``, ``ball_lb``; bit ``u`` of ``ball_2r1[v]`` is set iff
    ``d(u, v) <= 2r+1``).  All tables are read at every :meth:`run`, so
    lists patched in place (as :mod:`repro.dynamics` does) stay live.
    """

    def __init__(
        self,
        adjacency: Adjacency,
        r: int,
        hood_r: List[Set[int]],
        ball_2r1: List[int],
        ball_lb: List[int],
        local_solver: Optional[MWISSolver] = None,
    ) -> None:
        self._adjacency = adjacency
        self._num_vertices = len(adjacency)
        self._r = r
        self._hood_r = hood_r
        self._ball_2r1 = ball_2r1
        self._ball_lb = ball_lb
        self._local_solver = local_solver

    def run(
        self,
        weights: Sequence[float],
        broadcasting_vertices: Optional[Iterable[int]] = None,
        hard_limit: Optional[int] = None,
    ) -> ProtocolResult:
        """Execute one full strategy decision.

        Emits the ``protocol.*`` spans and ``net.*`` counters of
        :meth:`ProtocolEngine.run` with the same values, and raises the same
        :class:`RuntimeError` when the output is dependent.
        """
        if hard_limit is None:
            hard_limit = self._num_vertices
        obs = current_observer()
        with obs.span(
            "protocol.run", num_vertices=self._num_vertices, r=self._r
        ) as run_span:
            result = self._execute(weights, broadcasting_vertices, hard_limit, obs)
            run_span.set_attrs(
                mini_rounds=result.num_mini_rounds, converged=result.converged
            )
        communication = result.costs.communication
        obs.count("net.messages", communication.total_messages)
        obs.count("net.deliveries", communication.total_deliveries)
        if not result.independent:
            raise RuntimeError(DEPENDENT_OUTPUT_MESSAGE)
        return result

    def _execute(
        self,
        weights: Sequence[float],
        broadcasting_vertices: Optional[Iterable[int]],
        hard_limit: int,
        obs,
    ) -> ProtocolResult:
        n = self._num_vertices
        ball_2r1 = self._ball_2r1
        ball_lb = self._ball_lb
        announce_hops = 2 * self._r + 1
        lb_hops = 3 * self._r + 2
        values = [float(weights[vertex]) for vertex in range(n)]
        horizon = [ball.bit_count() for ball in ball_2r1]
        messages = [0] * n
        deliveries = 0
        timeslots = {"WB": 0, "LD": 0, "LB": 0}

        if broadcasting_vertices is None:
            broadcasters: Iterable[int] = range(n)
        else:
            broadcasters = sorted(set(broadcasting_vertices))
        with obs.span("protocol.phase", phase="WB"):
            for sender in broadcasters:
                if not (0 <= sender < n):
                    raise ValueError(
                        f"broadcasting vertex {sender} out of range [0, {n})"
                    )
                messages[sender] += 1
                deliveries += horizon[sender] - 1
                timeslots["WB"] += announce_hops

        # Candidates in descending (weight, -id) order, the strict total
        # order of the election, and as a set.
        ranked = sorted(range(n), key=lambda vertex: (values[vertex], -vertex), reverse=True)
        candidate_set = set(ranked)
        records: List[MiniRoundRecord] = []
        winners: Set[int] = set()
        cumulative_weight = 0.0
        computation = ComputationCosts()

        for mini_round in range(1, hard_limit + 1):
            if not ranked:
                break
            with obs.span("protocol.mini_round", mini_round=mini_round) as round_span:
                with obs.span("protocol.phase", phase="LD"):
                    # Line 3 of Algorithm 3, ties broken by smaller id: a
                    # candidate leads iff no greater candidate lies in its
                    # (2r+1)-ball.  ``greater`` holds the candidates swept
                    # so far, which are exactly the greater ones.
                    greater = 0
                    leaders = []
                    for vertex in ranked:
                        if not ball_2r1[vertex] & greater:
                            leaders.append(vertex)
                            messages[vertex] += 1
                            deliveries += horizon[vertex] - 1
                            timeslots["LD"] += announce_hops
                        greater |= 1 << vertex
                    # Leaders decide in ascending id, the oracle's order.
                    leaders.sort()
                new_winners: Set[int] = set()
                new_losers: Set[int] = set()
                with obs.span("protocol.phase", phase="LB"):
                    # Every leader decides from the state at the start of the
                    # mini-round; the decisions apply once all have decided.
                    for leader in leaders:
                        decisions = self._decide(leader, values, candidate_set, computation)
                        for vertex, is_winner in decisions.items():
                            (new_winners if is_winner else new_losers).add(vertex)
                        messages[leader] += 1
                        deliveries += ball_lb[leader].bit_count() - 1
                        timeslots["LB"] += lb_hops
                    candidate_set -= new_winners
                    candidate_set -= new_losers
                round_span.set_attrs(
                    leaders=len(leaders),
                    new_winners=len(new_winners),
                    new_losers=len(new_losers),
                )
            winners |= new_winners
            cumulative_weight += sum(values[v] for v in new_winners)
            ranked = [vertex for vertex in ranked if vertex in candidate_set]
            records.append(
                MiniRoundRecord(
                    index=mini_round,
                    leaders=frozenset(leaders),
                    new_winners=frozenset(new_winners),
                    new_losers=frozenset(new_losers),
                    cumulative_weight=cumulative_weight,
                    remaining_candidates=len(ranked),
                )
            )
            computation.mini_rounds = mini_round

        costs = RoundCosts(
            communication=CommunicationCosts(
                messages_per_vertex=messages,
                total_deliveries=deliveries,
                mini_timeslots_per_phase=timeslots,
            ),
            computation=computation,
            stored_weights_per_vertex=horizon,
        )
        return ProtocolResult(
            independent_set=IndependentSet.from_iterable(winners, weights),
            mini_rounds=records,
            costs=costs,
            converged=not ranked,
            independent=is_independent(self._adjacency, winners),
        )

    def _decide(
        self,
        leader: int,
        values: List[float],
        candidate_set: Set[int],
        computation: ComputationCosts,
    ) -> "dict[int, bool]":
        """LMWIS + LB of one leader: the oracle's winner/loser rule.

        Builds every set in the same insertion order as
        :meth:`VertexProtocol.determine_statuses`, so the decisions dict, and
        the records and winner set built from it, iterate identically.
        """
        local = {u for u in set(self._hood_r[leader]) if u in candidate_set}
        local.add(leader)
        local_weights = {vertex: values[vertex] for vertex in local}
        solution = solve_local_mwis(
            self._adjacency, local_weights, local, solver=self._local_solver
        )
        computation.local_mwis_calls += 1
        computation.candidate_set_sizes.append(len(local))
        winners = set(solution.vertices)
        if not winners:
            # All candidate weights were non-positive: the leader alone is
            # a valid singleton independent set.
            winners = {leader}
        winner_neighbors: Set[int] = set()
        for winner in winners:
            winner_neighbors |= self._adjacency[winner]
        # The machines also keep only neighbours within r+1 hops of the
        # leader.  That filter always passes here: winners lie in
        # J_r(leader), so their neighbours lie in J_{r+1}(leader).
        removal = local | {
            vertex for vertex in winner_neighbors if vertex in candidate_set
        }
        losers = removal - winners
        decisions = {vertex: True for vertex in winners}
        decisions.update({vertex: False for vertex in losers})
        return decisions
