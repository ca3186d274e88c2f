"""Fault injection over the message-driven protocol runtime.

:class:`FaultyVertexProtocol` wraps the per-vertex state machine of
:class:`~repro.distributed.runtime.VertexProtocol` with three roles:

* **crashed** — from its scheduled ``(mini_round, phase)`` boundary onward
  the vertex neither broadcasts nor receives; its last announced state keeps
  haunting its neighbourhood (the classic stalled-leader / silent-blocker
  failures).
* **Byzantine** — the vertex stays live but corrupts what it sends: an
  inflated WB weight, and (behavior-dependent) usurped or deliberately
  conflicting LB decisions.  Every corrupted message is an ordinary typed
  message broadcast through the real transport, so on
  :class:`~repro.distributed.runtime.AsyncioTransport` the lies cross the
  JSON wire codec like any honest frame.
* **honest + mitigation** — with quorum checking enabled, honest vertices
  hold a :class:`~repro.faults.quorum.QuorumState`: they cross-validate
  every claim against their (2r+1)-hop knowledge, exclude senders caught
  lying (direct evidence, then an ``Accusation`` quorum for vertices
  outside the evidence horizon), and suspect silent blockers after the
  Algorithm-Two termination bound instead of waiting on dead neighbours.

The subclass only adds these fault gates; the LD and LB decision rules are
the honest ones.  :class:`FaultInjectionEngine` runs the one mini-round loop
of :class:`~repro.distributed.runtime.ProtocolEngine`, with a per-run
:class:`FaultController` as its hooks: a fault clock, an accusation (QR)
phase, honest-only termination and convergence, and the fault metrics
summarized in :class:`FaultReport`.  A faulty run on a lossless transport
is *expected* to be able to lose independence or convergence, which the
honest :meth:`~repro.distributed.runtime.ProtocolEngine.run` treats as a
bug, so the engine records the violation instead of raising.

All fault behaviour is deterministic given the plan (no runtime randomness),
so the transport-equivalence contract extends to fault runs: a lossless
in-order asyncio run is bit-identical to the simulated oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.distributed.messages import (
    Accusation,
    LeaderDeclaration,
    Message,
    StatusDetermination,
    WeightBroadcast,
)
from repro.distributed.runtime import (
    ProtocolEngine,
    ProtocolHooks,
    ProtocolResult,
    VertexProtocol,
)
from repro.distributed.transport import Transport
from repro.distributed.vertex import VertexStatus
from repro.faults.plan import CRASH_PHASES, FaultPlan
from repro.faults.quorum import QuorumConfig, QuorumState, termination_bound
from repro.mwis.base import Adjacency, MWISSolver
from repro.obs import current_observer

__all__ = [
    "FaultController",
    "FaultyVertexProtocol",
    "FaultReport",
    "FaultInjectionEngine",
]


class FaultController(ProtocolHooks):
    """The fault state of one protocol run, and its hooks on the engine loop.

    Owns the plan, the fault clock the engine advances at every phase
    boundary, and the deterministic fake weights Byzantine vertices
    announce.  A fake weight is ``1.5 * sum(true (2r+1)-hop weights) + 1.0``
    — strictly above everything the vertex could legitimately see, so the
    lie wins every election it reaches, and a pure function of the primed
    truth, so both transports (and both ends of the wire codec) see the
    identical float.

    As :class:`~repro.distributed.runtime.ProtocolHooks` it builds
    :class:`FaultyVertexProtocol` machines, runs a QR phase in mitigation
    runs, counts only alive honest vertices for termination and
    convergence, and voids the wins of quorum-excluded vertices.
    """

    def __init__(
        self,
        plan: FaultPlan,
        adjacency: Adjacency,
        hood_2r1: List[Set[int]],
        quorum: Optional[QuorumConfig] = None,
    ) -> None:
        self.plan = plan
        self.crashes = plan.crashes
        self.byzantine = plan.byzantine
        self.adjacency = adjacency
        self.hood_2r1 = hood_2r1
        self.quorum = quorum
        if quorum is not None:
            self.phases = ("WB", "LD", "LB", "QR")
        #: Fault clock: (mini_round, index in CRASH_PHASES), set by the engine.
        self.clock: Tuple[int, int] = (0, 0)
        self._fake_weights: Dict[int, float] = {}
        # The run's outcome, recorded for the fault report.  The controller
        # keeps no reference to the vertex machines (they reference it), so
        # a finished run is freed without waiting for the cycle collector.
        self.accusations_sent = 0
        self.claimed_winners: Set[int] = set()
        self.quorum_rejected: Set[int] = set()
        self.excluded: Set[int] = set()
        self.suspected: Set[int] = set()
        self.undecided_honest = 0

    def is_crashed(self, vertex: int) -> bool:
        """Has ``vertex``'s scheduled crash time passed on the fault clock?"""
        fault = self.crashes.get(vertex)
        return fault is not None and self.clock >= fault.crash_time()

    def fake_weight(self, vertex: int, known_weights: Mapping[int, float]) -> float:
        """The inflated weight Byzantine ``vertex`` announces (memoized).

        The claim exceeds the *sum* of all true weights in the vertex's
        (2r+1)-hop horizon, so it wins every election it enters and — the
        rational attack — dominates any honest alternative a leader's exact
        local MWIS could pick inside its candidate ball.  A pure function of
        the primed truth: no runtime randomness, so fault runs stay
        transport-deterministic.
        """
        cached = self._fake_weights.get(vertex)
        if cached is None:
            horizon_total = sum(
                known_weights.get(u, 0.0) for u in self.hood_2r1[vertex]
            )
            cached = horizon_total * 1.5 + 1.0
            self._fake_weights[vertex] = cached
        return cached

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def machine(self, *args, **kwargs) -> FaultyVertexProtocol:
        return FaultyVertexProtocol(*args, controller=self, **kwargs)

    def set_clock(self, mini_round: int, phase: str) -> None:
        self.clock = (mini_round, CRASH_PHASES.index(phase))

    def live(self, vertices: List[FaultyVertexProtocol]) -> Iterator[FaultyVertexProtocol]:
        """Alive honest vertices: crashed and Byzantine ones never block."""
        return (
            vertex
            for vertex in vertices
            if vertex.behavior is None and not self.is_crashed(vertex.vertex)
        )

    def accuse(self, vertices: List[FaultyVertexProtocol], mini_round: int) -> int:
        # Evidence found at a barrier spreads before the next election (at
        # mini-round 0, before the first), so out-of-horizon vertices can
        # already reject the liar's next LB.
        sent = sum(vertex.flush_accusations(mini_round) for vertex in vertices)
        self.accusations_sent += sent
        return sent

    def end_mini_round(self, vertices: List[FaultyVertexProtocol]) -> None:
        for vertex in vertices:
            vertex.end_mini_round()

    def final_winners(
        self, vertices: List[FaultyVertexProtocol], winners: Set[int]
    ) -> Set[int]:
        """Every vertex that ends with Winner status, minus the ones a quorum
        of honest vertices excluded (their claimed wins are void).

        Also records the rest of the run's outcome for the fault report.
        """
        self.claimed_winners = {
            vertex.vertex for vertex in vertices if vertex.status == VertexStatus.WINNER
        }
        self.undecided_honest = sum(
            1 for vertex in self.live(vertices) if not vertex.status.is_decided
        )
        votes: Dict[int, int] = {}
        for vertex in vertices:
            state = vertex.quorum_state
            if state is None:
                continue
            self.excluded |= state.excluded
            self.suspected |= state.suspected
            for accused in state.excluded:
                votes[accused] = votes.get(accused, 0) + 1
        if self.quorum is not None:
            self.quorum_rejected = {
                accused
                for accused, count in votes.items()
                if count >= self.quorum.threshold
            }
        return self.claimed_winners - self.quorum_rejected


class FaultyVertexProtocol(VertexProtocol):
    """A :class:`VertexProtocol` whose behaviour a fault plan can corrupt.

    It adds only the fault gates — crash silence, the Byzantine lies and the
    quorum checks on receive — and runs the honest LD/LB rules, with the
    vertices its quorum ledger excluded or suspects left out of them.
    """

    def __init__(self, *args, controller: FaultController, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._controller = controller
        byzantine = controller.byzantine.get(self.vertex)
        #: Byzantine behavior tag, or ``None`` for honest / crash-only vertices.
        self.behavior: Optional[str] = byzantine.behavior if byzantine else None
        #: Mitigation ledger; only honest vertices run quorum checks.
        self.quorum_state: Optional[QuorumState] = (
            QuorumState(controller.quorum)
            if controller.quorum is not None and byzantine is None
            else None
        )

    def _ignored(self, exclude: AbstractSet[int]) -> AbstractSet[int]:
        """``exclude`` plus every vertex the quorum ledger excluded or suspects."""
        state = self.quorum_state
        if state is None:
            return exclude
        return exclude | state.excluded | state.suspected

    # ------------------------------------------------------------------
    # WB, LD and LMWIS + LB phases
    # ------------------------------------------------------------------
    def announce_weight(self) -> Optional[WeightBroadcast]:
        if self._controller.is_crashed(self.vertex):
            return None
        if self.behavior is not None:
            # Observe the lie into our own knowledge first, so the base
            # broadcast announces it and our own elections believe it.
            self.observe_weight(
                self.vertex, self._controller.fake_weight(self.vertex, self.known_weights)
            )
        return super().announce_weight()

    def begin_mini_round(
        self, mini_round: int, exclude: AbstractSet[int] = frozenset()
    ) -> Optional[LeaderDeclaration]:
        if self._controller.is_crashed(self.vertex):
            return None
        return super().begin_mini_round(mini_round, self._ignored(exclude))

    def determine_statuses(
        self, mini_round: int, exclude: AbstractSet[int] = frozenset()
    ) -> Optional[StatusDetermination]:
        if self._controller.is_crashed(self.vertex):
            # The stalled-leader failure: a LocalLeader that declared itself
            # and died before LB leaves its whole ball waiting.
            return None
        if self.behavior in ("winner-usurpation", "conflicting-decisions"):
            return self._corrupt_determination(mini_round)
        # Excluded / suspected vertices never receive Winner slots.  (They
        # can still be Loser-marked as Winner neighbours, which only
        # confirms their exclusion.)
        return super().determine_statuses(mini_round, self._ignored(exclude))

    def _corrupt_determination(self, mini_round: int) -> Optional[StatusDetermination]:
        """Byzantine LB: skip the LMWIS and claim what the behavior dictates."""
        if self.status != VertexStatus.LOCAL_LEADER:
            return None
        winners: Set[int] = {self.vertex}
        if self.behavior == "conflicting-decisions":
            # Also crown the heaviest adjacent candidate: two adjacent
            # Winners in one LB, a direct independence violation.
            partner = None
            partner_key = None
            for u in self._adjacency[self.vertex]:
                if self.known_statuses.get(u, VertexStatus.CANDIDATE).is_decided:
                    continue
                key = (self.known_weights.get(u, 0.0), -u)
                if partner_key is None or key > partner_key:
                    partner, partner_key = u, key
            if partner is not None:
                winners.add(partner)
        return self._decide(winners, self.candidate_set_r(), mini_round)

    # ------------------------------------------------------------------
    # QR phase (mitigation only)
    # ------------------------------------------------------------------
    def flush_accusations(self, mini_round: int) -> int:
        """Broadcast the queued accusations; returns how many were sent."""
        state = self.quorum_state
        if state is None or self._controller.is_crashed(self.vertex):
            return 0
        sent = 0
        for accused, reason in state.pending_accusations:
            self._transport.broadcast(
                Accusation(
                    sender=self.vertex,
                    hop_limit=2 * self._r + 1,
                    accused=accused,
                    reason=reason,
                    mini_round=mini_round,
                ),
                phase="QR",
            )
            sent += 1
        state.pending_accusations.clear()
        return sent

    def end_mini_round(self) -> None:
        """Advance silence counters over the still-undecided horizon.

        Tracking *every* undecided, unexcluded (2r+1)-hop neighbour (not
        just this vertex's current blockers) keeps the suspicion state
        symmetric across honest vertices in a shared horizon — the property
        that makes the ``not-leader`` evidence check sound on a lossless
        transport.
        """
        state = self.quorum_state
        if state is None or self._controller.is_crashed(self.vertex):
            return
        if self.status.is_decided:
            state.heard.clear()
            return
        tracked = {
            u
            for u in self.neighborhood_2r1
            if u != self.vertex
            and not self.known_statuses.get(u, VertexStatus.CANDIDATE).is_decided
            and u not in state.excluded
        }
        state.end_mini_round(tracked)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        if self._controller.is_crashed(self.vertex):
            return  # dead vertices hear nothing
        state = self.quorum_state
        if state is None:
            if isinstance(message, Accusation):
                return  # only mitigating vertices act on accusations
            super().receive(message)
            return
        sender = message.sender
        if sender in state.excluded:
            return
        state.note_heard(sender)
        if isinstance(message, Accusation):
            state.register_accusation(sender, message.accused)
            return
        if isinstance(message, (WeightBroadcast, LeaderDeclaration)):
            # An honest announcement repeats the primed truth bit for bit,
            # so *any* mismatch against current knowledge is hard evidence.
            known = self.known_weights.get(sender)
            if known is not None and float(message.weight) != known:
                state.convict(sender, "weight-mismatch")
                return
            super().receive(message)
            return
        if isinstance(message, StatusDetermination):
            evidence = self._determination_evidence(message, state)
            if evidence is not None:
                state.convict(sender, evidence)
                return
        super().receive(message)

    def _determination_evidence(
        self, message: StatusDetermination, state: QuorumState
    ) -> Optional[str]:
        """Evidence that an LB is corrupt, or ``None`` when it checks out.

        Two checks, both sound on a lossless transport:

        * ``dependent-winners`` — the LB crowns two adjacent Winners, which
          no honest LMWIS can emit.
        * ``not-leader`` — some vertex in the *shared* (2r+1)-hop horizon of
          sender and receiver is still an unexcluded Candidate with a larger
          election key than the sender, so the sender cannot honestly have
          won the election.  Restricting to the shared horizon is what makes
          the check safe: within it, two honest vertices provably hold the
          same weight and decidedness knowledge at every phase barrier.
        """
        winners = [vertex for vertex, flag in message.decisions.items() if flag]
        for winner in winners:
            neighbors = self._controller.adjacency[winner]
            for other in winners:
                if other != winner and other in neighbors:
                    return "dependent-winners"
        sender = message.sender
        sender_weight = self.known_weights.get(sender)
        if sender_weight is not None:
            sender_key = (sender_weight, -sender)
            shared = self._controller.hood_2r1[sender] & self.neighborhood_2r1
            for u in shared:
                if u == sender or u == self.vertex or state.ignores(u):
                    continue
                if self.known_statuses.get(u, VertexStatus.CANDIDATE).is_decided:
                    continue
                weight = self.known_weights.get(u)
                if weight is not None and (weight, -u) > sender_key:
                    return "not-leader"
        return None


@dataclass
class FaultReport:
    """Fault metrics of one run (all counts are over the *final* output).

    The final winner set is every vertex that ends with Winner status,
    minus — in mitigation runs — the vertices a quorum of honest vertices
    excluded (their claimed wins are void: the honest network polices their
    channel access).  ``corrupted`` winners are Byzantine winners plus any
    winner adjacent to another final winner (an independence violation that
    made it into the output).
    """

    num_crashed: int = 0
    num_byzantine: int = 0
    fault_fraction: float = 0.0
    claimed_winners: int = 0
    final_winners: int = 0
    quorum_rejected: int = 0
    byzantine_winners: int = 0
    conflicting_winners: int = 0
    corrupted_winners: int = 0
    corrupted_winner_rate: float = 0.0
    honest_winner_weight: float = 0.0
    undecided_honest: int = 0
    suspected_crashed: int = 0
    excluded_senders: int = 0
    accusations_sent: int = 0
    patience: int = 0
    quorum_enabled: bool = False


class FaultInjectionEngine(ProtocolEngine):
    """:class:`ProtocolEngine` with a fault plan injected through its hooks.

    The mini-round loop is the honest engine's; a fresh
    :class:`FaultController` per run gates crashed vertices on the fault
    clock, adds a QR (accusation) phase after every delivery barrier in
    mitigation runs, and does honest-only convergence accounting.  There
    is no lossless-independence assertion (a faulty run is *supposed* to
    be able to violate it — the violation is data, recorded in the report).
    """

    def __init__(
        self,
        adjacency: Adjacency,
        r: int,
        hood_r: List[Set[int]],
        hood_r1: List[Set[int]],
        hood_2r1: List[Set[int]],
        local_solver: Optional[MWISSolver] = None,
        *,
        plan: FaultPlan,
        quorum: Optional[QuorumConfig] = None,
    ) -> None:
        super().__init__(adjacency, r, hood_r, hood_r1, hood_2r1, local_solver)
        if plan.max_vertex >= self._num_vertices:
            raise ValueError(
                f"fault plan names vertex {plan.max_vertex} but the graph "
                f"only has {self._num_vertices} vertices"
            )
        self._plan = plan
        if quorum is not None and quorum.patience <= 0:
            quorum = QuorumConfig(
                threshold=quorum.threshold,
                eps=quorum.eps,
                patience=termination_bound(
                    self._num_vertices, plan.num_faults, quorum.eps
                ),
            )
        self._quorum = quorum

    def run(
        self,
        transport: Transport,
        weights: Sequence[float],
        hard_limit: Optional[int] = None,
    ) -> Tuple[ProtocolResult, FaultReport]:
        """Execute one faulty strategy decision over ``transport``."""
        if hard_limit is None:
            hard_limit = self._num_vertices
            if self._quorum is not None:
                # Suspicion needs `patience` silent rounds before the stuck
                # part of the graph can resume; budget for both.
                hard_limit += self._quorum.patience
        controller = FaultController(
            self._plan, self._adjacency, self._hood_2r1, quorum=self._quorum
        )
        obs = current_observer()
        with obs.span(
            "faults.run",
            num_vertices=self._num_vertices,
            num_faults=self._plan.num_faults,
            quorum=self._quorum is not None,
        ) as run_span:
            result = self._run(transport, weights, None, hard_limit, controller)
            report = self._report(controller, weights)
            run_span.set_attrs(
                mini_rounds=result.num_mini_rounds,
                corrupted_winners=report.corrupted_winners,
            )
        for name, value in (
            ("faults.crashed", report.num_crashed),
            ("faults.byzantine", report.num_byzantine),
            ("faults.accusations_sent", report.accusations_sent),
            ("faults.quorum_rejected", report.quorum_rejected),
            ("faults.excluded_senders", report.excluded_senders),
            ("faults.suspected_crashed", report.suspected_crashed),
            ("faults.corrupted_winners", report.corrupted_winners),
        ):
            if value:
                obs.count(name, value)
        return result, report

    def _report(self, controller: FaultController, weights: Sequence[float]) -> FaultReport:
        """The fault metrics of the run ``controller`` hooked into."""
        final_winners = controller.claimed_winners - controller.quorum_rejected
        byzantine_set = set(self._plan.byzantine)
        byzantine_winners = final_winners & byzantine_set
        conflicting = {
            winner for winner in final_winners if final_winners & self._adjacency[winner]
        }
        corrupted = byzantine_winners | conflicting
        honest_weight = sum(float(weights[v]) for v in final_winners - corrupted)
        return FaultReport(
            num_crashed=len(self._plan.crashes),
            num_byzantine=len(byzantine_set),
            fault_fraction=self._plan.num_faults / max(1, self._num_vertices),
            claimed_winners=len(controller.claimed_winners),
            final_winners=len(final_winners),
            quorum_rejected=len(controller.quorum_rejected),
            byzantine_winners=len(byzantine_winners),
            conflicting_winners=len(conflicting),
            corrupted_winners=len(corrupted),
            corrupted_winner_rate=len(corrupted) / max(1, len(final_winners)),
            honest_winner_weight=honest_weight,
            undecided_honest=controller.undecided_honest,
            suspected_crashed=len(controller.suspected),
            excluded_senders=len(controller.excluded),
            accusations_sent=controller.accusations_sent,
            patience=self._quorum.patience if self._quorum is not None else 0,
            quorum_enabled=self._quorum is not None,
        )
