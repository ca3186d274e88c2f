"""Per-vertex state of the protocol: the status enum (repro.distributed.vertex)
and the knowledge, marking and election rules of
repro.distributed.runtime.VertexProtocol."""

import pytest

from repro.distributed.runtime import VertexProtocol
from repro.distributed.transport import SimulatedTransport
from repro.distributed.vertex import VertexStatus

#: Path 0 - 1 - 2 - 3 - 4.
PATH = [{1}, {0, 2}, {1, 3}, {2, 4}, {3}]


def machine(vertex, hood_2r1, hood_r, adjacency=PATH):
    """A vertex machine over ``adjacency`` with the given horizons (r = 1)."""
    return VertexProtocol(
        vertex,
        SimulatedTransport(adjacency),
        1,
        adjacency,
        hood_r=hood_r,
        hood_r1=hood_2r1,
        hood_2r1=hood_2r1,
    )


@pytest.fixture
def agent():
    """Machine of vertex 2 with a small knowledge horizon."""
    return machine(2, hood_2r1={0, 1, 2, 3, 4}, hood_r={1, 2, 3})


class TestVertexStatus:
    def test_decided_statuses(self):
        assert VertexStatus.WINNER.is_decided
        assert VertexStatus.LOSER.is_decided
        assert not VertexStatus.CANDIDATE.is_decided
        assert not VertexStatus.LOCAL_LEADER.is_decided


class TestVertexAgentKnowledge:
    def test_initial_state(self, agent):
        assert agent.status == VertexStatus.CANDIDATE
        assert agent.known_statuses[0] == VertexStatus.CANDIDATE
        assert agent.known_weights == {}

    def test_neighbourhoods_must_contain_self(self):
        with pytest.raises(ValueError):
            machine(4, hood_2r1={0, 1}, hood_r={4})

    def test_observe_weight_inside_horizon(self, agent):
        agent.observe_weight(1, 3.5)
        assert agent.known_weights[1] == 3.5

    def test_observe_weight_outside_horizon_is_ignored(self, agent):
        agent.observe_weight(99, 3.5)
        assert 99 not in agent.known_weights

    def test_observe_status_updates_candidates(self, agent):
        agent.observe_status(1, VertexStatus.WINNER)
        assert agent.known_statuses[1] == VertexStatus.WINNER

    def test_observe_status_never_downgrades_terminal(self, agent):
        agent.observe_status(1, VertexStatus.WINNER)
        agent.observe_status(1, VertexStatus.CANDIDATE)
        assert agent.known_statuses[1] == VertexStatus.WINNER

    def test_observe_status_outside_horizon_ignored(self, agent):
        agent.observe_status(99, VertexStatus.WINNER)
        assert 99 not in agent.known_statuses


class TestVertexAgentMarking:
    def test_mark_updates_own_status_and_knowledge(self, agent):
        agent.mark(VertexStatus.WINNER)
        assert agent.status == VertexStatus.WINNER
        assert agent.known_statuses[2] == VertexStatus.WINNER

    def test_conflicting_remark_rejected(self, agent):
        agent.mark(VertexStatus.LOSER)
        with pytest.raises(ValueError):
            agent.mark(VertexStatus.WINNER)

    def test_same_remark_allowed(self, agent):
        agent.mark(VertexStatus.WINNER)
        agent.mark(VertexStatus.WINNER)
        assert agent.status == VertexStatus.WINNER

    def test_leader_then_winner_transition(self, agent):
        agent.mark(VertexStatus.LOCAL_LEADER)
        agent.mark(VertexStatus.WINNER)
        assert agent.status == VertexStatus.WINNER


class TestLocalMaximum:
    def test_unique_max_weight_is_local_maximum(self, agent):
        weights = {0: 1.0, 1: 2.0, 2: 5.0, 3: 3.0, 4: 0.5}
        agent.known_weights.update(weights)
        assert agent.is_local_maximum()

    def test_not_local_maximum_when_neighbor_is_heavier(self, agent):
        weights = {0: 1.0, 1: 9.0, 2: 5.0, 3: 3.0, 4: 0.5}
        agent.known_weights.update(weights)
        assert not agent.is_local_maximum()

    def test_ties_broken_by_vertex_id(self):
        pair = [{1}, {0}]
        low_id = machine(0, {0, 1}, {0, 1}, adjacency=pair)
        high_id = machine(1, {0, 1}, {0, 1}, adjacency=pair)
        for agent in (low_id, high_id):
            agent.observe_weight(0, 2.0)
            agent.observe_weight(1, 2.0)
        assert low_id.is_local_maximum()
        assert not high_id.is_local_maximum()

    def test_decided_neighbors_are_ignored(self, agent):
        weights = {0: 1.0, 1: 9.0, 2: 5.0, 3: 3.0, 4: 0.5}
        agent.known_weights.update(weights)
        agent.observe_status(1, VertexStatus.LOSER)
        assert agent.is_local_maximum()

    def test_non_candidate_is_never_local_maximum(self, agent):
        agent.known_weights.update({v: 1.0 for v in range(5)})
        agent.mark(VertexStatus.LOSER)
        assert not agent.is_local_maximum()

    def test_excluded_neighbors_are_ignored(self, agent):
        agent.known_weights.update({0: 1.0, 1: 9.0, 2: 5.0, 3: 3.0, 4: 0.5})
        assert agent.is_local_maximum(exclude={1})
        assert agent.begin_mini_round(1, exclude={1}) is not None
        assert agent.status == VertexStatus.LOCAL_LEADER


class TestCandidateSets:
    def test_candidate_set_r_includes_self(self, agent):
        assert agent.candidate_set_r() == {1, 2, 3}

    def test_candidate_set_r_excludes_decided(self, agent):
        agent.observe_status(1, VertexStatus.WINNER)
        agent.observe_status(3, VertexStatus.LOSER)
        assert agent.candidate_set_r() == {2}

    def test_candidate_set_r_exclusion_never_drops_self(self, agent):
        assert agent.candidate_set_r(exclude={2, 3}) == {1, 2}

    def test_candidate_neighbors_excludes_self_and_decided(self, agent):
        agent.observe_status(4, VertexStatus.LOSER)
        assert agent.candidate_neighbors() == {0, 1, 3}


class TestDetermination:
    def test_exclusion_keeps_a_vertex_out_of_the_winners(self, agent):
        agent.known_weights.update({0: 1.0, 1: 4.0, 2: 5.0, 3: 4.0, 4: 0.5})
        agent.mark(VertexStatus.LOCAL_LEADER)
        honest = agent.determine_statuses(1)
        # Honestly, {1, 3} (weight 8) beats {2} (weight 5); with 3 excluded
        # the choice is between 1 and 2 alone, and the leader wins.
        assert {v for v, win in honest.decisions.items() if win} == {1, 3}
        other = machine(2, hood_2r1={0, 1, 2, 3, 4}, hood_r={1, 2, 3})
        other.known_weights.update(agent.known_weights)
        other.mark(VertexStatus.LOCAL_LEADER)
        excluded = other.determine_statuses(1, exclude={3})
        assert {v for v, win in excluded.decisions.items() if win} == {2}
        assert other.status == VertexStatus.WINNER
