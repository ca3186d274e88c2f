"""Per-vertex protocol state for the distributed robust PTAS.

Algorithm 3 of the paper gives every virtual vertex one of four statuses:

* ``CANDIDATE`` -- not yet decided, still eligible to become a Winner;
* ``LOCAL_LEADER`` -- a Candidate that is the maximum-weight Candidate in its
  (2r+1)-hop neighbourhood for the current mini-round;
* ``WINNER`` -- included in the final independent set (will access a channel);
* ``LOSER`` -- permanently excluded.

The state machine that carries a status, together with the vertex's local
knowledge, is :class:`repro.distributed.runtime.VertexProtocol`.
"""

from __future__ import annotations

import enum

__all__ = ["VertexStatus"]


class VertexStatus(enum.Enum):
    """Status of a virtual vertex during Algorithm 3."""

    CANDIDATE = "candidate"
    LOCAL_LEADER = "local_leader"
    WINNER = "winner"
    LOSER = "loser"

    @property
    def is_decided(self) -> bool:
        """``True`` for terminal statuses (Winner or Loser)."""
        return self in _TERMINAL


#: The terminal statuses, built once (``is_decided`` runs millions of times
#: per oracle run).
_TERMINAL = frozenset({VertexStatus.WINNER, VertexStatus.LOSER})
