"""Posted-receive and unexpected-message queues with MPI matching rules.

MPI matching is FIFO *per matching pair*: the oldest posted receive
whose ``(source, tag, comm)`` selectors accept an incoming envelope
wins, and symmetric for receives probing the unexpected queue.  Getting
this exactly right matters -- the proxy-side matching in the offload
framework (paper Fig. 8) follows the same discipline and the tests
compare the two.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.mpi.datatypes import Envelope, MpiRequest

__all__ = ["MatchingEngine", "UnexpectedMessage"]


class UnexpectedMessage:
    """An arrival that found no posted receive."""

    __slots__ = ("envelope", "kind", "payload", "meta", "arrival_time")

    def __init__(self, envelope: Envelope, kind: str, payload: Any, meta: Any, arrival_time: float):
        self.envelope = envelope
        #: "eager" | "rts" | "shm"
        self.kind = kind
        self.payload = payload
        self.meta = meta
        self.arrival_time = arrival_time


class MatchingEngine:
    """Per-rank matching state across all communicators."""

    def __init__(self) -> None:
        self._posted: list[MpiRequest] = []
        self._unexpected: list[UnexpectedMessage] = []

    # -- posted receives -------------------------------------------------
    def post_recv(self, req: MpiRequest) -> Optional[UnexpectedMessage]:
        """Register a receive; return a matching unexpected message if any.

        If an unexpected message matches, it is consumed and the caller
        completes the protocol; otherwise the receive is queued.
        """
        for i, um in enumerate(self._unexpected):
            if um.envelope.matches_recv(req.peer, req.tag, req.comm_id):
                del self._unexpected[i]
                return um
        self._posted.append(req)
        return None

    # -- arrivals ----------------------------------------------------------
    def match_arrival(self, envelope: Envelope) -> Optional[MpiRequest]:
        """Find (and remove) the oldest posted receive accepting ``envelope``."""
        for i, req in enumerate(self._posted):
            if envelope.matches_recv(req.peer, req.tag, req.comm_id):
                del self._posted[i]
                return req
        return None

    def add_unexpected(self, um: UnexpectedMessage) -> None:
        self._unexpected.append(um)

    # -- introspection ------------------------------------------------------
    @property
    def posted_count(self) -> int:
        return len(self._posted)

    @property
    def unexpected_count(self) -> int:
        return len(self._unexpected)

    def idle(self) -> bool:
        return not self._posted and not self._unexpected
