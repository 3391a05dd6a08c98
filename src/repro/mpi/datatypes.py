"""Envelopes, requests and constants for the MPI runtime."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "MpiError",
    "Envelope",
    "MpiRequest",
    "CollectiveRequest",
]

#: Wildcard source rank for receives.
ANY_SOURCE = -1
#: Wildcard tag for receives.
ANY_TAG = -1

_req_ids = itertools.count()


class MpiError(RuntimeError):
    """Semantic misuse of the MPI layer."""


@dataclass(frozen=True)
class Envelope:
    """The matching triple (plus communicator) of one message."""

    src: int  # world rank of the sender
    dst: int  # world rank of the receiver
    tag: int
    comm_id: int

    def matches_recv(self, recv_src: int, recv_tag: int, comm_id: int) -> bool:
        """Would a posted receive with these selectors match this message?"""
        if comm_id != self.comm_id:
            return False
        if recv_src != ANY_SOURCE and recv_src != self.src:
            return False
        if recv_tag != ANY_TAG and recv_tag != self.tag:
            return False
        return True


@dataclass
class MpiRequest:
    """One non-blocking point-to-point operation."""

    kind: str  # "send" | "recv"
    rank: int  # world rank owning this request
    peer: int  # destination (send) / selector source (recv); may be ANY_SOURCE
    tag: int
    comm_id: int
    addr: int
    size: int
    req_id: int = field(default_factory=lambda: next(_req_ids))
    complete: bool = False
    #: Simulated time at which the operation semantically completed.
    complete_time: Optional[float] = None
    #: For receives: the actual source/tag after matching (wildcards resolved).
    matched_src: Optional[int] = None
    matched_tag: Optional[int] = None
    #: Protocol scratch space (protocol state machine tag).
    state: str = "new"
    #: Optional payload bytes riding along (eager path holds them here
    #: between arrival and match).
    payload: Any = None

    def __hash__(self) -> int:
        return self.req_id

    def __eq__(self, other) -> bool:
        return self is other


@dataclass
class CollectiveRequest:
    """A non-blocking collective: a dependency-ordered schedule of rounds.

    ``rounds`` is the rank's :class:`repro.mpi.schedules.Schedule` --
    a list of op lists over the symbolic buffers ``bufs`` resolves and
    the base ``tag`` offsets.  The progress engine starts round *k+1*
    only once every request of round *k* has completed -- which is how
    a host-progressed library really chains e.g. a binomial-tree
    Ibcast, and why its overlap suffers: advancing to the next round
    needs the CPU.
    """

    rank: int
    comm_id: int
    op: str
    rounds: list = field(default_factory=list)
    round_idx: int = 0
    active: list[MpiRequest] = field(default_factory=list)
    complete: bool = False
    complete_time: Optional[float] = None
    req_id: int = field(default_factory=lambda: next(_req_ids))
    comm: Any = None
    tag: int = 0
    #: Symbolic buffer name -> base address.
    bufs: dict = field(default_factory=dict)
    #: Scratch the engine allocated for this collective and frees when
    #: it finishes locally (None: no scratch, or the caller's).
    owned_scratch: Optional[int] = None

    def __hash__(self) -> int:
        return self.req_id

    def __eq__(self, other) -> bool:
        return self is other
