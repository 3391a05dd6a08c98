"""Envelopes, requests and constants for the MPI runtime.

The three records here are built once per message (an envelope and a
request on each side), so they are plain slotted classes with
positional constructors: no dataclass machinery, no per-record id
factory.  None of them refers back to its runtime, and a request's link
to its collective is cleared when the request completes, so finished
traffic leaves nothing for the cyclic collector.
"""

from __future__ import annotations

import itertools
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


class Envelope:
    """The matching triple (plus communicator) of one message."""

    __slots__ = ("src", "dst", "tag", "comm_id")

    def __init__(self, src: int, dst: int, tag: int, comm_id: int):
        self.src = src  # world rank of the sender
        self.dst = dst  # world rank of the receiver
        self.tag = tag
        self.comm_id = comm_id

    def matches_recv(self, recv_src: int, recv_tag: int, comm_id: int) -> bool:
        """Would a posted receive with these selectors match this message?"""
        if comm_id != self.comm_id:
            return False
        if recv_src != ANY_SOURCE and recv_src != self.src:
            return False
        if recv_tag != ANY_TAG and recv_tag != self.tag:
            return False
        return True


class MpiRequest:
    """One non-blocking point-to-point operation."""

    __slots__ = (
        "kind", "rank", "peer", "tag", "comm_id", "addr", "size", "req_id",
        "complete", "complete_time", "matched_src", "matched_tag", "state",
        "coll",
    )

    def __init__(self, kind: str, rank: int, peer: int, tag: int, comm_id: int,
                 addr: int, size: int):
        self.kind = kind  # "send" | "recv"
        self.rank = rank  # world rank owning this request
        #: Destination (send) / selector source (recv); may be ANY_SOURCE.
        self.peer = peer
        self.tag = tag
        self.comm_id = comm_id
        self.addr = addr
        self.size = size
        self.req_id = next(_req_ids)
        self.complete = False
        #: Simulated time at which the operation semantically completed.
        self.complete_time: Optional[float] = None
        #: For receives: the actual source/tag after matching (wildcards
        #: resolved).
        self.matched_src: Optional[int] = None
        self.matched_tag: Optional[int] = None
        #: Protocol scratch space (protocol state machine tag).
        self.state = "new"
        #: The collective whose current round posted this request, until
        #: the request completes (then None again).
        self.coll: Optional[CollectiveRequest] = None

    def __hash__(self) -> int:
        return self.req_id


class CollectiveRequest:
    """A non-blocking collective: a dependency-ordered schedule of rounds.

    ``rounds`` is the rank's :class:`repro.mpi.schedules.Schedule` rounds
    -- a tuple of op tuples over the symbolic buffers ``bufs`` resolves
    and the base ``tag`` offsets.  The progress engine starts round
    *k+1* only once every request of round *k* has completed
    (``pending``, the round's requests still incomplete, reaches 0) --
    which is how a host-progressed library really chains e.g. a
    binomial-tree Ibcast, and why its overlap suffers: advancing to the
    next round needs the CPU.
    """

    __slots__ = (
        "rank", "comm_id", "op", "rounds", "round_idx", "pending", "complete",
        "complete_time", "req_id", "comm", "tag", "bufs", "owned_scratch",
    )

    def __init__(self, rank: int, comm_id: int, op: str, rounds: tuple, comm: Any,
                 tag: int, bufs: dict, owned_scratch: Optional[int] = None):
        self.rank = rank
        self.comm_id = comm_id
        self.op = op
        self.rounds = rounds
        self.round_idx = 0
        self.pending = 0
        self.complete = False
        self.complete_time: Optional[float] = None
        self.req_id = next(_req_ids)
        self.comm = comm
        self.tag = tag
        #: Symbolic buffer name -> base address.
        self.bufs = bufs
        #: Scratch the engine allocated for this collective and frees when
        #: it finishes locally (None: no scratch, or the caller's).
        self.owned_scratch = owned_scratch

    def __hash__(self) -> int:
        return self.req_id
