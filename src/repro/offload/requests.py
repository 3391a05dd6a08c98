"""Request objects and recorded operations for the offload APIs."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

__all__ = ["OffloadError", "OffloadRequest", "GroupOp", "ReduceOp", "BARRIER",
           "OffloadGroupRequest"]

_ids = itertools.count()


class OffloadError(RuntimeError):
    """Semantic misuse of the offload API."""


@dataclass
class OffloadRequest:
    """Handle for one Basic-primitive operation (Listing 2's ``req``)."""

    kind: str  # "send" | "recv"
    rank: int
    peer: int
    tag: int
    addr: int
    size: int
    req_id: int = field(default_factory=lambda: next(_ids))
    complete: bool = False
    complete_time: Optional[float] = None
    #: When the request's control message was handed to the fabric
    #: (stamped by the endpoint; feeds the post->completion histogram).
    post_time: Optional[float] = None
    #: Triggered (by the proxy's completion write) when complete.
    event: Any = None
    #: Retransmit payload saved by the endpoint when resilience is on:
    #: ``(proxy_ctx, ("rts"|"rtr", info))``.
    resend: Any = None
    #: True once this request left the offload path (liveness deadline
    #: missed) and is being completed host-to-host instead.
    fallback: bool = False

    def __hash__(self) -> int:
        return self.req_id


class GroupOp(NamedTuple):
    """One recorded send, recv or barrier of a group pattern (the paper's
    ``Group_op``).

    A tuple, so the op is its own cache signature; the recv / reduce /
    barrier ops double as their plan entries (see ``group_cache``).  An
    op keeps only the fields its kind uses: a reduce is a
    :class:`ReduceOp`.
    """

    #: "send" | "recv" | "barrier"
    kind: str
    addr: int = 0
    size: int = 0
    #: Destination rank (send) / source rank (recv); -1 for barriers.
    peer: int = -1
    tag: int = 0


class ReduceOp(NamedTuple):
    """A recorded DPU-side accumulate, ``addr2 += addr`` over ``size``
    bytes of float64.  Its kind is the class's: no other op is a
    three-tuple, so two ops of different kinds never compare equal."""

    addr: int
    size: int
    #: The accumulator (``addr`` is the source the DPU folds in).
    addr2: int
    kind = "reduce"


#: ``Local_barrier_Goffload``: every recorded barrier is this one op.
BARRIER = GroupOp("barrier")


@dataclass
class OffloadGroupRequest:
    """Handle for a recorded group pattern (Listing 4's request object).

    Lifecycle (enforced):
    ``recording`` --Group_Offload_end--> ``ready``
    --Group_Offload_call--> ``inflight`` --completion--> ``done``
    (and back to ``ready``: a recorded pattern may be re-called, which
    is what makes the Section VII-D caches pay off).
    """

    rank: int
    req_id: int = field(default_factory=lambda: next(_ids))
    state: str = "recording"
    #: The recorded queue; a tuple once sealed.
    ops: list[GroupOp] = field(default_factory=list)
    complete: bool = False
    complete_time: Optional[float] = None
    #: When the latest Group_Offload_call was shipped to the proxy.
    post_time: Optional[float] = None
    event: Any = None
    #: Times Group_Offload_call has been issued on this request.
    calls: int = 0
    #: The HostPlan behind the in-flight call (saved when resilience is
    #: on, so Group_Wait can retransmit the call or re-ship the plan).
    resend_plan: Any = None
    #: Set by a ``stale``-flagged plan_nack: the proxy faulted on a
    #: revoked key, so the next retransmit must rebuild the plan from
    #: scratch (fresh registrations + descriptor exchange) rather than
    #: re-ship the saved entries.
    needs_rebuild: bool = False
    #: The signature, built once by :meth:`seal` (``Group_Offload_end``).
    sealed: Optional[tuple] = field(default=None, repr=False)

    def record(self, op: GroupOp) -> None:
        if self.state != "recording":
            raise OffloadError(
                f"cannot record into a group request in state {self.state!r} "
                "(Group_Offload_end already called?)"
            )
        self.ops.append(op)

    def seal(self) -> None:
        """Freeze the op queue; the signature is built here, once."""
        self.ops = tuple(self.ops)
        self.sealed = (self.rank, self.ops)

    def signature(self) -> tuple:
        """Identity of the recorded pattern for the request caches: the
        rank and the ops themselves (no copy of either)."""
        return self.sealed or (self.rank, tuple(self.ops))

    def __hash__(self) -> int:
        return self.req_id
