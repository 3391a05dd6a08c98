"""Offloaded collectives: Ialltoall and Iallreduce as Group DAGs.

Each builder hands one rank's :mod:`repro.mpi.schedules` schedule to
:func:`record_schedule`, the Group interpreter, which records the whole
round structure into one
:class:`~repro.offload.requests.OffloadGroupRequest`.  Once the
pattern is shipped (``Group_Offload_call``) the whole collective --
message posting, barrier counters, and for Iallreduce the arithmetic
itself (DPU-side :meth:`group_reduce` entries) -- runs on the proxies
with **zero host CPU inside the window**: the host is free between the
call and ``Group_Wait``, which the trace invariant
(:func:`repro.obs.invariants.check_invariants`) enforces.

Barrier discipline: the group executor flushes barrier counters per
*segment* (the ops between consecutive barriers) and the recorder puts
one barrier between consecutive schedule rounds, so

* every rank of the communicator has the **same number of rounds**
  (the executor matches barriers by count) -- ranks idle in a round
  still record that round's barrier;
* a send that forwards received data sits in a **later round** than
  its receive, so the barrier's counter await orders the remote write
  before the forward.

Payloads of reductions are float64 words (``group_reduce``'s element
type); their sizes must be multiples of 8 bytes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.mpi import schedules
from repro.mpi.schedules import RECV, SCRATCH, SEND, Schedule
from repro.offload.requests import OffloadError, OffloadGroupRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.offload.api import OffloadEndpoint

__all__ = [
    "build_ialltoall",
    "build_iallreduce",
    "allreduce_algorithm",
    "TAG_ALLREDUCE",
]

#: Default tag base of an Iallreduce, a page of its own so per-round
#: tags (``base + round``) never collide with other patterns.  Callers
#: overlapping two instances pass distinct bases.
TAG_ALLREDUCE = 0x7C00


def record_schedule(ep: "OffloadEndpoint", sched: Schedule, *, base_tag: int,
                    send_addr: Optional[int] = None, recv_addr: Optional[int] = None,
                    world_rank: Callable[[int], int] = int,
                    ) -> tuple[OffloadGroupRequest, Optional[int]]:
    """The Group interpreter: record ``sched`` as one sealed pattern.

    Ops become ``group_send`` / ``group_recv`` / ``group_reduce``
    entries in order, with a ``group_barrier`` between consecutive
    rounds; ``world_rank`` translates the schedule's communicator ranks
    (identity by default).  A Group pattern has no local-copy entry:
    ``copy`` ops are the caller's, before ``Group_Offload_call``.
    Returns ``(request, scratch_addr)``; the scratch (``None`` when the
    schedule needs none) must stay allocated while the request lives.
    Each distinct address, tag or peer is one int object per framework
    (``ep.framework.operands``), however many ops and ranks repeat it: an
    SPMD pattern puts the same addresses and tags on every rank, and the
    requests keep their ops for their whole life.
    """
    greq = ep.group_start()
    scratch = ep.ctx.space.alloc(sched.scratch_bytes) if sched.scratch_bytes else None
    bufs = {SEND: send_addr, RECV: recv_addr, SCRATCH: scratch}
    minted = ep.framework.operands
    for i, ops in enumerate(sched.rounds):
        if i:
            ep.group_barrier(greq)
        for op in ops:
            addr = bufs[op.buf] + op.off
            if op.kind == "copy":
                continue
            addr = minted.setdefault(addr, addr)
            if op.kind == "reduce":
                src = bufs[op.src] + op.src_off
                ep.group_reduce(greq, minted.setdefault(src, src), addr, op.nbytes)
                continue
            tag = base_tag + op.tag
            tag = minted.setdefault(tag, tag)
            peer = world_rank(op.peer)
            peer = minted.setdefault(peer, peer)
            if op.kind == "send":
                ep.group_send(greq, addr, op.nbytes, dst=peer, tag=tag)
            else:
                ep.group_recv(greq, addr, op.nbytes, src=peer, tag=tag)
    ep.group_end(greq)
    return greq, scratch


def _comm_rank(ep: "OffloadEndpoint", comm_size: int) -> int:
    """``ep.rank`` as a rank of the communicator the builders assume
    (world ranks ``0 .. comm_size-1``).  An endpoint outside it would
    record an aliased rank's pattern and deadlock later."""
    if not 0 <= ep.rank < comm_size:
        raise OffloadError(f"rank {ep.rank} outside a communicator of {comm_size}")
    return ep.rank


def allreduce_algorithm(comm_size: int) -> str:
    """The Iallreduce algorithm for a communicator size: recursive
    doubling (log rounds) when the size is a power of two, else the
    ring, the only one that handles any size."""
    return "rd" if comm_size > 0 and comm_size & (comm_size - 1) == 0 else "ring"


def build_ialltoall(ep: "OffloadEndpoint", send_addr: int, recv_addr: int,
                    block: int, *, comm_size: int,
                    base_tag: int) -> OffloadGroupRequest:
    """Record the scatter-destination exchange of ``block`` bytes per
    peer (the pattern of paper Fig 15): every pair posted up front, one
    tag, no barrier.  The caller moves the self block itself."""
    sched = schedules.alltoall(_comm_rank(ep, comm_size), comm_size, block)
    return record_schedule(ep, sched, base_tag=base_tag,
                           send_addr=send_addr, recv_addr=recv_addr)[0]


def build_iallreduce(ep: "OffloadEndpoint", addr: int, size: int, *,
                     comm_size: int,
                     base_tag: int = TAG_ALLREDUCE,
                     ) -> tuple[OffloadGroupRequest, Optional[int]]:
    """Record an in-place sum-Iallreduce over ``size`` bytes of float64.

    Returns ``(request, scratch_addr)``; the scratch region (``None``
    when the pattern needs none, e.g. single-rank) holds the per-round
    inbound partials and must stay allocated for the request's lifetime
    -- re-calling the cached pattern reuses it.
    """
    if size % 8:
        raise OffloadError("Iallreduce operates on float64 words "
                           f"(size must be a multiple of 8, got {size})")
    rd = allreduce_algorithm(comm_size) == "rd"
    build = schedules.allreduce_rd if rd else schedules.allreduce_ring
    sched = build(_comm_rank(ep, comm_size), comm_size, size)
    return record_schedule(ep, sched, base_tag=base_tag, recv_addr=addr)
