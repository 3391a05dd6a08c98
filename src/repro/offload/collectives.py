"""Offloaded collectives: Ialltoall / Ibcast / Iallgather / Iallreduce
as Group DAGs.

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
    "build_ibcast",
    "build_iallgather",
    "build_iallreduce",
    "allreduce_algorithm",
    "TAG_BCAST",
    "TAG_ALLGATHER",
    "TAG_ALLREDUCE",
]

#: Default tag bases, one page per collective so per-round tags
#: (``base + round``) never collide across concurrently-built patterns
#: of different collectives.  Callers overlapping two instances of the
#: *same* collective pass distinct bases.
TAG_BCAST = 0x7A00
TAG_ALLGATHER = 0x7B00
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
    """
    greq = ep.group_start()
    scratch = ep.ctx.space.alloc(sched.scratch_bytes) if sched.scratch_bytes else None
    bufs = {SEND: send_addr, RECV: recv_addr, SCRATCH: scratch}
    for i, ops in enumerate(sched.rounds):
        if i:
            ep.group_barrier(greq)
        for op in ops:
            addr = bufs[op.buf] + op.off
            if op.kind == "send":
                ep.group_send(greq, addr, op.nbytes, dst=world_rank(op.peer),
                              tag=base_tag + op.tag)
            elif op.kind == "recv":
                ep.group_recv(greq, addr, op.nbytes, src=world_rank(op.peer),
                              tag=base_tag + op.tag)
            elif op.kind == "reduce":
                ep.group_reduce(greq, bufs[op.src] + op.src_off, addr, op.nbytes)
    ep.group_end(greq)
    return greq, scratch


def _comm_rank(ep: "OffloadEndpoint", comm_size: int, root: int = 0) -> int:
    """``ep.rank`` as a rank of the communicator the builders assume
    (world ranks ``0 .. comm_size-1``).  An endpoint or root outside it
    would record an aliased rank's pattern and deadlock later."""
    if not (0 <= ep.rank < comm_size and 0 <= root < comm_size):
        raise OffloadError(
            f"rank {ep.rank} / root {root} outside a communicator of {comm_size}")
    return ep.rank


def allreduce_algorithm(comm_size: int, algorithm: str = "auto") -> str:
    """Resolve the Iallreduce algorithm name for a communicator size.

    ``auto`` prefers recursive doubling (log rounds) when the size is a
    power of two and falls back to the ring otherwise; the ring's
    ``2(p-1)`` rounds only win on very large payloads at small ``p``,
    which callers can force with ``algorithm="ring"``.
    """
    pow2 = comm_size > 0 and comm_size & (comm_size - 1) == 0
    if algorithm == "auto":
        return "rd" if pow2 else "ring"
    if algorithm not in ("rd", "ring"):
        raise OffloadError(f"unknown Iallreduce algorithm {algorithm!r}")
    if algorithm == "rd" and not pow2:
        raise OffloadError(
            f"recursive doubling needs a power-of-two communicator, got {comm_size}"
        )
    return algorithm


def build_ialltoall(ep: "OffloadEndpoint", send_addr: int, recv_addr: int,
                    block: int, *, comm_size: int,
                    base_tag: int) -> OffloadGroupRequest:
    """Record the scatter-destination exchange of ``block`` bytes per
    peer (the pattern of paper Fig 15): every pair posted up front, one
    tag, no barrier.  The caller moves the self block itself."""
    sched = schedules.alltoall(_comm_rank(ep, comm_size), comm_size, block)
    return record_schedule(ep, sched, base_tag=base_tag,
                           send_addr=send_addr, recv_addr=recv_addr)[0]


def build_ibcast(ep: "OffloadEndpoint", addr: int, size: int, *,
                 root: int = 0, comm_size: int,
                 base_tag: int = TAG_BCAST) -> OffloadGroupRequest:
    """Record a binomial-tree broadcast of ``[addr, addr+size)``.

    Round ``k``: virtual ranks ``v < 2**k`` forward to ``v + 2**k``
    (when that rank exists); ``v`` in ``[2**k, 2**(k+1))`` receive.
    A rank's receive always precedes its forwards by at least one
    barrier, so the tree pipelines without host involvement.  Returns
    the sealed request (``Group_Offload_end`` already applied).
    """
    sched = schedules.bcast_binomial(
        _comm_rank(ep, comm_size, root), comm_size, root, size, levels=True)
    return record_schedule(ep, sched, base_tag=base_tag, recv_addr=addr)[0]


def build_iallgather(ep: "OffloadEndpoint", recv_addr: int, block_size: int, *,
                     comm_size: int,
                     base_tag: int = TAG_ALLGATHER) -> OffloadGroupRequest:
    """Record a ring allgather into ``comm_size`` contiguous blocks.

    The caller places this rank's own contribution at
    ``recv_addr + rank * block_size`` **before** ``Group_Offload_call``;
    round ``r`` then forwards block ``(me - r) % p`` to the right
    neighbour while block ``(me - r - 1) % p`` arrives from the left,
    directly into its final slot (no scratch copies).
    """
    sched = schedules.allgather(_comm_rank(ep, comm_size), comm_size, block_size)
    return record_schedule(ep, sched, base_tag=base_tag, recv_addr=recv_addr)[0]


def build_iallreduce(ep: "OffloadEndpoint", addr: int, size: int, *,
                     comm_size: int, algorithm: str = "auto",
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
    algo = allreduce_algorithm(comm_size, algorithm)
    build = schedules.allreduce_rd if algo == "rd" else schedules.allreduce_ring
    sched = build(_comm_rank(ep, comm_size), comm_size, size)
    return record_schedule(ep, sched, base_tag=base_tag, recv_addr=addr)
