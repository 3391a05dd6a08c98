"""Non-blocking collectives for the host runtime.

Every non-blocking collective is a :class:`~repro.mpi.datatypes.CollectiveRequest`
-- a list of dependency-ordered *rounds* of point-to-point operations
advanced by the owning rank's progress engine.  This is exactly how a
host-progressed MPI implements them, and is what limits their overlap:
moving from one round to the next requires the CPU to be inside an MPI
call.  The rounds themselves are data from :mod:`repro.mpi.schedules`
(shared with the offloaded runtimes); this module only binds a
schedule to addresses, a tag and a runtime.  Each function here is a
generator that starts the collective and returns its request; wait on
it with ``rt.wait``.  :func:`allreduce` is the one blocking form.

Algorithms (each described at its schedule): scatter-destination
``ialltoall``; ``ibcast`` by binomial tree (IntelMPI-best-Ibcast
stand-in) or scatter + ring allgather above ``SCAG_THRESHOLD``;
dissemination ``ibarrier``; binomial ``ireduce``; ``allreduce`` =
reduce + broadcast, with real float64 summation so numerics can be
validated.

Tags: collective traffic lives in a reserved tag space above
``COLL_TAG_BASE``; instances on the same communicator draw a per-rank
sequence number, which stays coherent because MPI requires all ranks to
call collectives on a communicator in the same order.  Each instance
owns ``COLL_TAG_STRIDE`` tags; a schedule whose sub-tags would reach
into the next instance's is refused with :class:`MpiError`.

Schedules are immutable, and the last ``SCHEDULE_CACHE`` distinct
``(algorithm, me, p, sizes)`` builds are kept: ranks at the same
position of same-shaped communicators (HPL's process rows, say) start
the same schedule without rebuilding it.  The cache is bounded on
purpose, so a long sweep does not hold every schedule it ever built.

Scratch: a schedule's ``scratch_bytes`` are allocated here and freed by
the engine when the collective finishes locally (the bump allocator
never reuses an address, so the next call still registers afresh).
"""

from __future__ import annotations

from functools import lru_cache

from repro.mpi import schedules
from repro.mpi.communicator import Communicator
from repro.mpi.datatypes import CollectiveRequest, MpiError
from repro.mpi.runtime import MpiRuntime
from repro.mpi.schedules import RECV, SCRATCH, SEND

__all__ = [
    "COLL_TAG_BASE",
    "coll_tag",
    "ialltoall",
    "ibcast",
    "ibarrier",
    "ireduce",
    "allreduce",
]

COLL_TAG_BASE = 1 << 20

#: Tag stride per collective instance: multi-round algorithms may use
#: ``tag + r`` sub-tags, so instances are spaced widely apart.
COLL_TAG_STRIDE = 4096

#: How many built schedules :func:`_schedule` keeps.
SCHEDULE_CACHE = 32


def coll_tag(comm: Communicator, rt: MpiRuntime) -> int:
    """Next collective tag for this (comm, rank); coherent across ranks.
    The sequence lives on the runtime: communicators stay pure
    descriptors, and the counter dies with the job."""
    n = rt._coll_seq.get(comm.comm_id, 0)
    rt._coll_seq[comm.comm_id] = n + 1
    return COLL_TAG_BASE + n * COLL_TAG_STRIDE


@lru_cache(maxsize=SCHEDULE_CACHE)
def _schedule(build, me: int, p: int, sizes: tuple) -> schedules.Schedule:
    """``build(me, p, *sizes)``, checked once: every sub-tag must stay
    inside this instance's ``COLL_TAG_STRIDE``."""
    sched = build(me, p, *sizes)
    for ops in sched.rounds:
        for op in ops:
            if op.tag >= COLL_TAG_STRIDE:
                raise MpiError(
                    f"{build.__name__} on {p} ranks uses sub-tag {op.tag}, "
                    f"past the {COLL_TAG_STRIDE} tags of one collective instance")
    return sched


def _start(rt: MpiRuntime, comm: Communicator, op: str, build, sizes: tuple,
           send_addr=None, recv_addr=None, scratch=None):
    """Start this rank's ``build(me, p, *sizes)``, bound to its addresses."""
    sched = _schedule(build, comm.rank_of(rt.rank), comm.size, sizes)
    owned = None
    if scratch is None and sched.scratch_bytes:
        scratch = owned = rt.ctx.space.alloc(sched.scratch_bytes)
    coll = CollectiveRequest(
        rt.rank, comm.comm_id, op, sched.rounds, comm, coll_tag(comm, rt),
        {SEND: send_addr, RECV: recv_addr, SCRATCH: scratch}, owned)
    yield from rt.start_collective(coll)
    return coll


# ---------------------------------------------------------------------------
# alltoall
# ---------------------------------------------------------------------------

def ialltoall(rt: MpiRuntime, comm: Communicator, send_addr: int, recv_addr: int, block: int):
    """Personalized all-to-all, ``block`` bytes per peer (scatter-destination)."""
    return _start(rt, comm, "ialltoall", schedules.alltoall, (block,), send_addr, recv_addr)


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------

#: Above this size a host Ibcast switches from the binomial tree to the
#: bandwidth-optimal scatter + ring-allgather ("scag") algorithm, as
#: production MPIs do.  Scag moves ~2x(p-1)/p of the data per rank but
#: needs ~2(p-1) *dependent* rounds -- each a CPU-intervention point for
#: a host-progressed runtime, which is exactly why the paper finds
#: IntelMPI's Ibcast overlaps poorly in HPL.
SCAG_THRESHOLD = 64 * 1024


def ibcast(rt: MpiRuntime, comm: Communicator, root: int, addr: int, size: int):
    """Non-blocking broadcast of [addr, +size) from ``root``."""
    if size > SCAG_THRESHOLD and comm.size > 2:
        op, build = "ibcast_scag", schedules.bcast_scag
    else:
        op, build = "ibcast", schedules.bcast_binomial
    return _start(rt, comm, op, build, (root, size), recv_addr=addr)


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------

def ibarrier(rt: MpiRuntime, comm: Communicator):
    """Dissemination barrier (log2(p) dependent rounds)."""
    # One pad per runtime serves every barrier: 1-byte eager messages,
    # 64 of them cover any communicator size.
    if rt._barrier_pad is None:
        rt._barrier_pad = rt.ctx.space.alloc(64)
    return _start(rt, comm, "ibarrier", schedules.barrier, (), scratch=rt._barrier_pad)


# ---------------------------------------------------------------------------
# reduce / allreduce (binomial, float64 sum)
# ---------------------------------------------------------------------------

def ireduce(rt: MpiRuntime, comm: Communicator, root: int, addr: int, nbytes: int):
    """Binomial-tree sum-reduce of float64 data into ``root``'s buffer.

    The buffer is reduced **in place** on intermediate ranks (their
    local contribution is consumed), matching MPI_Reduce with
    MPI_IN_PLACE at every level of the tree.
    """
    if nbytes % 8:
        raise MpiError("reduce payload must be whole float64 words")
    return (yield from _start(
        rt, comm, "ireduce", schedules.reduce, (root, nbytes), recv_addr=addr))


def allreduce(rt: MpiRuntime, comm: Communicator, addr: int, nbytes: int):
    """Blocking sum-allreduce: binomial reduce to rank 0, then broadcast.

    (A fused non-blocking allreduce is not needed by any experiment;
    callers that want overlap use :func:`ireduce` + :func:`ibcast`.)
    """
    yield from rt.wait((yield from ireduce(rt, comm, 0, addr, nbytes)))
    yield from rt.wait((yield from ibcast(rt, comm, 0, addr, nbytes)))
