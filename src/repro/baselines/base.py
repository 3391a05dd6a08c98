"""The common per-rank communication interface and the backend stack.

A :class:`BackendStack` owns everything shared by a job under one
runtime: the cluster, the host-MPI world (all backends need it, at
minimum for intra-node traffic) and, for the offloading runtimes, the
:class:`~repro.offload.api.OffloadFramework` in the right mode.
``stack.backend(rank)`` hands out the rank-local :class:`CommBackend`.

All backend methods are generators (``yield from`` them inside a rank
program).  Every call is timed into ``backend.time_in_comm`` so
application profiles (paper Fig 16c: compute vs "Time spent in MPI")
fall out uniformly.
"""

from __future__ import annotations

from importlib import import_module
from typing import Iterable, Optional

from repro.hw.cluster import Cluster
from repro.hw.params import ClusterSpec
from repro.mpi import collectives as coll
from repro.mpi import schedules
from repro.mpi.communicator import Communicator
from repro.mpi.datatypes import CollectiveRequest, MpiRequest
from repro.mpi.world import MpiWorld
from repro.offload.api import OffloadFramework
from repro.offload.collectives import record_schedule
from repro.offload.requests import OffloadGroupRequest, OffloadRequest

__all__ = ["CommBackend", "GroupBackend", "BackendStack", "make_stack"]


class CommBackend:
    """Rank-local communication API shared by all three runtimes.

    The private ``_isend``/``_irecv``/``_ialltoall``/``_ibcast`` are host
    MPI here; offloading runtimes override what they offload.  The public
    methods are the calls a rank program makes: each is one generator
    that adds its own simulated time to :attr:`time_in_comm`, so a host
    call costs one frame above the runtime's.  Requests returned by the
    ``i*`` methods are opaque -- pass them back to :meth:`wait` /
    :meth:`waitall` / :meth:`test` of the same backend only.
    """

    #: Short name used in reports ("intelmpi", "bluesmpi", "proposed").
    name = "abstract"
    #: The rank's offload endpoint (offloading runtimes only).
    ep = None

    def __init__(self, stack: "BackendStack", rank: int):
        self.stack = stack
        self.rank = rank
        self.rt = stack.world.runtime(rank)  # host MPI runtime (always present)
        self.ctx = self.rt.ctx
        self.sim = self.rt.sim
        #: Simulated time spent inside communication calls (incl. waits).
        self.time_in_comm = 0.0

    # -- public API ----------------------------------------------------------
    def isend(self, comm: Communicator, dst: int, addr: int, size: int, tag: int = 0):
        t0 = self.sim.now
        try:
            return (yield from self._isend(comm, dst, addr, size, tag))
        finally:
            self.time_in_comm += self.sim.now - t0

    def irecv(self, comm: Communicator, src: int, addr: int, size: int, tag: int = 0):
        t0 = self.sim.now
        try:
            return (yield from self._irecv(comm, src, addr, size, tag))
        finally:
            self.time_in_comm += self.sim.now - t0

    def wait(self, req):
        return self.waitall((req,))

    def waitall(self, reqs: Iterable):
        t0 = self.sim.now
        try:
            for req in list(reqs):
                if hasattr(req, "advance"):
                    yield from self._wait_shim(req)
                elif isinstance(req, (MpiRequest, CollectiveRequest)):
                    yield from self.rt.wait(req)
                elif self.ep is not None and isinstance(
                        req, (OffloadRequest, OffloadGroupRequest)):
                    yield from self.ep.wait(req)
                else:
                    raise TypeError(f"{self.name} cannot wait on {type(req).__name__}")
        finally:
            self.time_in_comm += self.sim.now - t0

    def test(self, req):
        t0 = self.sim.now
        try:
            if hasattr(req, "advance"):
                return (yield from self._test_shim(req))
            if isinstance(req, (MpiRequest, CollectiveRequest)):
                yield self.ctx.consume(self.rt.params.mpi_call_overhead)
                yield from self.rt._drain()
            # Offload requests complete via the completion counter; testing
            # them is a host-memory load, no protocol work.
            return bool(req.complete)
        finally:
            self.time_in_comm += self.sim.now - t0

    def ialltoall(self, comm: Communicator, send_addr: int, recv_addr: int, block: int):
        t0 = self.sim.now
        try:
            return (yield from self._ialltoall(comm, send_addr, recv_addr, block))
        finally:
            self.time_in_comm += self.sim.now - t0

    def ibcast(self, comm: Communicator, root: int, addr: int, size: int):
        t0 = self.sim.now
        try:
            return (yield from self._ibcast(comm, root, addr, size))
        finally:
            self.time_in_comm += self.sim.now - t0

    def barrier(self, comm: Communicator):
        t0 = self.sim.now
        try:
            yield from self.rt.wait((yield from coll.ibarrier(self.rt, comm)))
        finally:
            self.time_in_comm += self.sim.now - t0

    # -- dependent-request shims (e.g. HPL's recv-then-forward ring hop) ------
    def _test_shim(self, req):
        """One progress pass over a shim: drain the host engine, then let
        the shim post whatever its dependency now allows."""
        yield self.ctx.consume(self.rt.params.mpi_call_overhead)
        yield from self.rt._drain()
        yield from req.advance()
        return bool(req.complete)

    def _wait_shim(self, req):
        while not (yield from self._test_shim(req)):
            pending = req.blocking_events()
            if pending:
                yield self.sim.any_of(pending)
            else:
                item = yield self.rt.incoming.get()
                yield from self.rt._handle(item)

    # -- host MPI underneath every runtime -------------------------------------
    def _isend(self, comm, dst, addr, size, tag):
        return (yield from self.rt.isend(comm, dst, addr, size, tag))

    def _irecv(self, comm, src, addr, size, tag):
        return (yield from self.rt.irecv(comm, src, addr, size, tag))

    def _ialltoall(self, comm, send_addr, recv_addr, block):
        return (yield from coll.ialltoall(self.rt, comm, send_addr, recv_addr, block))

    def _ibcast(self, comm, root, addr, size):
        return (yield from coll.ibcast(self.rt, comm, root, addr, size))


class GroupBackend(CommBackend):
    """What the two offloading runtimes share: ``ialltoall`` / ``ibcast``
    (the ring pipeline of paper Listing 5) recorded as Group patterns
    from the shared schedules.  Subclasses declare what differs in the
    paper: the transport ``mode``, and whether the Section VII-D request
    caches exist (a recorded request is then reused across calls)."""

    mode: str
    keeps_patterns: bool
    a2a_tag: int
    bcast_tag: int

    def __init__(self, stack, rank):
        super().__init__(stack, rank)
        self.ep = stack.framework.endpoint(rank)
        #: Persistent group requests keyed by the pattern identity.
        self._patterns: dict[tuple, OffloadGroupRequest] = {}

    def _call(self, key: tuple, comm, base_tag, schedule, **addrs):
        """``Group_Offload_call`` on pattern ``key``: the kept request,
        or one recorded now from ``schedule()``."""
        greq = self._patterns.get(key) if self.keeps_patterns else None
        if greq is None:
            greq, _ = record_schedule(self.ep, schedule(), base_tag=base_tag,
                                      world_rank=comm.world_rank, **addrs)
            if self.keeps_patterns:
                self._patterns[key] = greq
        yield from self.ep.group_call(greq)
        return greq

    def _ialltoall(self, comm, send_addr, recv_addr, block):
        me, p = comm.rank_of(self.rank), comm.size
        yield from self.rt.copy_local(send_addr + me * block, recv_addr + me * block, block)
        return (yield from self._call(
            ("a2a", comm.comm_id, send_addr, recv_addr, block), comm, self.a2a_tag,
            lambda: schedules.alltoall(me, p, block),
            send_addr=send_addr, recv_addr=recv_addr))

    def _ibcast(self, comm, root, addr, size):
        me, p = comm.rank_of(self.rank), comm.size
        return (yield from self._call(
            ("bcast", comm.comm_id, root, addr, size), comm, self.bcast_tag,
            lambda: schedules.bcast_ring(me, p, root, size), recv_addr=addr))


#: flavor -> (module, class) of its rank-local backend, imported on first
#: use (those modules import this one).
_BACKENDS = {
    "intelmpi": ("repro.baselines.hostmpi", "HostMpiBackend"),
    "bluesmpi": ("repro.baselines.bluesmpi", "BluesMpiBackend"),
    "proposed": ("repro.offload.backend", "ProposedBackend"),
}


class BackendStack:
    """Shared state for one job under one runtime flavour."""

    def __init__(self, cluster: Cluster, flavor: str):
        if flavor not in _BACKENDS:
            raise ValueError(f"unknown backend flavor {flavor!r}")
        module, name = _BACKENDS[flavor]
        self._backend_cls = getattr(import_module(module), name)
        self.cluster = cluster
        self.flavor = flavor
        self.world = MpiWorld(cluster)
        self.framework: Optional[OffloadFramework] = None
        if issubclass(self._backend_cls, GroupBackend):
            self.framework = OffloadFramework(
                cluster, mode=self._backend_cls.mode,
                group_caching=self._backend_cls.keeps_patterns)
        self._backends: dict[int, CommBackend] = {}

    @property
    def comm_world(self) -> Communicator:
        return self.world.comm_world

    def backend(self, rank: int) -> CommBackend:
        be = self._backends.get(rank)
        if be is None:
            be = self._backends[rank] = self._backend_cls(self, rank)
        return be

    def run(self, program, *args, **kwargs) -> list:
        """Launch ``program(backend, *args, **kwargs)`` on every rank."""
        procs = []
        for rank in range(self.world.size):
            gen = program(self.backend(rank), *args, **kwargs)
            proc = self.cluster.sim.process(gen)
            proc.name = f"{self.flavor}:rank{rank}"
            procs.append(proc)
        done = self.cluster.sim.all_of(procs)
        self.cluster.sim.run(until=done)
        for proc in procs:
            if not proc.ok:  # pragma: no cover - surfaced earlier
                raise proc.value
        return [p.value for p in procs]

    def run_once(self, program, *args, **kwargs) -> list:
        """:meth:`run` for a job that runs nothing afterwards, then
        :meth:`close` -- how every ``apps.*`` entry point runs its job."""
        try:
            return self.run(program, *args, **kwargs)
        finally:
            self.close()

    def close(self) -> None:
        """End of life (``Finalize_Offload`` without simulating): proxy
        loops closed, calendar emptied, upward pointers dropped -- zero
        events processed, and dropping the stack then frees the whole job
        by reference counting (docs/PERFORMANCE.md, "Memory lifetime").
        ``cluster.metrics``, ``cluster.sim.now`` / ``processed_events``,
        ``ctx.busy_time`` and ``backend(r).time_in_comm`` stay readable."""
        if self.framework is not None:
            self.framework.close()
        self.world.close()
        self.cluster.close()
        for be in self._backends.values():
            be.stack = None


def make_stack(flavor: str, spec: ClusterSpec) -> BackendStack:
    """Fresh cluster + stack for one experiment run."""
    return BackendStack(Cluster(spec), flavor)
