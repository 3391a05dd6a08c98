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

from typing import TYPE_CHECKING, Iterable, Optional

from repro.hw.cluster import Cluster
from repro.hw.params import ClusterSpec
from repro.mpi.communicator import Communicator
from repro.mpi.world import MpiWorld

if TYPE_CHECKING:  # pragma: no cover
    from repro.offload.api import OffloadFramework

__all__ = ["CommBackend", "BackendStack", "make_stack"]


class CommBackend:
    """Rank-local communication API shared by all three runtimes.

    Subclasses implement ``_isend``/``_irecv``/``_wait``/``_ialltoall``
    /``_ibcast``; the public methods add uniform time accounting.
    Requests returned by the ``i*`` methods are opaque -- pass them back
    to :meth:`wait`/:meth:`test` of the same backend only.
    """

    #: Short name used in reports ("intelmpi", "bluesmpi", "proposed").
    name = "abstract"

    def __init__(self, stack: "BackendStack", rank: int):
        self.stack = stack
        self.rank = rank
        self.rt = stack.world.runtime(rank)  # host MPI runtime (always present)
        self.ctx = self.rt.ctx
        self.sim = self.rt.sim
        #: Simulated time spent inside communication calls (incl. waits).
        self.time_in_comm = 0.0

    # -- timing ------------------------------------------------------------
    def _timed(self, gen):
        t0 = self.sim.now
        try:
            result = yield from gen
        finally:
            self.time_in_comm += self.sim.now - t0
        return result

    # -- public API ----------------------------------------------------------
    def isend(self, comm: Communicator, dst: int, addr: int, size: int, tag: int = 0):
        return self._timed(self._isend(comm, dst, addr, size, tag))

    def irecv(self, comm: Communicator, src: int, addr: int, size: int, tag: int = 0):
        return self._timed(self._irecv(comm, src, addr, size, tag))

    def wait(self, req):
        return self._timed(self._wait_any(req))

    def waitall(self, reqs: Iterable):
        def _go():
            for r in list(reqs):
                yield from self._wait_any(r)

        return self._timed(_go())

    def test(self, req):
        return self._timed(self._test_any(req))

    # -- dependent-request shims (e.g. HPL's recv-then-forward ring hop) ------
    def _wait_any(self, req):
        if hasattr(req, "advance"):
            yield from self._wait_shim(req)
        else:
            yield from self._wait(req)

    def _test_any(self, req):
        if hasattr(req, "advance"):
            return (yield from self._test_shim(req))
        return (yield from self._test(req))

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

    def ialltoall(self, comm: Communicator, send_addr: int, recv_addr: int, block: int):
        return self._timed(self._ialltoall(comm, send_addr, recv_addr, block))

    def ibcast(self, comm: Communicator, root: int, addr: int, size: int):
        return self._timed(self._ibcast(comm, root, addr, size))

    def barrier(self, comm: Communicator):
        from repro.mpi import collectives as coll

        return self._timed(coll._ibarrier_and_wait(self.rt, comm))

    # -- to implement ----------------------------------------------------------
    def _isend(self, comm, dst, addr, size, tag):  # pragma: no cover - abstract
        raise NotImplementedError

    def _irecv(self, comm, src, addr, size, tag):  # pragma: no cover - abstract
        raise NotImplementedError

    def _wait(self, req):  # pragma: no cover - abstract
        raise NotImplementedError

    def _test(self, req):  # pragma: no cover - abstract
        raise NotImplementedError

    def _ialltoall(self, comm, send_addr, recv_addr, block):  # pragma: no cover
        raise NotImplementedError

    def _ibcast(self, comm, root, addr, size):  # pragma: no cover - abstract
        raise NotImplementedError


class BackendStack:
    """Shared state for one job under one runtime flavour."""

    def __init__(self, cluster: Cluster, flavor: str):
        self.cluster = cluster
        self.flavor = flavor
        self.world = MpiWorld(cluster)
        self.framework: Optional["OffloadFramework"] = None
        if flavor == "proposed":
            from repro.offload.api import OffloadFramework

            self.framework = OffloadFramework(cluster, mode="gvmi", group_caching=True)
        elif flavor == "bluesmpi":
            from repro.offload.api import OffloadFramework

            self.framework = OffloadFramework(cluster, mode="staged", group_caching=False)
        elif flavor != "intelmpi":
            raise ValueError(f"unknown backend flavor {flavor!r}")
        self._backends: dict[int, CommBackend] = {}

    @property
    def comm_world(self) -> Communicator:
        return self.world.comm_world

    def backend(self, rank: int) -> CommBackend:
        be = self._backends.get(rank)
        if be is None:
            if self.flavor == "intelmpi":
                from repro.baselines.hostmpi import HostMpiBackend

                be = HostMpiBackend(self, rank)
            elif self.flavor == "bluesmpi":
                from repro.baselines.bluesmpi import BluesMpiBackend

                be = BluesMpiBackend(self, rank)
            else:
                from repro.offload.backend import ProposedBackend

                be = ProposedBackend(self, rank)
            self._backends[rank] = be
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
