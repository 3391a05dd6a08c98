"""MpiWorld: builds per-rank runtimes and launches rank programs."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.hw.cluster import Cluster, LazySeq
from repro.mpi.communicator import Communicator
from repro.mpi.datatypes import MpiError
from repro.mpi.runtime import MpiRuntime
from repro.sim import Process

__all__ = ["MpiWorld"]


class MpiWorld:
    """One MPI job spanning every host rank of a cluster.

    ``launch`` starts one generator per rank (the "rank program"); a
    rank program receives its :class:`~repro.mpi.runtime.MpiRuntime`
    and talks to the library exclusively through it::

        world = MpiWorld(cluster)

        def program(rt):
            ...
            req = yield from rt.isend(world.comm_world, dst=1, addr=a, size=n, tag=0)
            yield from rt.wait(req)

        world.run(program)
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.sim = cluster.sim
        #: Per-rank runtimes, built (and hung on ``ctx.mpi``) on first index.
        self.runtimes = LazySeq("rank", cluster.world_size, self._make_runtime)
        self.comm_world = Communicator.world(cluster.world_size)

    def _make_runtime(self, rank: int) -> MpiRuntime:
        rt = MpiRuntime(self, self.cluster.ranks[rank])
        rt.ctx.mpi = rt
        return rt

    def close(self) -> None:
        """End of life: every built runtime stops pointing back here, at
        its peers and off its context; ``size`` and the runtimes'
        counters stay."""
        self.runtimes.close()
        for rt in self.runtimes.materialized():
            rt.world = rt.ctx.mpi = None
            rt._routes.clear()

    @property
    def size(self) -> int:
        return len(self.runtimes)

    def runtime(self, world_rank: int) -> MpiRuntime:
        return self.runtimes[world_rank]

    # ------------------------------------------------------------------
    def launch(
        self,
        program: Callable,
        ranks: Optional[Sequence[int]] = None,
        *args,
        **kwargs,
    ) -> list[Process]:
        """Start ``program(rt, *args, **kwargs)`` on the given ranks."""
        targets = range(self.size) if ranks is None else ranks
        procs = []
        for r in targets:
            rt = self.runtimes[r]
            gen = program(rt, *args, **kwargs)
            proc = self.sim.process(gen)
            proc.name = f"rank{r}:{getattr(program, '__name__', 'program')}"
            procs.append(proc)
        return procs

    def run(
        self,
        program: Callable,
        ranks: Optional[Sequence[int]] = None,
        *args,
        **kwargs,
    ) -> list:
        """Launch and run to completion; returns per-rank return values."""
        procs = self.launch(program, ranks, *args, **kwargs)
        done = self.sim.all_of(procs)
        self.sim.run(until=done)
        for proc in procs:
            if not proc.ok:  # pragma: no cover - surfaced by run() already
                raise proc.value
        return [proc.value for proc in procs]

    # ------------------------------------------------------------------
    def assert_quiescent(self) -> None:
        """Raise if any rank still has protocol state in flight.

        Useful at the end of integration tests: a leftover posted
        receive, unexpected message, or un-FINed send means the test's
        communication did not actually complete cleanly.
        """
        # A rank that never ran has no runtime and no state to leak.
        for rt in self.runtimes.materialized():
            if len(rt.incoming):
                raise MpiError(f"rank {rt.rank}: {len(rt.incoming)} unprocessed items")
            if not rt.matching.idle():
                raise MpiError(
                    f"rank {rt.rank}: matching not idle "
                    f"(posted={rt.matching.posted_count}, "
                    f"unexpected={rt.matching.unexpected_count})"
                )
            if rt._awaiting_fin:
                raise MpiError(f"rank {rt.rank}: sends awaiting FIN")
            if rt._collectives:
                raise MpiError(f"rank {rt.rank}: active collectives remain")
