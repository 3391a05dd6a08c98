#!/usr/bin/env python
"""Render the paper's Fig-1 timelines from an actual simulated run.

Observes the cluster (the event bus records every busy span) and replays
the ring-broadcast-under-compute scenario on (a) host-progressed MPI and (b) the proposed group
offload, then prints per-process busy lanes (``#`` = core-busy time)
with each lane's busy time and utilisation.  You can literally *see*
case 1's forwarding gap (host2 wakes again *after* its compute to serve
the late ring) versus case 3's DPU lanes carrying the ring while the
hosts sit in one solid compute block.  Case 3 is also written as a
Chrome ``trace_event`` file in the temp directory; open it in
https://ui.perfetto.dev to zoom into the same run.

Run:  python examples/timeline_trace.py
"""

import tempfile
from pathlib import Path

from repro.experiments.common import SimBarrier
from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld
from repro.obs import observe_cluster
from repro.offload import OffloadFramework

RANKS = 3
SIZE = 64 * 1024
COMPUTE = 25e-6
CHUNK = 8e-6


def traced_mpi() -> str:
    cluster = Cluster(ClusterSpec(nodes=RANKS, ppn=1))
    obs = observe_cluster(cluster)
    world = MpiWorld(cluster)
    barrier = SimBarrier(cluster.sim, RANKS)

    def program(rt):
        comm = world.comm_world
        buf = rt.ctx.space.alloc(SIZE, fill=1)
        for it in range(2):
            yield from barrier.arrive()
            if it == 1 and rt.rank == 0:
                obs.bus.clear()  # trace the warm iteration
            if rt.rank == 0:
                req = yield from rt.isend(comm, 1, buf, SIZE, tag=it)
            else:
                req = yield from rt.irecv(comm, rt.rank - 1, buf, SIZE, tag=it)
            remaining = COMPUTE
            while remaining > 0:
                step = min(CHUNK, remaining)
                yield rt.ctx.consume(step)
                remaining -= step
                yield from rt.test(req)
            yield from rt.wait(req)
            if 0 < rt.rank < RANKS - 1:
                fwd = yield from rt.isend(comm, rt.rank + 1, buf, SIZE, tag=it)
                yield from rt.wait(fwd)
        return None

    world.run(program, ranks=range(RANKS))
    return obs.timeline(width=68, entities=[f"host{r}" for r in range(RANKS)])


def traced_offload(trace_path: Path) -> str:
    cluster = Cluster(ClusterSpec(nodes=RANKS, ppn=1, proxies_per_dpu=1))
    obs = observe_cluster(cluster)
    framework = OffloadFramework(cluster)
    barrier = SimBarrier(cluster.sim, RANKS)

    def make(rank):
        def prog(sim):
            ep = framework.endpoint(rank)
            buf = ep.ctx.space.alloc(SIZE, fill=1)
            greq = ep.group_start()
            if rank == 0:
                ep.group_send(greq, buf, SIZE, dst=1, tag=4)
                ep.group_barrier(greq)
            else:
                ep.group_recv(greq, buf, SIZE, src=rank - 1, tag=4)
                ep.group_barrier(greq)
                if rank + 1 < RANKS:
                    ep.group_send(greq, buf, SIZE, dst=rank + 1, tag=4)
            ep.group_end(greq)
            for it in range(2):
                yield from barrier.arrive()
                if it == 1 and rank == 0:
                    obs.bus.clear()
                yield from ep.group_call(greq)
                yield ep.ctx.consume(COMPUTE)
                yield from ep.group_wait(greq)
            return None

        return prog

    procs = [cluster.sim.process(make(r)(cluster.sim)) for r in range(RANKS)]
    cluster.sim.run(until=cluster.sim.all_of(procs))
    lanes = [f"host{r}" for r in range(RANKS)] + [f"dpu{r}" for r in range(RANKS)]
    obs.write_chrome_trace(trace_path)
    return obs.timeline(width=68, entities=lanes)


def main() -> None:
    print("case 1 -- standard MPI (Listing 1): the forward leaves host1")
    print("only at a test boundary after its compute chunk:\n")
    print(traced_mpi())
    print("\ncase 3 -- proposed group offload (Listing 5): the DPU lanes")
    print("carry the ring while the hosts sit in one solid compute block:\n")
    trace_path = Path(tempfile.gettempdir()) / "timeline_trace_offload.json"
    print(traced_offload(trace_path))
    print(f"\ncase 3 as a Perfetto trace: {trace_path}")


if __name__ == "__main__":
    main()
