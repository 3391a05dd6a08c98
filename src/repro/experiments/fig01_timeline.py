"""Fig 1: ring-broadcast timeline -- MPI vs staging offload vs proposed.

The paper's opening figure: a multi-step ring broadcast while every
process is busy computing.  Case (1), standard MPI: a middle process
cannot forward until its CPU re-enters an MPI call after the compute --
the CPU-intervention delay.  Case (2), staging offload expressed with
the proposed primitives: the pattern progresses on the DPU but every
hop bounces through DPU DRAM.  Case (3), the proposed cross-GVMI
offload: DPU progression *and* direct host-to-host data movement.

We measure, from a globally synchronised start, the time until the
*last* rank has both finished its compute window and received the
data; caches are warmed by one prior iteration (the paper's timeline
depicts steady state).
"""

from __future__ import annotations

from repro.apps.harness import compute_with_tests
from repro.experiments.common import FigureResult, Series, SimBarrier, Sweep, figure_runner
from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld
from repro.offload import OffloadFramework

__all__ = ["run", "sweeps", "build", "SIZE", "COMPUTE"]

SIZE = 64 * 1024
#: Per-rank compute window, chosen between the GVMI ring's completion
#: (~25 us) and the staged ring's (~60 us) so the three cases separate
#: exactly as the paper's timeline sketches: the proposed scheme hides
#: the whole ring, staging spills past the compute window, and standard
#: MPI adds the CPU-intervention forward delay on top.
COMPUTE = 30e-6
CHUNK = 10e-6
RANKS = 4


def _mpi_case(spec: ClusterSpec) -> float:
    """Listing 1: ring over Isend/Irecv with test-driven compute."""
    with Cluster(spec) as cl:
        world = MpiWorld(cl)
        barrier = SimBarrier(cl.sim, RANKS)
        finish: dict[tuple[int, int], float] = {}

        def program(rt):
            comm = world.comm_world
            buf = rt.ctx.space.alloc(SIZE, fill=1)
            me = rt.rank
            for it in range(2):  # iteration 0 warms registration caches
                yield from barrier.arrive()
                t0 = rt.sim.now
                if me == 0:
                    req = yield from rt.isend(comm, 1, buf, SIZE, tag=2 + it)
                else:
                    req = yield from rt.irecv(comm, me - 1, buf, SIZE, tag=2 + it)
                # the while(!complete){do_compute(); MPI_Test()} loop
                remaining = COMPUTE
                while remaining > 0:
                    step = min(CHUNK, remaining)
                    yield rt.ctx.consume(step)
                    remaining -= step
                    yield from rt.test(req)
                yield from rt.wait(req)
                if me != 0 and me + 1 < RANKS:
                    fwd = yield from rt.isend(comm, me + 1, buf, SIZE, tag=2 + it)
                    yield from rt.wait(fwd)
                finish[(it, me)] = rt.sim.now - t0
            return None

        world.run(program, ranks=range(RANKS))
        return max(v for (it, _), v in finish.items() if it == 1)


def _offload_case(spec: ClusterSpec, mode: str) -> float:
    """Listing 5: the whole ring recorded and offloaded up front."""
    with Cluster(spec) as cl:
        fw = OffloadFramework(cl, mode=mode)
        barrier = SimBarrier(cl.sim, RANKS)
        finish: dict[tuple[int, int], float] = {}

        def make(rank):
            def prog(sim):
                ep = fw.endpoint(rank)
                buf = ep.ctx.space.alloc(SIZE, fill=1)
                greq = ep.group_start()
                if rank == 0:
                    ep.group_send(greq, buf, SIZE, dst=1, tag=2)
                    ep.group_barrier(greq)
                else:
                    ep.group_recv(greq, buf, SIZE, src=rank - 1, tag=2)
                    ep.group_barrier(greq)
                    if rank + 1 < RANKS:
                        ep.group_send(greq, buf, SIZE, dst=rank + 1, tag=2)
                ep.group_end(greq)
                for it in range(2):  # iteration 0 warms the request caches
                    yield from barrier.arrive()
                    t0 = sim.now
                    yield from ep.group_call(greq)
                    yield from compute_with_tests(
                        _FakeBackend(ep), greq, COMPUTE, chunk=CHUNK
                    )
                    yield from ep.group_wait(greq)
                    finish[(it, rank)] = sim.now - t0
                return None

            return prog

        procs = [cl.sim.process(make(r)(cl.sim)) for r in range(RANKS)]
        cl.sim.run(until=cl.sim.all_of(procs))
        return max(v for (it, _), v in finish.items() if it == 1)


class _FakeBackend:
    """Just enough CommBackend surface for compute_with_tests."""

    def __init__(self, ep):
        self.ep = ep
        self.ctx = ep.ctx

    def test(self, req):
        # Offload requests complete via the completion counter: testing
        # is a host-memory load, effectively free.
        return iter(())


def _case(kind: str) -> float:
    """One case: ``mpi`` (Listing 1) or an offload mode (Listing 5)."""
    spec = ClusterSpec(nodes=RANKS, ppn=1, proxies_per_dpu=1)
    if kind == "mpi":
        return _mpi_case(spec)
    return _offload_case(spec, kind)


def sweeps(scale: str) -> list[Sweep]:
    return [Sweep("fig01", _case, [("mpi",), ("staged",), ("gvmi",)])]


def build(scale: str, cases: list) -> FigureResult:
    mpi_t, staged_t, gvmi_t = (t * 1e6 for t in cases)
    fig = FigureResult(
        fig_id="fig01",
        title="Ring broadcast under compute: completion at the last rank",
        series=[
            Series("standard MPI", ["time-to-last-rank"], [mpi_t], unit="us"),
            Series("staging offload", ["time-to-last-rank"], [staged_t], unit="us"),
            Series("proposed (GVMI)", ["time-to-last-rank"], [gvmi_t], unit="us"),
        ],
        config={"ranks": RANKS, "size": SIZE, "compute_us": COMPUTE * 1e6},
    )
    fig.check(
        "proposed (nearly) hides the ring under compute",
        gvmi_t <= COMPUTE * 1e6 * 1.6,
        f"{gvmi_t:.1f}us vs {COMPUTE * 1e6:.0f}us compute",
    )
    fig.check(
        "proposed beats staging offload (no bounce through DPU DRAM)",
        gvmi_t < staged_t,
        f"{gvmi_t:.1f}us vs {staged_t:.1f}us",
    )
    fig.check(
        "proposed beats CPU-progressed MPI (no forward delay)",
        gvmi_t < mpi_t,
        f"MPI {mpi_t:.1f}us",
    )
    return fig


run = figure_runner(sweeps, build)
