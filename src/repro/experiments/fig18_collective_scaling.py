"""Fig 18: thousand-rank collective scaling, offloaded vs host MPI.

Two questions the scale-out machinery (first-touch per-rank state,
batched proxy queues, offloaded collectives) exists to answer:

* **Latency scaling** -- how does one sum-Iallreduce behave from 64 to
  4096 ranks when the whole collective (messages, barrier counters,
  and the float64 arithmetic itself) runs on the DPU proxies, versus
  the classic host-MPI reduce+broadcast?  The offloaded window costs
  more in raw latency (ARM cores are slower and every hop transits the
  proxy), but it needs **zero host CPU** between ``Group_Offload_call``
  and ``Group_Wait`` -- which the second half of the figure cashes in.
* **ML training step** -- data-parallel training overlaps bucketed
  gradient allreduces with ongoing backpropagation.  Host-MPI blocking
  allreduces serialize compute and communication; the offloaded
  version launches each bucket's collective as it becomes ready and
  keeps computing, so the step time approaches
  ``max(compute, collective)`` instead of their sum.

Both halves run with proxy batching enabled -- this figure doubles as
the end-to-end exercise of the scale-out path (quick scale tops out at
64 ranks; paper scale sweeps to 4096, all on the exact engine).
"""

from __future__ import annotations

from repro.apps.harness import mean
from repro.experiments.common import (
    FigureResult, Series, SimBarrier, Sweep, figure_runner, fmt_size,
)
from repro.hw import Cluster, ClusterSpec
from repro.hw.params import MachineParams
from repro.mpi import MpiWorld
from repro.mpi.collectives import allreduce
from repro.offload import OffloadFramework, build_iallreduce

__all__ = ["run", "sweeps", "build"]

QUICK_RANKS = [16, 32, 64]
PAPER_RANKS = [64, 256, 1024, 4096]

SMALL_BYTES = 2048
QUICK_LARGE_BYTES = 256 * 1024
PAPER_LARGE_BYTES = 1024 * 1024

#: ML-step shape: buckets of gradient become ready one compute slice at
#: a time (DDP-style bucketed allreduce).
ML_BUCKETS = 4
ML_COMPUTE_S = 300e-6


def _spec(scale: str, ranks: int) -> ClusterSpec:
    ppn = 16 if scale == "paper" else 4
    return ClusterSpec(
        nodes=max(1, ranks // ppn),
        ppn=ppn,
        proxies_per_dpu=4 if scale == "paper" else 2,
        params=MachineParams(proxy_batch_drain=16),
    )


def _ml_ranks(scale: str) -> int:
    return 1024 if scale == "paper" else 16


def _ml_bucket_bytes(scale: str) -> int:
    return PAPER_LARGE_BYTES if scale == "paper" else 128 * 1024


def _run_ranks(cl: Cluster, progs) -> None:
    procs = [cl.sim.process(g) for g in progs]
    cl.sim.run(until=cl.sim.all_of(procs))
    for proc in procs:
        if not proc.ok:
            raise proc.value


# ----------------------------------------------------------------------
# latency sweep
# ----------------------------------------------------------------------
def _latency_point(scale: str, ranks: int, nbytes: int, variant: str,
                   iters: int = 2, warmup: int = 1) -> float:
    """Mean per-call latency (seconds) of one sum-allreduce variant."""
    spec = _spec(scale, ranks)
    with Cluster(spec) as cl:
        cl.payloads = False  # timing sweep; nothing reads the gradients
        P = spec.world_size
        barrier = SimBarrier(cl.sim, P)
        samples: list[float] = []

        if variant == "offload":
            fw = OffloadFramework(cl, mode="gvmi", group_caching=True)

            def make(rank):
                def prog(sim):
                    ep = fw.endpoint(rank)
                    addr = ep.ctx.space.alloc(nbytes)
                    greq, _scratch = build_iallreduce(
                        ep, addr, nbytes, comm_size=P)
                    for it in range(warmup + iters):
                        yield from barrier.arrive()
                        t0 = sim.now
                        yield from ep.group_call(greq)
                        yield from ep.group_wait(greq)
                        if it >= warmup and rank == 0:
                            samples.append(sim.now - t0)

                return prog

            _run_ranks(cl, [make(r)(cl.sim) for r in range(P)])
        else:
            world = MpiWorld(cl)

            def prog(rt):
                addr = rt.ctx.space.alloc(nbytes)
                for it in range(warmup + iters):
                    yield from barrier.arrive()
                    t0 = rt.sim.now
                    yield from allreduce(rt, world.comm_world, addr, nbytes)
                    if it >= warmup and rt.rank == 0:
                        samples.append(rt.sim.now - t0)

            world.run(prog)
        return mean(samples)


# ----------------------------------------------------------------------
# ML training step
# ----------------------------------------------------------------------
def _ml_step_point(scale: str, variant: str, iters: int = 2,
                   warmup: int = 1) -> float:
    """Mean time (seconds) of one bucketed-allreduce training step."""
    ranks = _ml_ranks(scale)
    bucket = _ml_bucket_bytes(scale)
    spec = _spec(scale, ranks)
    with Cluster(spec) as cl:
        cl.payloads = False
        P = spec.world_size
        barrier = SimBarrier(cl.sim, P)
        samples: list[float] = []

        if variant == "offload":
            fw = OffloadFramework(cl, mode="gvmi", group_caching=True)

            def make(rank):
                def prog(sim):
                    ep = fw.endpoint(rank)
                    greqs = []
                    for b in range(ML_BUCKETS):
                        addr = ep.ctx.space.alloc(bucket)
                        greq, _ = build_iallreduce(
                            ep, addr, bucket, comm_size=P,
                            base_tag=0x7C00 + 0x100 * b)
                        greqs.append(greq)
                    for it in range(warmup + iters):
                        yield from barrier.arrive()
                        t0 = sim.now
                        # Backprop produces bucket b, its collective window
                        # opens immediately, and the host goes straight back
                        # to computing bucket b+1 -- the DPU owns the rest.
                        for b in range(ML_BUCKETS):
                            yield ep.ctx.consume(ML_COMPUTE_S)
                            yield from ep.group_call(greqs[b])
                        for b in range(ML_BUCKETS):
                            yield from ep.group_wait(greqs[b])
                        if it >= warmup and rank == 0:
                            samples.append(sim.now - t0)

                return prog

            _run_ranks(cl, [make(r)(cl.sim) for r in range(P)])
        else:
            world = MpiWorld(cl)

            def prog(rt):
                addrs = [rt.ctx.space.alloc(bucket) for _ in range(ML_BUCKETS)]
                for it in range(warmup + iters):
                    yield from barrier.arrive()
                    t0 = rt.sim.now
                    # Host MPI: each bucket's allreduce occupies the host
                    # CPU, so compute and communication serialize.
                    for b in range(ML_BUCKETS):
                        yield rt.ctx.consume(ML_COMPUTE_S)
                        yield from allreduce(rt, world.comm_world, addrs[b], bucket)
                    if it >= warmup and rt.rank == 0:
                        samples.append(rt.sim.now - t0)

            world.run(prog)
        return mean(samples)


# ----------------------------------------------------------------------
def sweeps(scale: str) -> list[Sweep]:
    ranks = PAPER_RANKS if scale == "paper" else QUICK_RANKS
    large = PAPER_LARGE_BYTES if scale == "paper" else QUICK_LARGE_BYTES
    return [
        Sweep("fig18", _latency_point,
              [(scale, p, nbytes, variant)
               for nbytes in (SMALL_BYTES, large)
               for p in ranks
               for variant in ("host", "offload")]),
        Sweep("fig18-ml", _ml_step_point,
              [(scale, variant) for variant in ("host", "offload")]),
    ]


def build(scale: str, lat_results: list, ml_results: list) -> FigureResult:
    ranks = PAPER_RANKS if scale == "paper" else QUICK_RANKS
    large = PAPER_LARGE_BYTES if scale == "paper" else QUICK_LARGE_BYTES
    lat_sweep, ml_sweep = sweeps(scale)

    lat: dict[tuple, float] = {}
    for (_, p, nbytes, variant), t in zip(lat_sweep.points, lat_results):
        lat[(p, nbytes, variant)] = t * 1e6
    ml = {variant: t * 1e6 for (_, variant), t in zip(ml_sweep.points, ml_results)}

    xs = [str(p) for p in ranks]
    series = []
    for nbytes in (SMALL_BYTES, large):
        for variant in ("host", "offload"):
            label = ("host MPI" if variant == "host" else "offloaded")
            series.append(Series(
                f"{label} Iallreduce {fmt_size(nbytes)}",
                xs, [lat[(p, nbytes, variant)] for p in ranks], unit="us",
            ))
    spec0 = _spec(scale, ranks[0])
    fig = FigureResult(
        fig_id="fig18",
        title="Collective scaling: offloaded vs host-MPI sum-allreduce",
        series=series,
        config={
            "scale": scale, "ranks": ranks, "ppn": spec0.ppn,
            "small_bytes": SMALL_BYTES, "large_bytes": large,
            "proxy_batch_drain": 16,
            "ml_ranks": _ml_ranks(scale), "ml_buckets": ML_BUCKETS,
            "ml_bucket_bytes": _ml_bucket_bytes(scale),
            "ml_compute_us": ML_COMPUTE_S * 1e6,
            "ml_step_host_us": round(ml["host"], 3),
            "ml_step_offload_us": round(ml["offload"], 3),
        },
    )
    fig.notes = (
        f"ML training step at {_ml_ranks(scale)} ranks ({ML_BUCKETS} x "
        f"{fmt_size(_ml_bucket_bytes(scale))} gradient buckets, "
        f"{ML_COMPUTE_S * 1e6:.0f}us backprop slice per bucket): "
        f"blocking host MPI {ml['host']:.0f}us/step, offloaded with "
        f"compute overlap {ml['offload']:.0f}us/step."
    )

    # Recursive doubling is logarithmic: quadrupling the communicator
    # adds rounds, it does not quadruple the latency.
    small_off = [lat[(p, SMALL_BYTES, "offload")] for p in ranks]
    ratio = small_off[-1] / small_off[0]
    span = ranks[-1] / ranks[0]
    fig.check(
        "offloaded small-message latency scales sub-linearly in ranks",
        ratio < span / 2,
        f"{ranks[0]}->{ranks[-1]} ranks ({span:.0f}x): latency {ratio:.2f}x",
    )
    overlap_gain = 100.0 * (ml["host"] - ml["offload"]) / ml["host"]
    fig.check(
        "offloaded ML step beats blocking host-MPI step (compute overlap)",
        ml["offload"] < ml["host"],
        f"{ml['host']:.0f}us -> {ml['offload']:.0f}us ({overlap_gain:.0f}% faster)",
    )
    fig.check(
        "every sweep point completed at every rank count",
        len(lat) == len(lat_sweep.points) and all(t > 0 for t in lat.values()),
        f"{len(lat)} points, up to {ranks[-1]} ranks",
    )
    return fig


run = figure_runner(sweeps, build)
