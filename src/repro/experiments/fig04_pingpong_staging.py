"""Fig 4: non-blocking pingpong latency, host MPI vs staging offload.

The motivation benchmark of Section II-C: concurrent two-way
isend/irecv + waitall between hosts.  The staging-based design bounces
every message through DPU DRAM and pays control-message round-trips to
the proxy, degrading latency vs the direct host path; the proposed
cross-GVMI path (added here as a third series) removes the bounce and
recovers most of the gap -- the motivation for Section V.
"""

from __future__ import annotations

from repro.apps.harness import mean
from repro.experiments.common import FigureResult, Series, Sweep, figure_runner, fmt_size
from repro.hw import Cluster, ClusterSpec
from repro.offload import OffloadFramework
from repro.apps.omb import pingpong_latency

__all__ = ["run", "sweeps", "build", "SIZES"]

SIZES = [4096, 16384, 65536, 262144, 524288]


def _offload_pingpong(mode: str, size: int, iters: int = 10, warmup: int = 3) -> float:
    """Two-way Basic-primitive exchange through a fresh framework."""
    with Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1)) as cl:
        fw = OffloadFramework(cl, mode=mode)
        samples: list[float] = []

        def make_prog(rank, peer):
            def prog(sim):
                ep = fw.endpoint(rank)
                sbuf = ep.ctx.space.alloc(size, fill=1)
                rbuf = ep.ctx.space.alloc(size)
                for it in range(warmup + iters):
                    t0 = sim.now
                    r = yield from ep.recv_offload(rbuf, size, src=peer, tag=9)
                    s = yield from ep.send_offload(sbuf, size, dst=peer, tag=9)
                    yield from ep.wait(s)
                    yield from ep.wait(r)
                    if it >= warmup and rank == 0:
                        samples.append(sim.now - t0)
                return None

            return prog

        procs = [cl.sim.process(make_prog(0, 1)(cl.sim)),
                 cl.sim.process(make_prog(1, 0)(cl.sim))]
        cl.sim.run(until=cl.sim.all_of(procs))
        return mean(samples)


def _point(variant: str, size: int) -> float:
    """One sweep point: pingpong latency for a variant at one size."""
    if variant == "host":
        spec = ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1)
        return pingpong_latency("intelmpi", spec, size, iters=10)
    return _offload_pingpong(variant, size)


def sweeps(scale: str) -> list[Sweep]:
    return [Sweep("fig04", _point,
                  [(v, s) for v in ("host", "staged", "gvmi") for s in SIZES])]


def build(scale: str, values: list) -> FigureResult:
    sizes = SIZES
    n = len(sizes)
    host = [v * 1e6 for v in values[:n]]
    staged = [v * 1e6 for v in values[n:2 * n]]
    gvmi = [v * 1e6 for v in values[2 * n:]]
    fig = FigureResult(
        fig_id="fig04",
        title="Non-blocking pingpong latency: host vs staging-based offload",
        series=[
            Series("host MPI", [fmt_size(s) for s in sizes], host, unit="us"),
            Series("staging offload", [fmt_size(s) for s in sizes], staged, unit="us"),
            Series("cross-GVMI offload", [fmt_size(s) for s in sizes], gvmi, unit="us"),
        ],
        config={"scale": scale, "nodes": 2},
    )
    fig.check(
        "staging degrades latency vs host at every size",
        all(st > h for st, h in zip(staged, host)),
    )
    big = sizes.index(262144)
    fig.check(
        "staging penalty grows with size (>=1.5x at 256KiB)",
        staged[big] >= 1.5 * host[big],
        f"{staged[big]:.1f}us vs {host[big]:.1f}us",
    )
    fig.check(
        "cross-GVMI removes most of the staging penalty",
        all(g < st for g, st in zip(gvmi, staged)),
    )
    return fig


run = figure_runner(sweeps, build)
