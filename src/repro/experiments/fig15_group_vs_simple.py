"""Fig 15: Group vs Simple primitives on a scatter-destination pattern.

Paper, 8 nodes x 32 PPN: implementing the same personalized alltoall
exchange with Group primitives instead of Simple (Basic) primitives is
up to 40% faster.  Two effects, both reproduced here and visible in the
control-message counters:

* Simple primitives cost four host<->DPU control messages per transfer
  (RTS + RTR + two FINs); Group primitives gather everything into one
  contiguous packet per call -- and, after the first call, the
  Section VII-D caches shrink that to a single request-ID message.
* The gathered metadata exchange rides host-to-host RDMA, which
  Section II-B showed is roughly twice as fast as host-DPU messaging.
"""

from __future__ import annotations

from repro.apps.harness import mean
from repro.experiments.common import FigureResult, Series, SimBarrier, fmt_size
from repro.experiments.parallel import sweep_map
from repro.hw import Cluster, ClusterSpec
from repro.mpi import schedules
from repro.offload import OffloadFramework, build_ialltoall

__all__ = ["run"]

QUICK_BLOCKS = [4096, 16384, 65536]
PAPER_BLOCKS = [16384, 65536, 262144]


def _spec(scale: str) -> ClusterSpec:
    if scale == "paper":
        return ClusterSpec(nodes=8, ppn=32, proxies_per_dpu=8)
    return ClusterSpec(nodes=4, ppn=4, proxies_per_dpu=4)


def _scatter_dest(scale: str, block: int, variant: str, iters: int = 3, warmup: int = 1,
                  instrument=None):
    """Per-iteration time + host<->DPU control messages for one variant.

    ``instrument``, when given, is called with the freshly built cluster
    before any framework objects exist -- the hook the observability
    layer (``repro.obs.observe_cluster``) and the trace tests use to
    attach an event bus to an otherwise stock figure run.
    """
    spec = _spec(scale)
    cl = Cluster(spec)
    # Timing/counter measurement: nothing reads the exchanged bytes, so
    # skip moving them (see Cluster.payloads).
    cl.payloads = False
    if instrument is not None:
        instrument(cl)
    fw = OffloadFramework(cl, mode="gvmi", group_caching=True)
    P = spec.world_size
    barrier = SimBarrier(cl.sim, P)
    samples: list[float] = []

    def make(rank):
        def prog(sim):
            ep = fw.endpoint(rank)
            sbuf = ep.ctx.space.alloc(P * block)
            rbuf = ep.ctx.space.alloc(P * block)
            if variant == "group":
                greq = build_ialltoall(ep, sbuf, rbuf, block, comm_size=P, base_tag=6)
            else:
                pairs = [op for op in schedules.alltoall(rank, P, block).rounds[0]
                         if op.kind != "copy"]
            for it in range(warmup + iters):
                yield from barrier.arrive()
                t0 = sim.now
                if variant == "group":
                    yield from ep.group_call(greq)
                    yield from ep.group_wait(greq)
                else:
                    reqs = []
                    for op in pairs:
                        if op.kind == "send":
                            reqs.append((yield from ep.send_offload(
                                sbuf + op.off, block, dst=op.peer, tag=6)))
                        else:
                            reqs.append((yield from ep.recv_offload(
                                rbuf + op.off, block, src=op.peer, tag=6)))
                    yield from ep.waitall(reqs)
                if it >= warmup and rank == 0:
                    samples.append(sim.now - t0)
            return None

        return prog

    procs = [cl.sim.process(make(r)(cl.sim)) for r in range(P)]
    cl.sim.run(until=cl.sim.all_of(procs))
    ctrl = (
        cl.metrics.get("ctrl.host_to_dpu")
        + cl.metrics.get("ctrl.dpu_to_host")
        + cl.metrics.get("proxy.fin_writes")
        + cl.metrics.get("proxy.group_completions")
    )
    return mean(samples), ctrl / (warmup + iters), cl


def _scatter_point(scale: str, block: int, variant: str) -> tuple:
    """Picklable sweep point: (per-iter time, ctrl msgs, metrics snap)."""
    t, c, cl = _scatter_dest(scale, block, variant)
    return t, c, cl.metrics.snapshot_full()


def run(scale: str = "quick") -> FigureResult:
    blocks = PAPER_BLOCKS if scale == "paper" else QUICK_BLOCKS
    simple_t, group_t = [], []
    simple_ctrl, group_ctrl = [], []
    snaps: dict = {}
    points = [(scale, b, variant) for b in blocks
              for variant in ("simple", "group")]
    results = sweep_map(_scatter_point, points, label="fig15")
    for (_, _b, variant), (t, c, snap) in zip(points, results):
        if variant == "simple":
            simple_t.append(t * 1e6)
            simple_ctrl.append(c)
        else:
            group_t.append(t * 1e6)
            group_ctrl.append(c)
        snaps[variant] = snap
    xs = [fmt_size(b) for b in blocks]
    fig = FigureResult(
        fig_id="fig15",
        title="Scatter-destination exchange: Simple vs Group primitives",
        series=[
            Series("Simple primitives", xs, simple_t, unit="us"),
            Series("Group primitives", xs, group_t, unit="us"),
            Series("Simple ctrl msgs/iter", xs, simple_ctrl, unit="#"),
            Series("Group ctrl msgs/iter", xs, group_ctrl, unit="#"),
        ],
        config={"scale": scale, "nodes": _spec(scale).nodes, "ppn": _spec(scale).ppn},
        metrics=snaps,
    )
    gains = [100.0 * (s - g) / s for s, g in zip(simple_t, group_t)]
    fig.check(
        "Group primitives beat Simple primitives at every size",
        all(g > 0 for g in gains),
        " / ".join(f"{g:.0f}%" for g in gains),
    )
    fig.check(
        "peak gain is substantial (paper: up to 40%)",
        max(gains) >= 25.0,
        f"max gain {max(gains):.1f}%",
    )
    fig.check(
        "Group slashes host<->DPU control messages (>=4x fewer)",
        all(s >= 4 * g for s, g in zip(simple_ctrl, group_ctrl)),
        f"e.g. {simple_ctrl[0]:.0f} -> {group_ctrl[0]:.0f} per iteration",
    )
    return fig
