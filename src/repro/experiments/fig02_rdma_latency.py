"""Fig 2: RDMA-write latency, host-to-host vs host-to-DPU.

The paper's observation (Section II-B): the *latency* of transfers
involving the DPU is close to host-to-host -- it is bandwidth, not
latency, where the ARM cores hurt.  We measure single-message
post-to-completion time for (a) a host rank writing to a remote host
and (b) a DPU proxy writing to a remote host (the perftest arrangement
whose initiator runs on the ARM cores).
"""

from __future__ import annotations

from repro.experiments.common import FigureResult, Series, fmt_size
from repro.experiments.parallel import sweep_map
from repro.hw import Cluster, ClusterSpec
from repro.verbs import reg_mr, rdma_write

__all__ = ["run", "SIZES"]

SIZES = [1, 64, 256, 1024, 4096, 16384, 65536]


def _measure(initiator_kind: str, size: int, iters: int = 10) -> float:
    """Average post->CQE time of one RDMA write of ``size`` bytes."""
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
    src = cl.rank_ctx(0) if initiator_kind == "host" else cl.proxy_ctx(0, 0)
    dst = cl.rank_ctx(1)
    samples: list[float] = []

    def prog(sim):
        s_addr = src.space.alloc(size, fill=1)
        d_addr = dst.space.alloc(size)
        mr_s = yield from reg_mr(src, s_addr, size)
        mr_d = yield from reg_mr(dst, d_addr, size)
        for _ in range(iters):
            t0 = sim.now
            t = yield from rdma_write(
                src, lkey=mr_s.lkey, src_addr=s_addr,
                rkey=mr_d.rkey, dst_addr=d_addr, size=size,
            )
            yield t.completed
            samples.append(sim.now - t0)
        return None

    done = cl.sim.process(prog(cl.sim))
    cl.sim.run(until=done)
    return sum(samples) / len(samples)


def run(scale: str = "quick") -> FigureResult:
    sizes = SIZES
    points = [(kind, s) for kind in ("host", "dpu") for s in sizes]
    values = sweep_map(_measure, points, label="fig02")
    host = [v * 1e6 for v in values[: len(sizes)]]
    dpu = [v * 1e6 for v in values[len(sizes):]]
    fig = FigureResult(
        fig_id="fig02",
        title="RDMA-write latency: host-to-host vs host-to-DPU",
        series=[
            Series("host-to-host", [fmt_size(s) for s in sizes], host, unit="us"),
            Series("host-to-DPU", [fmt_size(s) for s in sizes], dpu, unit="us"),
        ],
        config={"scale": scale, "nodes": 2},
    )
    # Paper shape: in the latency regime (small messages, where wire and
    # processing dominate serialization) the two stay close; only deep
    # into bandwidth-bound sizes does the DPU DRAM ceiling show.
    small_ratio = max(
        d / h for s, d, h in zip(sizes, dpu, host) if s <= 4096
    )
    fig.check(
        "host<->DPU latency close to host<->host for small messages (<=1.4x)",
        small_ratio <= 1.4,
        f"worst small-message ratio {small_ratio:.2f}",
    )
    fig.check(
        "DPU path never faster than host path",
        all(d >= h * 0.999 for d, h in zip(dpu, host)),
    )
    return fig
