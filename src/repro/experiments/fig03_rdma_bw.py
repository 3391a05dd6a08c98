"""Fig 3: RDMA-write bandwidth, host-to-host vs host-to-DPU (normalised).

The paper: "Host-to-Host transfers have close to twice the bandwidth of
DPU-Host transfers ... the bandwidth of smaller messages (their
injection rate) is sensitive to the frequency of the processor."  We
post a window of back-to-back writes and time to the last completion;
the DPU-involved stream is posted by the ARM cores (higher per-message
gap) and sourced from DPU DRAM (lower peak), reproducing both the
small-message gap and the large-message ceiling.
"""

from __future__ import annotations

from repro.experiments.common import FigureResult, Series, fmt_size
from repro.experiments.parallel import sweep_map
from repro.hw import Cluster, ClusterSpec
from repro.verbs import reg_mr, rdma_write

__all__ = ["run", "SIZES"]

SIZES = [256, 1024, 4096, 16384, 65536, 262144, 1048576]
WINDOW = 32


def _measure_bw(initiator_kind: str, size: int, window: int = WINDOW) -> float:
    """Bytes/second of a window of pipelined writes."""
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
    src = cl.rank_ctx(0) if initiator_kind == "host" else cl.proxy_ctx(0, 0)
    dst = cl.rank_ctx(1)
    box: dict[str, float] = {}

    def prog(sim):
        s_addr = src.space.alloc(size, fill=1)
        d_addr = dst.space.alloc(size)
        mr_s = yield from reg_mr(src, s_addr, size)
        mr_d = yield from reg_mr(dst, d_addr, size)
        t0 = sim.now
        transfers = []
        for _ in range(window):
            t = yield from rdma_write(
                src, lkey=mr_s.lkey, src_addr=s_addr,
                rkey=mr_d.rkey, dst_addr=d_addr, size=size, copy=False,
            )
            transfers.append(t.completed)
        yield sim.all_of(transfers)
        box["elapsed"] = sim.now - t0
        return None

    done = cl.sim.process(prog(cl.sim))
    cl.sim.run(until=done)
    return window * size / box["elapsed"]


def run(scale: str = "quick") -> FigureResult:
    sizes = SIZES
    points = [(kind, s) for kind in ("host", "dpu") for s in sizes]
    values = sweep_map(_measure_bw, points, label="fig03")
    host = values[: len(sizes)]
    dpu = values[len(sizes):]
    normalised = [d / h for d, h in zip(dpu, host)]
    fig = FigureResult(
        fig_id="fig03",
        title="RDMA-write bandwidth (host-to-DPU normalised to host-to-host)",
        series=[
            Series("host-to-host", [fmt_size(s) for s in sizes],
                   [b / 1e9 for b in host], unit="GB/s"),
            Series("host-to-DPU", [fmt_size(s) for s in sizes],
                   [b / 1e9 for b in dpu], unit="GB/s"),
            Series("normalised(DPU/host)", [fmt_size(s) for s in sizes],
                   normalised, unit="x"),
        ],
        config={"scale": scale, "window": WINDOW},
    )
    small = normalised[0]
    large = normalised[-1]
    fig.check(
        "small messages: host ~2x the DPU-path bandwidth (ratio 0.3-0.7)",
        0.3 <= small <= 0.7,
        f"DPU/host at {fmt_size(sizes[0])} = {small:.2f}",
    )
    fig.check(
        "gap narrows for large messages (DPU DRAM-bound, not core-bound)",
        large > small,
        f"{small:.2f} -> {large:.2f}",
    )
    fig.check("host path is never slower", all(r <= 1.001 for r in normalised))
    return fig
