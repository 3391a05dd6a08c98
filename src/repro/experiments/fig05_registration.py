"""Fig 5: the two registration costs of a cross-GVMI transfer.

For a DPU process to move data with cross-GVMI, *two* registrations
must happen (Section II-C / V): the host registers the source buffer
under the proxy's GVMI-ID (producing the mkey), then the proxy
cross-registers to obtain mkey2.  Both grow with the page count; the
cross-registration runs on the slow ARM cores and costs more.  These
overheads are what the array-of-BST caches of Section VII-B amortise.
"""

from __future__ import annotations

from repro.experiments.common import FigureResult, Series, Sweep, figure_runner, fmt_size
from repro.hw import Cluster, ClusterSpec
from repro.verbs import cross_register, gvmi_id_of, host_gvmi_register

__all__ = ["run", "sweeps", "build", "SIZES"]

SIZES = [4096, 16384, 65536, 262144, 1048576]


def _measure(size: int) -> tuple[float, float]:
    """(host mkey registration, DPU cross-registration) seconds."""
    with Cluster(ClusterSpec(nodes=1, ppn=1, proxies_per_dpu=1)) as cl:
        host = cl.rank_ctx(0)
        proxy = cl.proxy_ctx(0, 0)
        box: dict[str, float] = {}

        def prog(sim):
            addr = host.space.alloc(size)
            gid = gvmi_id_of(proxy)
            t0 = sim.now
            mkey = yield from host_gvmi_register(host, addr, size, gid)
            box["host"] = sim.now - t0
            t1 = sim.now
            yield from cross_register(proxy, addr, size, gid, mkey.key)
            box["dpu"] = sim.now - t1
            return None

        done = cl.sim.process(prog(cl.sim))
        cl.sim.run(until=done)
        return box["host"], box["dpu"]


def sweeps(scale: str) -> list[Sweep]:
    return [Sweep("fig05", _measure, [(s,) for s in SIZES])]


def build(scale: str, costs: list) -> FigureResult:
    sizes = SIZES
    host_costs, dpu_costs = [], []
    for h, d in costs:
        host_costs.append(h * 1e6)
        dpu_costs.append(d * 1e6)
    fig = FigureResult(
        fig_id="fig05",
        title="Cross-GVMI registration overheads (host mkey vs DPU mkey2)",
        series=[
            Series("host GVMI reg", [fmt_size(s) for s in sizes], host_costs, unit="us"),
            Series("DPU cross-reg", [fmt_size(s) for s in sizes], dpu_costs, unit="us"),
        ],
        config={"scale": scale},
    )
    fig.check(
        "cross-registration (ARM) costs more than host registration",
        all(d > h for h, d in zip(host_costs, dpu_costs)),
    )
    fig.check(
        "both registrations grow with buffer size",
        host_costs[-1] > host_costs[0] and dpu_costs[-1] > dpu_costs[0],
        f"host {host_costs[0]:.1f}->{host_costs[-1]:.1f}us, "
        f"dpu {dpu_costs[0]:.1f}->{dpu_costs[-1]:.1f}us",
    )
    wire = sizes[-1] / 24.0e9 * 1e6
    total = host_costs[-1] + dpu_costs[-1]
    fig.check(
        "overheads significant vs the wire transfer itself (>=1x at 1MiB)",
        total >= wire,
        f"reg {total:.0f}us vs wire {wire:.0f}us",
    )
    return fig


run = figure_runner(sweeps, build)
