"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper -- these isolate *why* the proposed design
works and what the paper's future-work hardware would change:

* ``run_reg_cache_ablation`` -- Section VII-B's array-of-BST GVMI
  registration caches, on vs off, on a repeated Basic-primitive
  exchange (the cost they amortise is Fig 5's).
* ``run_group_cache_ablation`` -- Section VII-D's request caches, on vs
  off, on a repeated group alltoall.
* ``run_proxy_sweep`` -- how many DPU worker processes per BlueField
  (the paper launches several and maps ranks round-robin; more proxies
  = more ARM-side parallelism, until the wire is the bottleneck).
* ``run_dpu_generation`` -- the paper's future work: replay the
  Ialltoall comparison on a BlueField-3/NDR projection and on an
  idealised host-speed DPU.
"""

from __future__ import annotations

from repro.apps.harness import mean
from repro.apps.omb import ialltoall_overlap
from repro.experiments.common import FigureResult, Series, SimBarrier, fmt_size
from repro.hw import Cluster, ClusterSpec, MachineParams
from repro.offload import OffloadFramework, build_ialltoall

__all__ = [
    "run_reg_cache_ablation",
    "run_group_cache_ablation",
    "run_proxy_sweep",
    "run_dpu_generation",
]


def _basic_exchange_iters(cluster, fw, size, iters):
    """Repeated same-buffer basic-primitive exchange; per-iter times."""
    barrier = SimBarrier(cluster.sim, 2)
    times = []

    def sender(sim):
        ep = fw.endpoint(0)
        addr = ep.ctx.space.alloc(size, fill=1)
        for it in range(iters):
            yield from barrier.arrive()
            t0 = sim.now
            req = yield from ep.send_offload(addr, size, dst=1, tag=it)
            yield from ep.wait(req)
            times.append(sim.now - t0)

    def receiver(sim):
        ep = fw.endpoint(1)
        addr = ep.ctx.space.alloc(size)
        for it in range(iters):
            yield from barrier.arrive()
            req = yield from ep.recv_offload(addr, size, src=0, tag=it)
            yield from ep.wait(req)

    procs = [cluster.sim.process(sender(cluster.sim)),
             cluster.sim.process(receiver(cluster.sim))]
    cluster.sim.run(until=cluster.sim.all_of(procs))
    return times


def run_reg_cache_ablation(scale: str = "quick") -> FigureResult:
    sizes = [16384, 262144, 1048576]
    iters = 6
    cached, uncached, xregs = [], [], []
    for size in sizes:
        row = {}
        for caching in (True, False):
            cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
            fw = OffloadFramework(cl, gvmi_caching=caching)
            times = _basic_exchange_iters(cl, fw, size, iters)
            # steady state: skip the cold first iteration
            row[caching] = mean(times[1:]) * 1e6
            if not caching:
                xregs.append(cl.metrics.get("gvmi.cross_registrations"))
        cached.append(row[True])
        uncached.append(row[False])
    xs = [fmt_size(s) for s in sizes]
    fig = FigureResult(
        fig_id="abl-regcache",
        title="Ablation: GVMI registration caches (Section VII-B) on/off",
        series=[
            Series("with caches", xs, cached, unit="us"),
            Series("register every time", xs, uncached, unit="us"),
            Series("slowdown", xs, [u / c for u, c in zip(uncached, cached)],
                   unit="x"),
        ],
        config={"scale": scale, "iters": iters},
    )
    fig.check(
        "caches pay off at every size",
        all(u > c for u, c in zip(uncached, cached)),
    )
    fig.check(
        "the penalty grows with buffer size (page-proportional costs)",
        uncached[-1] / cached[-1] > uncached[0] / cached[0],
        f"{uncached[0] / cached[0]:.2f}x -> {uncached[-1] / cached[-1]:.2f}x",
    )
    fig.check(
        "without caches, every iteration cross-registers",
        xregs and all(x == iters for x in xregs),
        f"{xregs}",
    )
    return fig


def run_group_cache_ablation(scale: str = "quick") -> FigureResult:
    """Request caches (VII-D): steady-state group alltoall call cost."""
    block = 16384
    iters = 5
    results = {}
    for caching in (True, False):
        cl = Cluster(ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=2))
        fw = OffloadFramework(cl, group_caching=caching)
        P = cl.world_size
        barrier = SimBarrier(cl.sim, P)
        per_iter: list[float] = []

        def make(rank):
            def prog(sim):
                ep = fw.endpoint(rank)
                sbuf = ep.ctx.space.alloc(P * block, fill=1)
                rbuf = ep.ctx.space.alloc(P * block)
                greq = build_ialltoall(ep, sbuf, rbuf, block, comm_size=P, base_tag=2)
                for it in range(iters):
                    yield from barrier.arrive()
                    t0 = sim.now
                    yield from ep.group_call(greq)
                    yield from ep.group_wait(greq)
                    if rank == 0:
                        per_iter.append(sim.now - t0)
                return True

            return prog

        procs = [cl.sim.process(make(r)(cl.sim)) for r in range(P)]
        cl.sim.run(until=cl.sim.all_of(procs))
        # Count the *host-initiated* control traffic the caches target
        # (plan packets + descriptor gathers); DPU-side barrier counters
        # and completion writes happen either way.
        host_ctrl = (cl.metrics.get("ctrl.host_to_dpu")
                     + cl.metrics.get("ctrl.host_to_host"))
        results[caching] = {
            "steady": mean(per_iter[1:]) * 1e6,
            "ctrl": host_ctrl / iters,
        }
    fig = FigureResult(
        fig_id="abl-groupcache",
        title="Ablation: group request caches (Section VII-D) on/off",
        series=[
            Series("steady-state call", ["cached", "uncached"],
                   [results[True]["steady"], results[False]["steady"]], unit="us"),
            Series("ctrl msgs/iter", ["cached", "uncached"],
                   [results[True]["ctrl"], results[False]["ctrl"]], unit="#"),
        ],
        config={"scale": scale, "block": block},
    )
    fig.check(
        "request caching lowers steady-state call latency",
        results[True]["steady"] < results[False]["steady"],
        f"{results[True]['steady']:.1f} vs {results[False]['steady']:.1f} us",
    )
    fig.check(
        "request caching slashes control traffic",
        results[True]["ctrl"] < 0.5 * results[False]["ctrl"],
        f"{results[True]['ctrl']:.0f} vs {results[False]['ctrl']:.0f} per iter",
    )
    return fig


def run_proxy_sweep(scale: str = "quick") -> FigureResult:
    """Workers per DPU: the paper's rank%num_proxies mapping under load."""
    counts = [1, 2, 4, 8]
    block = 65536
    overall = []
    for proxies in counts:
        spec = ClusterSpec(nodes=2, ppn=8, proxies_per_dpu=proxies)
        r = ialltoall_overlap("proposed", spec, block, iters=2, warmup=1,
                              test_chunk=None)
        overall.append(r.overall * 1e6)
    fig = FigureResult(
        fig_id="abl-proxies",
        title="Ablation: DPU worker processes per BlueField",
        series=[Series("Ialltoall overall", [str(c) for c in counts],
                       overall, unit="us")],
        config={"scale": scale, "nodes": 2, "ppn": 8, "block": block},
    )
    fig.check(
        "more workers help when one proxy serves 8 ranks",
        overall[-1] < overall[0],
        f"{overall[0]:.0f} -> {overall[-1]:.0f} us",
    )
    fig.check(
        "diminishing returns once the wire dominates",
        (overall[0] - overall[1]) >= (overall[2] - overall[3]),
    )
    return fig


def run_dpu_generation(scale: str = "quick") -> FigureResult:
    """Future work: the comparison on faster DPUs (BF-3, idealised)."""
    presets = [
        ("BlueField-2", MachineParams.paper_testbed()),
        ("BlueField-3", MachineParams.bluefield3()),
        ("ideal DPU", MachineParams.ideal_nic()),
    ]
    block = 65536
    rows = {name: [] for name, _ in presets}
    flavors = ("intelmpi", "bluesmpi", "proposed")
    for name, params in presets:
        spec = ClusterSpec(nodes=4, ppn=4, proxies_per_dpu=4, params=params)
        for flavor in flavors:
            r = ialltoall_overlap(flavor, spec, block, iters=2, warmup=1,
                                  test_chunk=None)
            rows[name].append(r.overall * 1e6)
    fig = FigureResult(
        fig_id="abl-dpugen",
        title="Ablation: the comparison on next-generation DPUs",
        series=[
            Series(name, list(flavors), rows[name], unit="us")
            for name, _ in presets
        ],
        config={"scale": scale, "nodes": 4, "ppn": 4, "block": block},
    )
    i_prop = flavors.index("proposed")
    i_blues = flavors.index("bluesmpi")
    gaps = {
        name: rows[name][i_blues] / rows[name][i_prop] for name, _ in presets
    }
    fig.check(
        "proposed still wins on every generation",
        all(rows[name][i_prop] <= min(rows[name]) * 1.001 for name, _ in presets),
    )
    fig.check(
        "staging's penalty shrinks as DPU DRAM approaches the wire rate",
        gaps["BlueField-3"] < gaps["BlueField-2"]
        and gaps["ideal DPU"] < gaps["BlueField-3"],
        " / ".join(f"{k}={v:.2f}x" for k, v in gaps.items()),
    )
    return fig
