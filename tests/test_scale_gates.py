"""Thousand-rank gates of the ``scale`` CI job: wall, peak RSS, collector.

Three programs, each in a fresh interpreter so that its peak RSS is its
own (``python -m tests.test_scale_gates NAME`` runs one directly):

* ``offload_1024`` -- a seeded 1024-rank offloaded 2 KiB Iallreduce
  finishes within 120 s, and the trace invariant finds no host CPU in any
  rank's offloaded window (docs/PERFORMANCE.md "scaling");
* ``observed_1024`` -- the bench's exact 1024-rank point with the bus
  attached, checked and exported as a Chrome trace, under 132 MiB;
* ``offload_4096`` -- the 4096-rank offloaded Iallreduce with the
  collector off, as the sweep drivers run: within 300 s and 143 MiB, and
  fewer than ``RANKS // 4`` objects left for the collector.

Each writes a JSON report (and the trace) into ``$SCALE_RESULTS`` (default
``scale-results``).  The ``scale`` marker keeps them out of tier-1; the
``scale`` CI job selects them with ``pytest -m scale``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(os.environ.get("SCALE_RESULTS", "scale-results"))

pytestmark = pytest.mark.scale


def _peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _iallreduce(ranks: int, bus_categories=None):
    """Run one seeded offloaded 2 KiB Iallreduce on ``ranks`` ranks;
    returns ``(cluster, bus, wall seconds)``."""
    from repro.hw import Cluster, ClusterSpec
    from repro.hw.params import MachineParams
    from repro.obs import EventBus
    from repro.offload import OffloadFramework, build_iallreduce

    nbytes = 2048
    spec = ClusterSpec(nodes=ranks // 16, ppn=16, proxies_per_dpu=4, seed=7,
                       params=MachineParams(proxy_batch_drain=16))
    cl = Cluster(spec)
    cl.payloads = False
    bus = None
    if bus_categories is not None:
        # Only these events, but every busy span: the window check's input.
        bus = EventBus.attach(cl, categories=bus_categories)
    fw = OffloadFramework(cl, mode="gvmi")

    def prog(rank):
        ep = fw.endpoint(rank)
        addr = ep.ctx.space.alloc(nbytes)
        greq, _ = build_iallreduce(ep, addr, nbytes, comm_size=ranks)
        yield from ep.group_call(greq)
        yield from ep.group_wait(greq)

    t0 = time.perf_counter()
    procs = [cl.sim.process(prog(r)) for r in range(ranks)]
    cl.sim.run(until=cl.sim.all_of(procs))
    wall = time.perf_counter() - t0
    for p in procs:
        assert p.ok, p.value
    return cl, bus, wall


def _report(name: str, report: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(report, indent=2, sort_keys=True))


def offload_1024() -> None:
    from repro.obs import trace_violations

    ranks, ceiling_s = 1024, 120.0
    cl, bus, wall = _iallreduce(ranks, bus_categories=("group",))
    assert wall < ceiling_s, f"{wall:.1f}s > {ceiling_s}s ceiling"
    assert len(bus.select(cat="group", name="done")) == ranks
    violations = trace_violations(bus)
    assert violations == [], violations[:5]
    _report("scale_smoke_1024", {
        "ranks": ranks, "nbytes": 2048, "wall_s": round(wall, 2),
        "sim_s": cl.sim.now, "ceiling_s": ceiling_s,
        "wakeups": cl.metrics.get("proxy.wakeups"),
        "drained_items": cl.metrics.get("proxy.drained_items"),
        "host_cpu_violations": 0,
    })


def observed_1024() -> None:
    # The bench's exact point with the bus attached: 101.2 MiB measured,
    # x 1.3 (104.1 with per-rank copies of rank-invariant state; 105.7
    # with typed argument columns, 119 MiB with a boxed object per
    # argument, 223 MiB with one per record, 2 099 MiB before).
    sys.path.insert(0, str(ROOT))
    import bench.workloads as W
    from repro.obs import observe_cluster

    held, cluster = [], W.Cluster
    W.Cluster = lambda spec: held.append(observe_cluster(cluster(spec))) or held[0].cluster
    with open(ROOT / "bench" / "workloads" / "allreduce_1k_scale.json") as f:
        W._allreduce_run(W._allreduce_points(json.load(f), 0)[0], None)
    obs = held[0]
    obs.check()
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "observed_1024.trace.json"
    doc = obs.write_chrome_trace(str(path))
    peak = _peak_mib()
    assert peak < 132, f"peak RSS {peak:.0f} MiB"
    with open(path) as f:
        rows = len(json.load(f)["traceEvents"])
    assert rows == len(doc["traceEvents"]) == len(obs.chrome_trace()["traceEvents"])


def offload_4096() -> None:
    gc.disable()  # as the sweep drivers run: refcounts must free the run
    ranks, ceiling_s = 4096, 300.0
    cl, _bus, wall = _iallreduce(ranks)
    assert wall < ceiling_s, f"{wall:.1f}s > {ceiling_s}s ceiling"
    cyclic = gc.collect()  # machine still referenced: what the run left
    assert cyclic < ranks // 4, f"{cyclic} objects waited for the collector"
    peak = _peak_mib()
    _report("scale_smoke_4096", {
        "ranks": ranks, "nbytes": 2048, "wall_s": round(wall, 2),
        "sim_s": cl.sim.now, "ceiling_s": ceiling_s, "gc_unreachable": cyclic,
        "peak_rss_mb": peak,
    })
    # 124.1 MiB measured, x 1.15 (135.6 with per-rank copies of
    # rank-invariant state and grown empty maps; 149.4 with a key tuple
    # and a tree node beside each cached registration and six fields in
    # every recorded op; 179.5 with two dataclass key records and a
    # handle per registration, and a dict as the key table).
    assert peak < 143, f"peak RSS {peak:.0f} MiB"


GATES = {"offload_1024": offload_1024, "observed_1024": observed_1024,
         "offload_4096": offload_4096}


@pytest.mark.parametrize("name", GATES)
def test_scale_gate(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "tests.test_scale_gates", name],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":  # pragma: no cover - one gate per interpreter
    GATES[sys.argv[1]]()
