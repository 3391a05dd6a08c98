"""Engine microbenchmarks and the perf-regression snapshot format.

Three hot paths are measured directly (no figure logic in the way):

* **event throughput** -- the simulator's run loop popping
  callback-chained timeouts (the fabric message walk's event shape);
* **process throughput** -- the same loop driving a generator process
  (the rank programs' and proxy loop's event shape);
* **transfer throughput** -- end-to-end fabric transfers through the
  HCA port resources (request/grant/serialize/deliver/ack);
* **cache hit path** -- covering-range registration-cache lookups (the
  rendezvous fast path after warm-up);
* **flow throughput** -- a 256-rank bulk-transfer sweep on the fluid
  hybrid engine versus the message-level event engine
  (docs/PERFORMANCE.md).

``collect_snapshot`` packages the results (plus optional per-figure
wall-clock seconds) as a versioned JSON document with a commit stamp;
``compare_snapshots`` implements the CI regression gate: any metric
worse than the committed baseline by more than ``threshold`` fails.

CLI::

    python -m repro.experiments.benchkit --out results/BENCH_engine.json
    python -m repro.experiments.benchkit --compare results/BENCH_engine.json
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

__all__ = [
    "MICROBENCHES",
    "run_microbenches",
    "collect_snapshot",
    "collect_parallel_snapshot",
    "compare_snapshots",
    "main",
    "SCHEMA",
    "PARALLEL_SCHEMA",
]

SCHEMA = "repro.bench/1"
PARALLEL_SCHEMA = "repro.bench.parallel/1"
#: Best-of-N wall-clock repeats per microbenchmark (absorbs scheduler noise).
REPEATS = 5
#: CI gate: fail when a metric is worse than baseline by more than this.
DEFAULT_THRESHOLD = 0.20


# ---------------------------------------------------------------------------
# microbenchmarks
# ---------------------------------------------------------------------------

def bench_event_throughput(n: int = 200_000) -> dict:
    """Events/second through the run loop via callback-chained timeouts."""
    from repro.sim import Simulator

    sim = Simulator()
    remaining = [n]

    def tick(_ev):
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.timeout(1.0).callbacks.append(tick)

    tick(None)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return {"value": sim.processed_events / elapsed, "unit": "events/s",
            "n": sim.processed_events, "direction": "higher"}


def bench_process_throughput(n: int = 100_000) -> dict:
    """Events/second when a generator process drives every timeout."""
    from repro.sim import Simulator

    sim = Simulator()

    def prog():
        for _ in range(n):
            yield sim.timeout(1.0)

    sim.process(prog())
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return {"value": sim.processed_events / elapsed, "unit": "events/s",
            "n": sim.processed_events, "direction": "higher"}


def bench_xfer_throughput(n: int = 2_000, window: int = 32) -> dict:
    """Completed fabric transfers/second (ports, serialization, ack)."""
    from repro.hw import Cluster, ClusterSpec
    from repro.verbs import rdma_write, reg_mr

    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
    src, dst = cl.rank_ctx(0), cl.rank_ctx(1)
    size = 4096

    def prog(sim):
        s_addr = src.space.alloc(size, fill=1)
        d_addr = dst.space.alloc(size)
        mr_s = yield from reg_mr(src, s_addr, size)
        mr_d = yield from reg_mr(dst, d_addr, size)
        for _ in range(n // window):
            transfers = []
            for _ in range(window):
                t = yield from rdma_write(
                    src, lkey=mr_s.lkey, src_addr=s_addr,
                    rkey=mr_d.rkey, dst_addr=d_addr, size=size, copy=False,
                )
                transfers.append(t.completed)
            yield sim.all_of(transfers)
        return None

    done = cl.sim.process(prog(cl.sim))
    t0 = time.perf_counter()
    cl.sim.run(until=done)
    elapsed = time.perf_counter() - t0
    total = (n // window) * window
    return {"value": total / elapsed, "unit": "xfers/s",
            "n": total, "direction": "higher"}


def bench_cache_hit_path(n: int = 50_000) -> dict:
    """Covering-range registration-cache hits/second (warm cache)."""
    from repro.hw import Cluster, ClusterSpec
    from repro.mpi.regcache import RegistrationCache

    cl = Cluster(ClusterSpec(nodes=1, ppn=1, proxies_per_dpu=1))
    ctx = cl.rank_ctx(0)
    cache = RegistrationCache(ctx, name="bench")
    region = 1 << 20

    def prog():
        addr = ctx.space.alloc(region, fill=1)
        yield from cache.get(addr, region)  # the one real registration
        for i in range(n):
            # Shifting sub-ranges all hit the single covering entry.
            yield from cache.get(addr + (i % 64) * 512, 4096)
        return None

    done = cl.sim.process(prog())
    t0 = time.perf_counter()
    cl.sim.run(until=done)
    elapsed = time.perf_counter() - t0
    return {"value": n / elapsed, "unit": "lookups/s",
            "n": n, "direction": "higher", "hits": cache.hits}


def bench_flow_throughput(nodes: int = 256, window: int = 4,
                          size: int = 1 << 20) -> dict:
    """Flows/second of the fluid hybrid engine on a 256-rank bulk sweep.

    Every rank streams a window of 1 MiB transfers (alternating
    neighbor and bisection peers) through ``Fabric.transfer``.  The
    same sweep runs on both engines:

    * **fluid** -- transfers ride the rate-shared FlowEngine
      (``ClusterSpec(fluid=True)``); reported as the headline value;
    * **message-level event engine** -- the default exact mode, one
      event chain per message regardless of size (at message
      granularity the event engine is already coarse, so fluid's win
      there is modest).

    A third run repeats the fluid sweep under a seeded 1% fault plan
    (error CQEs + flow drop/retransmit fates) and reports
    ``faulty_value``/``faulty_slowdown``: the flow fault path must cost
    at most a small constant factor over fault-free fluid, never
    degenerate toward event-engine cost.
    """
    from repro.hw import Cluster, ClusterSpec, FaultPlan, FaultSpec

    def run(faults=False, **kw) -> float:
        cl = Cluster(ClusterSpec(nodes=nodes, ppn=1, proxies_per_dpu=1, **kw))
        if faults:
            cl.install_faults(FaultPlan(
                FaultSpec(error_cqe_prob=0.01, flow_drop_prob=0.01), seed=7))

        def prog():
            pending = []
            for i in range(nodes):
                for k in range(window):
                    dst = (i + 1) % nodes if k % 2 == 0 else (i + nodes // 2) % nodes
                    t = cl.fabric.transfer(src_node=i, dst_node=dst,
                                           size=size, initiator="host")
                    pending.append(t.completed)
            yield cl.sim.all_of(pending)

        cl.sim.process(prog())
        t0 = time.perf_counter()
        cl.sim.run()
        return time.perf_counter() - t0

    message = run()
    fluid = run(fluid=True)
    faulty = run(faults=True, fluid=True)
    total = nodes * window
    return {"value": total / fluid, "unit": "flows/s",
            "n": total, "direction": "higher",
            "transfer_bytes": size,
            "speedup_vs_message_event": round(message / fluid, 2),
            "faulty_value": round(total / faulty, 1),
            "faulty_slowdown": round(faulty / fluid, 2)}


def bench_links_throughput(nodes: int = 256, window: int = 4,
                           size: int = 1 << 20) -> dict:
    """Flows/second of the per-link topology mode.

    **value** (the 20%-gated headline) is the same 256-rank bulk sweep
    as :func:`bench_flow_throughput` on an explicit fat-tree (16 nodes
    per leaf, 4 spines): every cross-leaf flow carries a 4-link path.
    ``endpoint_value`` is the identical sweep on a single logical
    switch, and ``end_to_end_vs_endpoint`` their ratio -- what per-link
    mode costs over the flat port model with the same solver, i.e. the
    price of wider paths and of the extra bottleneck levels that
    oversubscribed uplinks create (CI gates it at >= 0.4).
    """
    from repro.hw import Cluster, ClusterSpec

    def run(**kw) -> float:
        cl = Cluster(ClusterSpec(nodes=nodes, ppn=1, proxies_per_dpu=1,
                                 fluid=True, **kw))

        def prog():
            pending = []
            for i in range(nodes):
                for k in range(window):
                    dst = (i + 1) % nodes if k % 2 == 0 else (i + nodes // 2) % nodes
                    t = cl.fabric.transfer(src_node=i, dst_node=dst,
                                           size=size, initiator="host")
                    pending.append(t.completed)
            yield cl.sim.all_of(pending)

        cl.sim.process(prog())
        t0 = time.perf_counter()
        cl.sim.run()
        return time.perf_counter() - t0

    endpoint = run()
    links = run(nodes_per_switch=16, spine_count=4)

    total = nodes * window
    return {"value": total / links, "unit": "flows/s",
            "n": total, "direction": "higher",
            "transfer_bytes": size,
            "nodes_per_switch": 16, "spine_count": 4,
            "endpoint_value": round(total / endpoint, 1),
            "end_to_end_vs_endpoint": round(endpoint / links, 2)}


def bench_bytes_per_rank(ranks: int = 1024, ppn: int = 16) -> dict:
    """Resident bytes per rank of an idle, fully-wired 1024-rank machine.

    Builds ``Cluster + OffloadFramework + MpiWorld`` under
    ``tracemalloc`` and reports the settled bytes/rank (direction
    "lower": memory regressions fail CI like speed regressions).  What
    is priced is the machine before any rank runs: nodes, fabric, and
    every proxy engine started by ``Init_Offload`` (its array-of-BST
    caches hold only the ranks they have seen, so the figure is flat in
    ``ranks``) -- and no rank context, runtime or endpoint, which are
    built on first touch.  First-touch rank state is priced separately by
    :func:`bench_ranks_scaling`, which actually runs a collective on
    every rank.
    """
    import tracemalloc

    from repro.hw import Cluster, ClusterSpec
    from repro.mpi import MpiWorld
    from repro.offload import OffloadFramework

    gc.collect()
    tracemalloc.start()
    try:
        cl = Cluster(ClusterSpec(nodes=ranks // ppn, ppn=ppn,
                                 proxies_per_dpu=4))
        fw = OffloadFramework(cl)
        world = MpiWorld(cl)
        gc.collect()
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del cl, fw, world
    return {"value": current / ranks, "unit": "bytes/rank",
            "n": ranks, "direction": "lower"}


def bench_ranks_scaling(ranks: int = 512, ppn: int = 16,
                        nbytes: int = 2048) -> dict:
    """Ranks/second through one offloaded sum-Iallreduce at 512 ranks.

    The end-to-end scale-out path under load: batched proxy queues,
    fluid bulk engine, recursive-doubling Iallreduce recorded as a
    Group DAG and executed entirely on the proxies.  The
    value is ``ranks / wall_seconds`` for the whole collective --
    construction, plan shipping, and the offloaded window -- so either
    a memory blow-up (slower allocation), a proxy hot-path regression,
    or a collective-builder regression drags it down.
    """
    import dataclasses

    from repro.hw import Cluster, ClusterSpec
    from repro.offload import OffloadFramework
    from repro.offload.collectives import build_iallreduce

    spec = ClusterSpec(nodes=ranks // ppn, ppn=ppn, proxies_per_dpu=4,
                       fluid=True)
    spec = dataclasses.replace(spec, params=dataclasses.replace(
        spec.params, proxy_batch_drain=16, counter_doorbell_batch=True))
    t0 = time.perf_counter()
    cl = Cluster(spec)
    cl.payloads = False
    fw = OffloadFramework(cl, mode="gvmi", group_caching=True)

    def prog(rank):
        ep = fw.endpoint(rank)
        addr = ep.ctx.space.alloc(nbytes)
        greq, _scratch = build_iallreduce(ep, addr, nbytes, comm_size=ranks)
        yield from ep.group_call(greq)
        yield from ep.group_wait(greq)

    procs = [cl.sim.process(prog(r)) for r in range(ranks)]
    cl.sim.run(until=cl.sim.all_of(procs))
    for proc in procs:
        if not proc.ok:
            raise proc.value
    elapsed = time.perf_counter() - t0
    return {"value": ranks / elapsed, "unit": "ranks/s",
            "n": ranks, "direction": "higher",
            "payload_bytes": nbytes,
            "wakeups": int(cl.metrics.get("proxy.wakeups")),
            "drained_items": int(cl.metrics.get("proxy.drained_items"))}


MICROBENCHES = {
    "event_throughput": bench_event_throughput,
    "process_throughput": bench_process_throughput,
    "xfer_throughput": bench_xfer_throughput,
    "cache_hit_path": bench_cache_hit_path,
    "flow_throughput": bench_flow_throughput,
    "links_throughput": bench_links_throughput,
    "bytes_per_rank": bench_bytes_per_rank,
    "ranks_scaling": bench_ranks_scaling,
}


def run_microbenches(repeats: int = REPEATS, verbose: bool = False) -> dict:
    """Run every microbenchmark; keep the best (highest) of ``repeats``.

    The cyclic collector is paused around each sample -- the same
    measurement policy ``runall.run_one`` applies to the figures, on the
    guarantee tests/test_memory_lifetime.py keeps -- so that where a
    generation-0 sweep happens to land does not add noise to a gate
    with a 20% threshold.
    """
    out = {}
    for name, fn in MICROBENCHES.items():
        best = None
        for _ in range(max(1, repeats)):
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                result = fn()
            finally:
                if gc_was_enabled:
                    gc.enable()
            gc.collect()
            # "higher" metrics keep their best (largest) sample; "lower"
            # metrics (memory) keep the smallest -- both absorb noise in
            # the flattering-to-the-machine direction.
            higher = result.get("direction", "higher") == "higher"
            if best is None or (result["value"] > best["value"]) == higher:
                best = result
        out[name] = best
        if verbose:
            print(f"  {name}: {best['value']:,.0f} {best['unit']}")
    return out


# ---------------------------------------------------------------------------
# snapshot format
# ---------------------------------------------------------------------------

def _commit_stamp() -> str:
    """Short HEAD hash, ``-dirty`` when the tree differs from it.

    A snapshot recorded before its own commit would otherwise carry the
    *parent's* hash as if it described that code.
    """
    def git(*cmd) -> str:
        return subprocess.run(
            ["git", *cmd], capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()

    try:
        commit = git("rev-parse", "--short", "HEAD")
        if not commit:
            return "unknown"
        return commit + ("-dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def collect_snapshot(
    figure_walls: dict | None = None,
    scale: str = "quick",
    repeats: int = REPEATS,
    verbose: bool = False,
) -> dict:
    """One BENCH_engine.json document: microbenches + figure wall-clocks."""
    snap = {
        "schema": SCHEMA,
        "commit": _commit_stamp(),
        "python": platform.python_version(),
        "scale": scale,
        "microbenchmarks": run_microbenches(repeats=repeats, verbose=verbose),
    }
    if figure_walls:
        snap["figures"] = {
            name: {"value": seconds, "unit": "s", "direction": "lower"}
            for name, seconds in sorted(figure_walls.items())
        }
    return snap


def _measure_scaling_run(names, scale, jobs, run, conn):
    """Child-process body for :func:`collect_parallel_snapshot`.

    Installs the parent's run config ``run``, runs the selected figures
    at one job count and ships the timings back over ``conn``.
    Top-level so the spawn start method can pickle it; must stay
    importable without side effects.
    """
    from repro import runconfig
    from repro.experiments.runall import run_selected

    runconfig.install(run)

    group_walls: dict[str, float] = {}

    def progress(ev):
        if ev["event"] == "done":
            group_walls[",".join(ev["point"][0])] = round(ev.get("wall_s", 0.0), 2)

    t0 = time.perf_counter()
    records = run_selected(names, scale=scale, jobs=jobs, progress=progress)
    total = time.perf_counter() - t0
    conn.send({
        "total": total,
        "figures": {r["name"]: r["fig"].config.get("wall_seconds", 0.0)
                    for r in records if r["fig"] is not None},
        "crashed": [r["name"] for r in records if r["fig"] is None],
        "group_walls": group_walls,
    })
    conn.close()


def collect_parallel_snapshot(
    names: list[str] | None = None,
    scale: str = "quick",
    jobs: tuple[int, ...] = (1, 2, 4),
    verbose: bool = False,
) -> dict:
    """One BENCH_parallel.json document: figure walls at several job counts.

    Reruns the selected figures through the sweep engine at each job
    count and records the total and per-figure wall-clock seconds the
    workers reported over the progress IPC channel.  Each measurement
    runs in a **fresh spawned child process** so every job count starts
    from the same cold state -- measuring jobs=1 in the calling process
    would let it reuse memoized application sweeps from any earlier
    figure run and make the serial baseline look arbitrarily fast.
    ``speedup`` is each job count's total relative to jobs=1.  Pure
    measurement, no gate: sharding only pays when there are cores to
    shard over, so the snapshot also records ``cpu_count``.
    """
    import multiprocessing as mp
    import os

    from repro import runconfig

    ctx = mp.get_context("spawn")
    doc: dict = {
        "schema": PARALLEL_SCHEMA,
        "commit": _commit_stamp(),
        "python": platform.python_version(),
        "scale": scale,
        "cpu_count": os.cpu_count() or 1,
        "jobs": {},
    }
    for j in jobs:
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_measure_scaling_run,
                           args=(names, scale, j, runconfig.current(), send))
        proc.start()
        send.close()
        try:
            run = recv.recv()
        except EOFError:
            proc.join()
            raise RuntimeError(
                f"scaling measurement at jobs={j} died "
                f"(exitcode {proc.exitcode})") from None
        proc.join()
        doc["jobs"][str(j)] = {
            "total": {"value": round(run["total"], 2), "unit": "s",
                      "direction": "lower"},
            "figures": {
                name: {"value": wall, "unit": "s", "direction": "lower"}
                for name, wall in sorted(run["figures"].items())
            },
            # Per-group worker walls as reported over the IPC channel
            # (only present when figure groups were actually sharded).
            **({"group_walls": run["group_walls"]}
               if run["group_walls"] else {}),
            **({"crashed": run["crashed"]} if run["crashed"] else {}),
        }
        if verbose:
            print(f"  jobs={j}: {run['total']:.1f}s total", flush=True)
    base = doc["jobs"].get("1", {}).get("total", {}).get("value")
    if base:
        doc["speedup"] = {
            str(j): round(base / doc["jobs"][str(j)]["total"]["value"], 2)
            for j in jobs
            if doc["jobs"][str(j)]["total"]["value"] > 0
        }
    return doc


def _iter_metrics(snap: dict):
    for name, rec in snap.get("microbenchmarks", {}).items():
        yield f"microbenchmarks.{name}", rec
    for name, rec in snap.get("figures", {}).items():
        yield f"figures.{name}", rec


def compare_snapshots(
    baseline: dict, current: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Regressions of ``current`` vs ``baseline`` beyond ``threshold``.

    A "higher"-direction metric regresses when it drops below
    ``baseline * (1 - threshold)``; a "lower"-direction metric (wall
    clock) when it rises above ``baseline * (1 + threshold)``.  Metrics
    present on only one side are ignored (new benchmarks are not
    regressions).  Returns human-readable failure lines.
    """
    base = dict(_iter_metrics(baseline))
    cur = dict(_iter_metrics(current))
    failures = []
    for name, base_rec in base.items():
        cur_rec = cur.get(name)
        if cur_rec is None:
            continue
        b, c = base_rec["value"], cur_rec["value"]
        if b <= 0:
            continue
        if base_rec.get("direction", "higher") == "higher":
            if c < b * (1 - threshold):
                failures.append(
                    f"{name}: {c:,.1f} < {b:,.1f} * {1 - threshold:.2f} "
                    f"({(b - c) / b:.1%} slower)"
                )
        else:
            if c > b * (1 + threshold):
                failures.append(
                    f"{name}: {c:,.1f}s > {b:,.1f}s * {1 + threshold:.2f} "
                    f"({(c - b) / b:.1%} slower)"
                )
    return failures


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="write the snapshot JSON here")
    parser.add_argument("--compare", default=None,
                        help="baseline BENCH_engine.json to gate against")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    args = parser.parse_args(argv)

    print("running engine microbenchmarks...")
    snap = collect_snapshot(repeats=args.repeats, verbose=True)

    if args.out:
        from repro.util import atomic_write

        atomic_write(Path(args.out),
                     json.dumps(snap, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    if args.compare:
        baseline = json.loads(Path(args.compare).read_text())
        failures = compare_snapshots(baseline, snap, threshold=args.threshold)
        if failures:
            print(f"PERF REGRESSION vs {args.compare} "
                  f"(threshold {args.threshold:.0%}):")
            for line in failures:
                print(f"  {line}")
            return 1
        print(f"no regression vs {args.compare} "
              f"(threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
