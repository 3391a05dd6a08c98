"""The five benchmark workloads.

Each workload is an ordered list of independent *points* (one simulated
job each).  Grids are the data files in ``bench/workloads/`` -- copied,
not imported, from the figure modules, so re-scaling a figure does not
move the benchmark.  Point functions drive the simulator's public API
directly (``apps.*``, ``Cluster``, ``OffloadFramework``,
``build_iallreduce``, ``Fabric.transfer``) and never go through
``experiments.appruns`` (lru-cached) or ``parallel.sweep_map``.

A point function takes the point (a plain dict) and the harness ``h``
(see ``bench/child.py``) and returns the point's simulated values as a
flat ``{name: float}`` dict.  The harness times ``Simulator.run`` as
the run phase by itself; a point whose run phase covers more than the
kernel loop (``scatter_observed``) brackets it with ``h.run_phase()``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import repro.obs
from repro.apps.harness import mean
from repro.apps.hpl import hpl_run, n_for_memory_fraction
from repro.apps.omb import ialltoall_overlap
from repro.hw import Cluster, ClusterSpec
from repro.hw.params import MachineParams
from repro.offload import OffloadFramework, build_iallreduce
from repro.sim import Event

BENCH_DIR = Path(__file__).resolve().parent

#: Tolerances on |sim - ref| / ref that fail a point.
EXACT_RTOL = 1e-9
SELF_FLUID_RTOL = 1e-6
FLUID_VS_EXACT_RTOL = 0.06


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: which regime this is and which layer it stresses.
    why: str
    make_points: Callable[[dict, int], list[dict]]
    run_point: Callable[[dict, object], dict]
    #: Relative tolerance of a point's values against its reference.
    rtol: float
    #: How the reference was made (stamped into reference files).
    reference_kind: str
    #: Whether ``--seed`` changes the points (else they are a fixed grid).
    seeded: bool = False
    #: The point whose simulated values are a point's reference.
    reference_point: Callable[[dict], dict] = lambda pt: pt
    #: The same job without observation, for the ``obs.*`` ratios.
    bare_twin: Callable[[dict], dict] | None = None

    def point_rtol(self, pt: dict) -> float:
        return pt.get("rtol", self.rtol)


def load_grid(name: str, smoke: bool = False) -> dict:
    grid = json.loads((BENCH_DIR / "workloads" / f"{name}.json").read_text())
    overrides = grid.pop("smoke")
    if smoke:
        grid.update(overrides)
    return grid


class _Barrier:
    """Zero-cost rank alignment for measurement windows (the role of
    ``experiments.common.SimBarrier``, copied so the benchmark does not
    import the experiments package)."""

    def __init__(self, sim, n: int):
        self.sim = sim
        self.n = n
        self._count = 0
        self._event = Event(sim)

    def arrive(self):
        self._count += 1
        ev = self._event
        if self._count == self.n:
            self._count = 0
            self._event = Event(self.sim)
            ev.succeed(None)
        if not ev.processed:
            yield ev


def _run_ranks(cluster, gens) -> None:
    procs = [cluster.sim.process(g) for g in gens]
    cluster.sim.run(until=cluster.sim.all_of(procs))
    for proc in procs:
        if not proc.ok:
            raise proc.value


# ---------------------------------------------------------------------------
# 1. alltoall_dense_exact
# ---------------------------------------------------------------------------
def _alltoall_points(grid: dict, seed: int) -> list[dict]:
    return [
        {"id": f"{nodes}n/{flavor}/{block}", "flavor": flavor, "nodes": nodes,
         "ppn": grid["ppn"], "proxies_per_dpu": grid["proxies_per_dpu"],
         "block": block, "iters": grid["iters"], "warmup": grid["warmup"]}
        for nodes in grid["nodes"]
        for flavor in grid["flavors"]
        for block in grid["blocks"]
    ]


def _alltoall_run(pt: dict, h) -> dict:
    spec = ClusterSpec(nodes=pt["nodes"], ppn=pt["ppn"],
                       proxies_per_dpu=pt["proxies_per_dpu"], fluid=False)
    r = ialltoall_overlap(pt["flavor"], spec, pt["block"], iters=pt["iters"],
                          warmup=pt["warmup"], test_chunk=None)
    if not (0.0 < r.pure_comm and r.compute <= r.overall):
        raise AssertionError(f"overlap result out of shape: {r}")
    return {"overall_us": r.overall * 1e6, "pure_comm_us": r.pure_comm * 1e6}


# ---------------------------------------------------------------------------
# 2. hpl_lookahead_exact
# ---------------------------------------------------------------------------
def _hpl_points(grid: dict, seed: int) -> list[dict]:
    return [
        {"id": f"{int(fraction * 100)}%/{label}", "label": label,
         "flavor": flavor, "bcast": bcast, "fraction": fraction,
         **{k: grid[k] for k in ("nodes", "ppn", "proxies_per_dpu",
                                 "node_mem_bytes", "nb", "tests_per_update",
                                 "grid", "max_steps")}}
        for fraction in grid["fractions"]
        for label, flavor, bcast in grid["variants"]
    ]


def _hpl_run(pt: dict, h) -> dict:
    spec = ClusterSpec(nodes=pt["nodes"], ppn=pt["ppn"],
                       proxies_per_dpu=pt["proxies_per_dpu"], fluid=False)
    n = n_for_memory_fraction(pt["fraction"], pt["node_mem_bytes"], spec.nodes)
    r = hpl_run(pt["flavor"], spec, n=n, nb=pt["nb"], bcast=pt["bcast"],
                tests_per_update=pt["tests_per_update"],
                grid=tuple(pt["grid"]), max_steps=pt["max_steps"])
    if not (r.steps > 0 and 0.0 < r.compute_time <= r.total):
        raise AssertionError(f"HPL result out of shape: {r}")
    return {"total_us": r.total * 1e6, "comm_us": r.comm_time * 1e6}


# ---------------------------------------------------------------------------
# 3. allreduce_1k_scale
# ---------------------------------------------------------------------------
def _allreduce_points(grid: dict, seed: int) -> list[dict]:
    shared = {k: grid[k] for k in ("nodes", "ppn", "proxies_per_dpu",
                                   "proxy_batch_drain",
                                   "counter_doorbell_batch", "iters", "warmup")}
    return [{**p, **shared,
             "rtol": FLUID_VS_EXACT_RTOL if p["fluid"] else EXACT_RTOL}
            for p in grid["points"]]


def _allreduce_run(pt: dict, h) -> dict:
    spec = ClusterSpec(
        nodes=pt["nodes"], ppn=pt["ppn"],
        proxies_per_dpu=pt["proxies_per_dpu"], slim=True, fluid=pt["fluid"],
        params=MachineParams(
            proxy_batch_drain=pt["proxy_batch_drain"],
            counter_doorbell_batch=pt["counter_doorbell_batch"]),
    )
    cl = Cluster(spec)
    cl.payloads = False  # timing only; nothing reads the gradients
    fw = OffloadFramework(cl, mode="gvmi", group_caching=True)
    P = spec.world_size
    nbytes = pt["nbytes"]
    barrier = _Barrier(cl.sim, P)
    samples: list[float] = []

    def prog(rank):
        ep = fw.endpoint(rank)
        addr = ep.ctx.space.alloc(nbytes)
        greq, _scratch = build_iallreduce(ep, addr, nbytes, comm_size=P)
        for it in range(pt["warmup"] + pt["iters"]):
            yield from barrier.arrive()
            t0 = cl.sim.now
            yield from ep.group_call(greq)
            yield from ep.group_wait(greq)
            if it >= pt["warmup"] and rank == 0:
                samples.append(cl.sim.now - t0)

    _run_ranks(cl, [prog(r) for r in range(P)])
    fw.assert_quiescent()
    return {"latency_us": mean(samples) * 1e6}


# ---------------------------------------------------------------------------
# 4. fattree_bulk_fluid
# ---------------------------------------------------------------------------
def _fattree_points(grid: dict, seed: int) -> list[dict]:
    """One point; its traffic plan is drawn here from ``seed`` and handed
    to the program as plain lists: ``plan[node][wave]`` is a list of
    ``(jitter_s, dst_node, size)`` posts."""
    rng = random.Random(seed)
    n = grid["nodes"]
    plan = []
    for node in range(n):
        waves = []
        for _wave in range(grid["waves"]):
            posts = []
            for _ in range(grid["posts_per_wave"]):
                dst = rng.randrange(n - 1)
                posts.append([rng.uniform(0.0, grid["max_jitter_s"]),
                              dst + (dst >= node),
                              rng.choice(grid["sizes"])])
            waves.append(posts)
        plan.append(waves)
    return [{"id": f"{n}n/seed{seed}", "plan": plan,
             **{k: grid[k] for k in ("nodes", "ppn", "proxies_per_dpu",
                                     "nodes_per_switch", "spine_count")}}]


def _fattree_run(pt: dict, h) -> dict:
    spec = ClusterSpec(
        nodes=pt["nodes"], ppn=pt["ppn"],
        proxies_per_dpu=pt["proxies_per_dpu"],
        nodes_per_switch=pt["nodes_per_switch"],
        spine_count=pt["spine_count"], fluid=True,
    )
    cl = Cluster(spec)
    cl.payloads = False
    sim, fabric = cl.sim, cl.fabric
    wave_done: list[list[float]] = [[] for _ in pt["plan"][0]]
    delivered_bytes = [0]

    def on_deliver(dv):
        delivered_bytes[0] += dv.size

    def prog(node, waves):
        for w, posts in enumerate(waves):
            handles = []
            for jitter, dst, size in posts:
                yield sim.timeout(jitter)
                handles.append(fabric.transfer(
                    src_node=node, dst_node=dst, size=size, initiator="host",
                    on_deliver=on_deliver))
            yield sim.all_of([t.completed for t in handles])
            wave_done[w].append(sim.now)

    _run_ranks(cl, [prog(node, waves) for node, waves in enumerate(pt["plan"])])
    posted = sum(size for waves in pt["plan"] for posts in waves
                 for _j, _d, size in posts)
    if delivered_bytes[0] != posted:
        raise AssertionError(
            f"delivered {delivered_bytes[0]} of {posted} posted bytes")
    values = {"makespan_us": sim.now * 1e6}
    for w, times in enumerate(wave_done):
        values[f"wave{w + 1}_mean_done_us"] = mean(times) * 1e6
    return values


# ---------------------------------------------------------------------------
# 5. scatter_observed
# ---------------------------------------------------------------------------
def _scatter_points(grid: dict, seed: int) -> list[dict]:
    return [
        {"id": variant, "variant": variant, "observed": True,
         **{k: grid[k] for k in ("nodes", "ppn", "proxies_per_dpu", "block",
                                 "iters", "warmup")}}
        for variant in grid["variants"]
    ]


def _scatter_run(pt: dict, h) -> dict:
    """``observed=False`` is the point's bare twin (same job, no obs),
    run only by the traced pass for the ``obs.*`` ratios."""
    spec = ClusterSpec(nodes=pt["nodes"], ppn=pt["ppn"],
                       proxies_per_dpu=pt["proxies_per_dpu"], fluid=False)
    cl = Cluster(spec)
    cl.payloads = False
    # Attached before the framework exists, as fig15's instrument hook does.
    # Looked up on the module at call time: the traced pass wraps it.
    obs = repro.obs.observe_cluster(cl) if pt["observed"] else None
    fw = OffloadFramework(cl, mode="gvmi", group_caching=True)
    P = spec.world_size
    block = pt["block"]
    variant = pt["variant"]
    barrier = _Barrier(cl.sim, P)
    samples: list[float] = []

    def prog(rank):
        sim = cl.sim
        ep = fw.endpoint(rank)
        sbuf = ep.ctx.space.alloc(P * block)
        rbuf = ep.ctx.space.alloc(P * block)
        peers = [((rank + d) % P, (rank - d) % P) for d in range(1, P)]
        greq = None
        if variant == "group":
            greq = ep.group_start()
            for dst, src in peers:
                ep.group_send(greq, sbuf + dst * block, block, dst=dst, tag=6)
                ep.group_recv(greq, rbuf + src * block, block, src=src, tag=6)
            ep.group_end(greq)
        for it in range(pt["warmup"] + pt["iters"]):
            yield from barrier.arrive()
            t0 = sim.now
            if variant == "group":
                yield from ep.group_call(greq)
                yield from ep.group_wait(greq)
            else:
                reqs = []
                for dst, src in peers:
                    reqs.append((yield from ep.send_offload(
                        sbuf + dst * block, block, dst=dst, tag=6)))
                    reqs.append((yield from ep.recv_offload(
                        rbuf + src * block, block, src=src, tag=6)))
                yield from ep.waitall(reqs)
            if it >= pt["warmup"] and rank == 0:
                samples.append(sim.now - t0)

    with h.run_phase():
        _run_ranks(cl, [prog(r) for r in range(P)])
        if obs is not None:
            obs.check()
            trace = obs.chrome_trace()
            h.count("obs.bus_events", len(obs.bus))
            h.count("obs.trace_events", len(trace["traceEvents"]))
    fw.assert_quiescent()
    return {"per_iter_us": mean(samples) * 1e6}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "alltoall_dense_exact",
        "bandwidth-bound, every pair talks: per-message kernel, fabric and "
        "proxy cost rules (fig13 grid, exact engine)",
        _alltoall_points, _alltoall_run, EXACT_RTOL, "exact engine",
    ),
    Workload(
        "hpl_lookahead_exact",
        "latency-bound, CPU-intervention regime: host-MPI progress polling "
        "dominates; opposite protocol mix to alltoall (fig17 grid)",
        _hpl_points, _hpl_run, EXACT_RTOL, "exact engine",
    ),
    Workload(
        "allreduce_1k_scale",
        "1024 slim ranks: proxy and group-exec lead, lazy state decides "
        "memory and set-up, fluid error is measured against exact",
        _allreduce_points, _allreduce_run, EXACT_RTOL,
        "exact engine (the fluid point's reference is its exact-engine twin)",
        reference_point=lambda pt: {**pt, "fluid": False},
    ),
    Workload(
        "fattree_bulk_fluid",
        "staggered bulk arrivals on the per-link fat-tree: every arrival "
        "re-solves the active flows, so the flow solver is the whole cost",
        _fattree_points, _fattree_run, SELF_FLUID_RTOL,
        "self-recorded (no finer model of the per-link fabric exists: drift only)",
        seeded=True,
    ),
    Workload(
        "scatter_observed",
        "same fabric, proxy and offload layers with bus and tracer attached: "
        "generator paths, bus emission, invariant check and trace export",
        _scatter_points, _scatter_run, EXACT_RTOL, "exact engine",
        bare_twin=lambda pt: {**pt, "observed": False},
    ),
)}

