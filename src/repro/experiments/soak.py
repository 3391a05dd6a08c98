"""Chaos-soak SLO harness: ``python -m repro soak``.

Runs the offload stack's core exchange workload in a loop, each
iteration on a fresh cluster under a *seeded* :class:`FaultPlan`
(control-message drops + error CQEs on the offload control kinds) and a
DPU memory budget, and distils the recovery behaviour into a
schema-stamped SLO report.  The workload is a ring exchange -- every
rank posts a receive from its left neighbour, sends to its right, and
waits on both -- so the harness scales from the default 2-rank
ping-pong shape to paper-scale topologies via ``--nodes``, ``--ppn``
and ``--proxies``.  ``--nodes-per-switch N`` (N > 0) hangs the nodes
off a leaf/spine fat-tree with N nodes per leaf and pins the flow
threshold at the message size, so every exchange rides the FlowEngine
and ``--flow-drop`` exercises the flow-path fault fates; 0 (the
default) is the paper's single switch, run exactly.  SLO columns:

* ``recovery_latency`` -- p50/p95/p99 of simulated seconds from a
  request's first post to completion *for requests that needed at least
  one recovery action* (the ``offload.recovery_latency`` histogram;
  empty on a fault-free run by construction).
* ``req_latency`` -- the same percentiles over every completed request.
* ``fallback_rate`` -- host-fallback completions per completed request.
* ``retries_per_point`` -- control retransmits per completed request.

Every iteration is checkpointed into a campaign :class:`Journal` as it
completes, so a killed soak resumes where it stopped (``--out`` doubles
as the resume directory) and the merged report is identical to an
uninterrupted run.  Iterations that crash are retried on fresh workers
(``--retries``) and quarantined into the report when they keep failing;
the exit code is the campaign classification (0 clean / 3 partial /
1 failed).

Everything draws from seeded streams -- two soaks with the same
arguments produce byte-identical reports (modulo ``wall_seconds``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments.campaign import Journal, campaign_jobs, classify_campaign
from repro.experiments.parallel import PointFailure, sweep_map
from repro.hw import (
    OFFLOAD_CONTROL_KINDS,
    Cluster,
    ClusterSpec,
    FaultPlan,
    FaultSpec,
    MachineParams,
)
from repro.mpi.schedules import ring_neighbours
from repro.obs.hist import Histogram
from repro.util import atomic_write

__all__ = ["main", "soak_iteration", "SOAK_SCHEMA"]

SOAK_SCHEMA = "repro.soak/1"

#: (exchange rounds, message bytes) per iteration.
_SCALES = {"quick": (12, 4096), "paper": (48, 16384)}

#: Per-proxy DPU DRAM budget during the soak -- tight enough that the
#: governance layer is live, generous enough that the workload fits.
_DPU_BUDGET = 1 << 20


def soak_iteration(iteration: int, scale: str, drop: float,
                   error_cqe: float, nodes: int = 2, ppn: int = 1,
                   proxies: int = 1, nodes_per_switch: int = 0,
                   flow_drop: float = 0.0, *, seed: int) -> dict:
    """One chaos iteration: fresh cluster, seeded faults, ring exchange.

    Every rank posts a receive from its left neighbour and a send to its
    right each round, then waits on both -- deadlock-free at any world
    size because all receives are pre-posted.  With ``nodes_per_switch``
    > 0 the cluster is a fat-tree with ``fluid_threshold`` pinned at the
    message size, so each exchange is a FlowEngine flow and
    ``flow_drop`` injects flow-path drop/retransmit fates.

    Returns a picklable record of the iteration's counters, fault-plan
    statistics, and raw latency samples (merged across iterations by
    :func:`main` into the SLO report).  The full argument tuple is the
    journal content key: changing topology or engine knobs never
    collides with a prior campaign's checkpoints.
    """
    from repro.offload import OffloadFramework

    iters, size = _SCALES[scale]
    params = MachineParams().with_overrides(dpu_mem_budget=_DPU_BUDGET)
    spec = ClusterSpec(nodes=nodes, ppn=ppn, proxies_per_dpu=proxies,
                       seed=seed, params=params,
                       nodes_per_switch=nodes_per_switch,
                       fluid_threshold=size)
    cl = Cluster(spec)
    # The SLO metrics are latencies and counters; skip moving payload
    # bytes (correctness-under-faults is the fault test suite's job).
    cl.payloads = False
    plan = FaultPlan(
        FaultSpec(drop_prob=drop, error_cqe_prob=error_cqe,
                  flow_drop_prob=flow_drop if nodes_per_switch > 0 else 0.0,
                  control_kinds=OFFLOAD_CONTROL_KINDS),
        seed=seed,
    )
    cl.install_faults(plan)  # implies the resilient RetryPolicy
    fw = OffloadFramework(cl)
    sim = cl.sim
    world = spec.world_size

    def player(rank: int):
        right, left = ring_neighbours(rank, world)

        def prog(sim):
            ep = fw.endpoint(rank)
            sbuf = ep.ctx.space.alloc(size)
            rbuf = ep.ctx.space.alloc(size)
            for i in range(iters):
                rreq = yield from ep.recv_offload(rbuf, size, src=left,
                                                  tag=i)
                sreq = yield from ep.send_offload(sbuf, size, dst=right,
                                                  tag=i)
                yield from ep.wait(rreq)
                yield from ep.wait(sreq)
            return None
        return prog

    procs = [sim.process(player(r)(sim)) for r in range(world)]
    sim.run(until=sim.all_of(procs))
    fw.assert_quiescent()
    # End of life: the counters, histograms and clock stay readable.
    fw.close()
    cl.close()

    m = cl.metrics
    req_hist = m.hist("offload.req_latency")
    counters = {
        "completions": req_hist.count,
        "retransmits": m.get("offload.retransmits"),
        "fallbacks": m.get("offload.fallbacks"),
        "oom_fallbacks": m.get("offload.oom_fallbacks"),
    }
    if nodes_per_switch > 0:
        counters.update({
            "flows": m.get("fabric.flows"),
            "flow_drops": m.get("fabric.flow_drops"),
            "flow_retries": m.get("fabric.flow_retries"),
            "flow_cqes": m.get("proxy.flow_cqes"),
        })
    return {
        "iteration": iteration,
        "seed": seed,
        "sim_seconds": sim.now,
        "counters": counters,
        "fault_stats": dict(plan.stats),
        "hists": {
            "recovery_latency": m.hist("offload.recovery_latency").samples(),
            "req_latency": req_hist.samples(),
        },
    }


def _summarise(records: list[dict], failures: list[PointFailure],
               args: argparse.Namespace, wall_s: float) -> dict:
    """Fold per-iteration records into the SLO report document."""
    recovery = Histogram()
    req = Histogram()
    counters: dict[str, float] = {}
    fault_stats: dict[str, int] = {}
    sim_seconds = 0.0
    for rec in records:
        recovery.merge(Histogram(rec["hists"]["recovery_latency"]))
        req.merge(Histogram(rec["hists"]["req_latency"]))
        for k, v in rec["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in rec["fault_stats"].items():
            fault_stats[k] = fault_stats.get(k, 0) + v
        sim_seconds += rec["sim_seconds"]

    completions = counters.get("completions", 0)
    report = {
        "schema": SOAK_SCHEMA,
        "config": {
            "iters": args.iters,
            "scale": args.scale,
            "seed": args.seed,
            "drop_prob": args.drop,
            "error_cqe_prob": args.error_cqe,
            "retries": args.retries,
            "nodes": args.nodes,
            "ppn": args.ppn,
            "proxies": args.proxies,
            "nodes_per_switch": args.nodes_per_switch,
            "flow_drop_prob": (args.flow_drop if args.nodes_per_switch > 0
                               else 0.0),
        },
        "iterations": {
            "requested": args.iters,
            "completed": len(records),
            "quarantined": len(failures),
        },
        "slo": {
            "recovery_latency": recovery.summary(),
            "req_latency": req.summary(),
            "fallback_rate": (counters.get("fallbacks", 0) / completions
                              if completions else 0.0),
            "retries_per_point": (counters.get("retransmits", 0) / completions
                                  if completions else 0.0),
        },
        "counters": counters,
        "fault_stats": fault_stats,
        "sim_seconds": sim_seconds,
        "quarantined": [f.to_dict() for f in failures],
        "wall_seconds": round(wall_s, 1),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro soak", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--iters", type=int, default=10,
                        help="chaos iterations (default 10)")
    parser.add_argument("--scale", default="quick", choices=sorted(_SCALES))
    parser.add_argument("--seed", type=int, default=7,
                        help="root seed for per-iteration fault streams")
    parser.add_argument("--drop", type=float, default=0.05,
                        help="control-message drop probability (default 0.05)")
    parser.add_argument("--error-cqe", type=float, default=0.02,
                        help="data-op error-CQE probability (default 0.02)")
    parser.add_argument("--nodes", type=int, default=2,
                        help="cluster nodes per iteration (default 2)")
    parser.add_argument("--ppn", type=int, default=1,
                        help="host ranks per node (default 1)")
    parser.add_argument("--proxies", type=int, default=1,
                        help="proxy workers per DPU (default 1)")
    parser.add_argument("--nodes-per-switch", type=int, default=0,
                        metavar="N",
                        help="nodes per leaf of a leaf/spine fat-tree whose "
                             "flows carry every exchange (default 0: the "
                             "single switch, run exactly)")
    parser.add_argument("--flow-drop", type=float, default=0.05,
                        help="flow drop/retransmit probability, with "
                             "--nodes-per-switch > 0 only (default 0.05)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="iteration worker processes "
                             "(default: $REPRO_JOBS or 1)")
    parser.add_argument("--retries", type=int, default=1,
                        help="retry budget per crashed iteration (default 1)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-iteration hang watchdog in seconds")
    parser.add_argument("--out", default="results/soak", metavar="DIR",
                        help="report + checkpoint journal directory "
                             "(default results/soak); rerunning with the "
                             "same DIR resumes completed iterations")
    args = parser.parse_args(argv)
    if args.nodes_per_switch < 0:
        parser.error("--nodes-per-switch must be >= 0")
    jobs = campaign_jobs(parser, args)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    journal = Journal(out, label="soak")

    points = [(i, args.scale, args.drop, args.error_cqe, args.nodes,
               args.ppn, args.proxies, args.nodes_per_switch,
               args.flow_drop if args.nodes_per_switch > 0 else 0.0)
              for i in range(args.iters)]
    t0 = time.time()
    outcomes = sweep_map(
        soak_iteration, points, jobs=jobs, on_error="keep",
        label="soak", seed_root=args.seed, seed_kwarg="seed",
        retries=args.retries, point_timeout=args.timeout, journal=journal,
    )
    records = [o for o in outcomes if not isinstance(o, PointFailure)]
    failures = [o for o in outcomes if isinstance(o, PointFailure)]

    report = _summarise(records, failures, args, time.time() - t0)
    report_path = out / "SLO.json"
    atomic_write(report_path,
                 json.dumps(report, indent=2, sort_keys=True) + "\n")

    slo = report["slo"]
    resumed = journal.hits
    print(f"soak: {len(records)}/{args.iters} iterations completed"
          + (f" ({resumed} resumed from journal)" if resumed else "")
          + (f", {len(failures)} quarantined" if failures else ""))
    rl = slo["recovery_latency"]
    if rl.get("count"):
        print(f"  recovery latency: n={rl['count']} "
              f"p50={rl['p50']:.3e}s p95={rl['p95']:.3e}s p99={rl['p99']:.3e}s")
    else:
        print("  recovery latency: no recoveries observed")
    print(f"  fallback rate: {slo['fallback_rate']:.4f}/req, "
          f"retries: {slo['retries_per_point']:.4f}/req")
    for f in failures:
        print(f"  quarantined iteration {f.point[0]}: "
              f"{f.error_type} after {f.attempts} attempts", file=sys.stderr)
    if journal.corrupt:
        for path, reason in journal.corrupt:
            print(f"journal: ignored damaged record {path}: {reason}",
                  file=sys.stderr)
    print(f"wrote {report_path}")
    return classify_campaign(len(records), len(failures), 0)


if __name__ == "__main__":
    sys.exit(main())
