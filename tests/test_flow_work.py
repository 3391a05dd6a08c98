"""Work done by the flow engine on a 256-node bulk sweep, pinned.

Every node streams four 1 MiB transfers through ``Fabric.transfer``,
alternating its ring neighbour and its bisection peer.  What the sweep
costs is counted, not timed: events the kernel processed, flows the
engine started and full rate recomputations, on one leaf holding every
node and on a 16-leaf tree.  The counts repeat
exactly, so a change that makes the flow path do more work fails here
whatever machine the suite runs on (docs/PERFORMANCE.md, "Throughput"
and "Per-link topology mode").
"""

import pytest

from repro.hw import Cluster, ClusterSpec, FaultPlan, FaultSpec

NODES, WINDOW, SIZE = 256, 4, 1 << 20


def _sweep(plan: FaultPlan | None = None, nodes_per_switch: int = NODES,
           **spec) -> Cluster:
    cl = Cluster(ClusterSpec(nodes=NODES, ppn=1, proxies_per_dpu=1,
                             nodes_per_switch=nodes_per_switch, **spec))
    if plan is not None:
        cl.install_faults(plan)

    def prog():
        pending = []
        for i in range(NODES):
            for k in range(WINDOW):
                dst = (i + 1) % NODES if k % 2 == 0 else (i + NODES // 2) % NODES
                t = cl.fabric.transfer(src_node=i, dst_node=dst, size=SIZE,
                                       initiator="host")
                pending.append(t.completed)
        yield cl.sim.all_of(pending)

    cl.sim.process(prog())
    cl.sim.run()
    return cl


def _work(cl: Cluster) -> tuple[int, int, int]:
    engine = cl.sim.flow_engine
    return cl.sim.processed_events, engine.flows_started, engine.recomputes


def _faulty_plan() -> FaultPlan:
    return FaultPlan(FaultSpec(error_cqe_prob=0.01, flow_drop_prob=0.01),
                     seed=7)


@pytest.mark.parametrize("spec, expected", [
    ({}, (3077, 1024, 2)),
    ({"nodes_per_switch": 16, "spine_count": 4}, (3102, 1024, 27)),
], ids=["single_switch", "fat_tree"])
def test_fault_free_sweep_work(spec, expected):
    assert _work(_sweep(**spec)) == expected


def test_faulted_sweep_work():
    plan = _faulty_plan()
    cl = _sweep(plan)
    assert _work(cl) == (3145, 1038, 43)
    assert plan.stats["flow_drops"] == plan.stats["flow_retries"] == 14
    assert plan.stats["error_cqes"] == 9
    # Every dropped flow was retransmitted once, and the fabric saw each.
    assert cl.metrics.get("fabric.flow_drops") == 14
    assert cl.metrics.get("fabric.flow_retries") == 14


def test_faults_never_degenerate_toward_event_cost():
    """A 1 % fault plan adds a handful of events, never a per-byte chain:
    the faulted sweep stays within 10 % of the fault-free one's work."""
    clean, _, _ = _work(_sweep())
    faulty, _, _ = _work(_sweep(_faulty_plan()))
    assert faulty <= 1.1 * clean
