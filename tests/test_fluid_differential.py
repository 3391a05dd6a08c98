"""Differential equivalence harness for the flow engine.

Flows exist exactly when ``ClusterSpec.nodes_per_switch > 0``
(docs/PERFORMANCE.md); the paper's single switch runs the exact port
walk alone.  Two guarantees, both enforced here:

1. **The single switch is exact.**  The figure tables regenerate
   byte-for-byte against the committed ``results/figNN.json``
   snapshots, the golden observability traces are untouched, and the
   ignored ``fluid`` spec field builds no flow engine.
2. **A one-leaf tree is equivalent within a stated tolerance.**  With
   every single-switch spec rewritten to one leaf holding every node
   (``nodes_per_switch=nodes``: flows over the two-link (tx, rx) path),
   the quick-scale micro figures (fig02/03/05/15) must match the
   committed exact tables point by point within ``FLUID_RTOL``, and
   every paper-shape check must still pass.

The measured deviations behind the tolerance choice (also quoted in
docs/PERFORMANCE.md): fig02/05/15 are bit-identical on flows (all their
transfers sit below the 256 KiB threshold or run solo, where a flow
lands on exactly the event engine's timestamps), and fig03's worst
point is ~1e-15 (one float round-trip through the rate solver).
``FLUID_RTOL = 1e-9`` therefore has six orders of magnitude of margin
while still catching any genuine modelling drift.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from tests.helpers import run_procs
from repro.experiments import runall
from repro.experiments.common import canonical_json
from repro.hw import Cluster, ClusterSpec
from repro.obs import EventBus, trace_violations
from repro.offload import OffloadFramework, build_iallreduce

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: The quick-scale micro figures the differential harness gates on
#: (the app figures deviate up to ~10% through lost bulk-vs-control
#: port contention and are covered by shape checks, not bit tolerance).
DIFF_FIGURES = [
    "fig02_rdma_latency",
    "fig03_rdma_bw",
    "fig05_registration",
    "fig15_group_vs_simple",
]

#: Relative tolerance for fluid-vs-exact figure values.
FLUID_RTOL = 1e-9


def _committed(name: str) -> dict:
    doc = json.loads((RESULTS_DIR / f"{name.split('_')[0]}.json").read_text())
    doc.pop("schema", None)  # added by runall's file writer, not by run()
    return doc


def _run(name: str):
    (record,) = runall.run_selected([name], scale="quick")
    assert record["error"] is None, f"{name} crashed: {record['error']}"
    return record["fig"]


def _rebuild_specs(monkeypatch, rewrite) -> None:
    """Every cluster built for the rest of the test gets ``rewrite(spec)``."""
    build = Cluster.__init__
    monkeypatch.setattr(Cluster, "__init__",
                        lambda self, spec: build(self, rewrite(spec)))


@pytest.fixture
def fluid_flag(monkeypatch):
    _rebuild_specs(monkeypatch, lambda spec: replace(spec, fluid=True))


def _offloaded_allreduce_s(**spec_kw) -> float:
    """Finish time of one offloaded 1 MiB Iallreduce over 8 ranks."""
    cl = Cluster(ClusterSpec(nodes=4, ppn=2, proxies_per_dpu=2, **spec_kw))
    cl.payloads = False
    fw = OffloadFramework(cl)
    nbytes, P = 1 << 20, cl.spec.world_size

    def prog(rank):
        ep = fw.endpoint(rank)
        addr = ep.ctx.space.alloc(nbytes)
        greq, _ = build_iallreduce(ep, addr, nbytes, comm_size=P)
        yield from ep.group_call(greq)
        yield from ep.group_wait(greq)
        return cl.sim.now

    return max(run_procs(cl, [prog(r) for r in range(P)]))


class TestExactModeBitIdentity:
    """The single switch => committed tables regenerate byte-for-byte."""

    @pytest.mark.parametrize("name", DIFF_FIGURES)
    def test_tables_match_committed(self, name):
        fig = _run(name)
        assert canonical_json(fig.to_dict()) == canonical_json(_committed(name)), (
            f"{name}: exact-mode table drifted from the committed snapshot -- "
            f"the single switch must stay bit-identical"
        )

    def test_flow_engine_disengaged(self):
        """No flows on a single switch, whatever the ignored ``fluid``."""
        for spec in (ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1),
                     ClusterSpec(nodes=4, fluid=True)):
            cl = Cluster(spec)
            assert cl.fabric.flow_engine is None
            assert cl.sim.flow_engine is None
            assert cl.topology is None

    def test_golden_traces_unchanged_even_in_fluid_mode(self, fluid_flag):
        """The ignored ``fluid`` field changes no event stream."""
        from tests.test_golden_traces import GOLDEN_DIR, SCENARIOS, serialize_events

        obs = SCENARIOS["ring_broadcast"]()
        got = serialize_events(obs.bus)
        assert got == (GOLDEN_DIR / "ring_broadcast.events").read_text()

    def test_offloaded_allreduce_ignores_the_fluid_flag(self):
        """A 1 MiB offloaded Iallreduce: the flag moves no timestamp."""
        assert _offloaded_allreduce_s(fluid=True) == \
            _offloaded_allreduce_s(fluid=False)


class TestFlowsNeedATopology:
    def test_fat_tree_builds_the_flow_engine(self):
        cl = Cluster(ClusterSpec(nodes=4, nodes_per_switch=2))
        assert cl.fabric.flow_engine is cl.sim.flow_engine is not None
        assert cl.fabric.topology is cl.topology is not None
        assert cl.topology.n_leaves == 2
        seen = {}

        def prog():
            t = cl.fabric.transfer(src_node=0, dst_node=3, size=1 << 20,
                                   initiator="host")
            dv = yield t.completed
            seen["dv"] = dv

        cl.sim.process(prog())
        cl.sim.run()
        assert seen["dv"].via == "flow"
        assert seen["dv"].path == (("tx", 0), ("up", 0, 0), ("down", 0, 1),
                                   ("rx", 3))


@pytest.fixture
def single_switch_fat_tree(monkeypatch):
    _rebuild_specs(monkeypatch, lambda spec: replace(
        spec, nodes_per_switch=spec.nodes_per_switch or spec.nodes))


@pytest.mark.usefixtures("single_switch_fat_tree")
class TestTopologyModeBitIdentity:
    """The one-leaf tree (``nodes_per_switch=nodes``) is the single
    switch with flows: every flow's path is the 2-link (tx, rx) pair,
    and the committed exact tables must regenerate within FLUID_RTOL --
    with the per-link machinery attached, not bypassed.  Golden traces
    stay byte-identical too (the control plane never touches the flow
    engine)."""

    @pytest.mark.parametrize("name", DIFF_FIGURES)
    def test_single_switch_tables_match(self, name):
        fig = _run(name)
        assert fig.all_passed, (
            f"{name}: paper-shape checks failed in topology mode: "
            + "; ".join(c.name for c in fig.checks if not c.passed)
        )
        committed = _committed(name)
        got = fig.to_dict()
        assert [s["label"] for s in got["series"]] == \
            [s["label"] for s in committed["series"]]
        for se, sf in zip(committed["series"], got["series"]):
            assert sf["x"] == se["x"]
            for x, exact, topo in zip(se["x"], se["y"], sf["y"]):
                assert topo == pytest.approx(exact, rel=FLUID_RTOL), (
                    f"{name} {se['label']}@{x}: topology {topo!r} vs "
                    f"exact {exact!r} exceeds rtol={FLUID_RTOL}"
                )

    def test_topology_attached_not_bypassed(self):
        """Guard against vacuity: the rewritten spec must actually build
        a FatTreeTopology and route flows through path= admission."""
        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
        assert cl.topology is not None
        assert cl.topology.n_leaves == 1
        seen = {}

        def prog():
            t = cl.fabric.transfer(src_node=0, dst_node=1, size=1 << 20,
                                   initiator="host")
            dv = yield t.completed
            seen["path"] = dv.path

        cl.sim.process(prog())
        cl.sim.run()
        assert seen["path"] == (("tx", 0), ("rx", 1))

    def test_golden_traces_unchanged_in_topology_mode(self):
        from tests.test_golden_traces import GOLDEN_DIR, SCENARIOS, serialize_events

        obs = SCENARIOS["ring_broadcast"]()
        got = serialize_events(obs.bus)
        assert got == (GOLDEN_DIR / "ring_broadcast.events").read_text()

    def test_bulk_actually_rides_flows(self):
        """Guard against the differential passing vacuously: a transfer
        above the threshold must engage the FlowEngine and complete via
        the flow path."""
        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1,
                                 nodes_per_switch=2))
        seen = {}

        def prog():
            t = cl.fabric.transfer(src_node=0, dst_node=1, size=1 << 20,
                                   initiator="host")
            dv = yield t.completed
            seen["via"] = dv.via

        cl.sim.process(prog())
        cl.sim.run()
        assert seen["via"] == "flow"
        assert cl.fabric.flow_engine.flows_finished == 1
        assert cl.nodes[0].hca.metrics.get("fabric.flows") == 1

    def test_sub_threshold_stays_event_exact(self):
        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1,
                                 nodes_per_switch=2))
        seen = {}

        def prog():
            t = cl.fabric.transfer(src_node=0, dst_node=1, size=4096,
                                   initiator="host")
            dv = yield t.completed
            seen["via"] = dv.via

        cl.sim.process(prog())
        cl.sim.run()
        assert seen["via"] == "event"
        assert cl.fabric.flow_engine.flows_started == 0


def _bulk_observed(break_finisher=None):
    """Two crossing bulk flows on a one-leaf tree with the bus attached;
    returns the bus after the run."""
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1,
                             nodes_per_switch=2))
    bus = EventBus.attach(cl)
    if break_finisher is not None:
        fabric = cl.fabric
        fabric._flow_drained = break_finisher.__get__(fabric, type(fabric))

    def prog():
        a = cl.fabric.transfer(src_node=0, dst_node=1, size=1 << 20,
                               initiator="host")
        b = cl.fabric.transfer(src_node=1, dst_node=0, size=1 << 20,
                               initiator="host")
        yield cl.sim.all_of([a.completed, b.completed])

    cl.sim.process(prog())
    cl.sim.run()
    return bus


class TestFlowWindowInvariant:
    """The obs checker treats a flow's bulk window as opaque DMA."""

    def test_clean_fluid_run_passes(self):
        bus = _bulk_observed()
        assert trace_violations(bus) == []
        assert bus.count(cat="flow", name="begin") == 2
        assert bus.count(cat="flow", name="end") == 2
        assert bus.count(cat="xfer", name="deliver") == 2

    def test_lost_finisher_is_caught(self):
        """A finisher that delivers but never closes the window."""
        from repro.hw.fabric import Fabric

        real = Fabric._flow_drained

        def lost_end(self, flow, t_drain):
            bus = self.bus
            self.bus = None          # swallow only the flow.end emission
            try:
                real(self, flow, t_drain)
            finally:
                self.bus = bus

        bus = _bulk_observed(break_finisher=lost_end)
        violations = trace_violations(bus)
        assert violations, "lost flow.end went undetected"
        assert any("never ended" in v for v in violations)

    def test_early_delivery_inside_window_is_caught(self):
        """A finisher that fires the delivery tail *inside* the bulk
        window (before emitting flow.end)."""
        from repro.hw.fabric import Fabric

        def early_deliver(self, flow, t_drain):
            st = flow.tag
            st.land()                # delivery leaks into the open window
            self.bus.emit("flow", "end", f"flow{flow.fid}", fid=flow.fid,
                          xid=st.xid)

        bus = _bulk_observed(break_finisher=early_deliver)
        violations = trace_violations(bus)
        assert violations, "early delivery inside the bulk window went undetected"
        assert any("inside its bulk window" in v for v in violations)

    def test_control_event_inside_window_is_caught(self):
        """Synthetic stream: a host-CPU event attributed to an open flow."""
        bus = EventBus()
        bus.emit("flow", "begin", "flow0", fid=0, xid=0, kind="data",
                 size=1 << 20, src=0, dst=1)
        bus.emit("proc", "start", "flow0", fid=0)
        bus.emit("flow", "end", "flow0", fid=0, xid=0)
        violations = trace_violations(bus)
        assert any("bulk window" in v for v in violations)


class TestFaultyDifferential:
    """Fault injection composed with the flow engine: the same seeded
    chaos campaign must tell the same recovery story on the single
    switch and on the one-leaf tree.

    At the soak workload's message sizes each exchange rides a solo
    flow, where the fluid engine reproduces the event engine's
    timestamps exactly -- so the differential is strict: identical
    fault statistics, identical completion counts, and latency samples
    within FLUID_RTOL.  Flow-drop fates exist only on the flow path
    (their stream is never consumed on the port walk), so the strict
    comparison runs with flow_drop=0 and a separate check covers the
    composed fates.
    """

    SEEDS = (7, 8, 9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_faulty_fluid_matches_faulty_exact(self, seed):
        from repro.experiments.soak import soak_iteration

        exact = soak_iteration(0, "quick", 0.05, 0.02, 4, 1, 1,
                               0, 0.0, seed=seed)
        fluid = soak_iteration(0, "quick", 0.05, 0.02, 4, 1, 1,
                               4, 0.0, seed=seed)
        assert exact["fault_stats"] == fluid["fault_stats"]
        for k, v in exact["counters"].items():
            assert fluid["counters"][k] == v, f"counter {k} diverged"
        assert fluid["counters"]["flows"] > 0  # not vacuous
        for hist in ("recovery_latency", "req_latency"):
            a, b = exact["hists"][hist], fluid["hists"][hist]
            assert len(a) == len(b), f"{hist} sample count diverged"
            for x, y in zip(sorted(a), sorted(b)):
                assert y == pytest.approx(x, rel=FLUID_RTOL), (
                    f"{hist}: fluid {y!r} vs exact {x!r}")

    def test_flow_drops_stay_in_the_recovery_envelope(self):
        """With flow-drop fates armed on top, the campaign still
        completes every request and recovery latencies stay in the same
        regime (the retransmitted remainder rides the same backoff
        constants as the event path's recoveries)."""
        import numpy as np

        from repro.experiments.soak import soak_iteration

        exact = soak_iteration(0, "quick", 0.05, 0.02, 4, 1, 1,
                               0, 0.0, seed=7)
        faulty = soak_iteration(0, "quick", 0.05, 0.02, 4, 1, 1,
                                4, 0.2, seed=7)
        assert faulty["counters"]["completions"] == \
            exact["counters"]["completions"]
        assert faulty["fault_stats"]["flow_drops"] > 0
        p50_exact = float(np.percentile(exact["hists"]["req_latency"], 50))
        p50_faulty = float(np.percentile(faulty["hists"]["req_latency"], 50))
        assert p50_faulty < 5.0 * p50_exact
