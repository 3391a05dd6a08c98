"""Trace-invariant checker: clean runs pass, broken runs fail loudly.

The positive half instruments real differential-harness runs and
asserts ``check_trace`` accepts them (and that the streams actually
contain the events the taxonomy promises -- an empty bus would pass
vacuously).  The negative half breaks the stack on purpose -- a 100%
FIN-drop fault campaign with no recovery -- and on synthetic streams,
and asserts the checker points at exactly what broke.
"""

import pytest

from tests.harness import differential as d
from repro.hw import Cluster, ClusterSpec, FaultPlan, FaultSpec
from repro.obs import (
    EventBus,
    TraceInvariantError,
    check_trace,
    observe_cluster,
    trace_violations,
)
from repro.offload import OffloadFramework


def _observed(**kw):
    """Run an instrumented ring exchange; returns the Observability handle."""
    holder = {}

    def instrument(cl):
        holder["obs"] = observe_cluster(cl)

    d.run_offload(d.DIFF_SPEC, "ring", 2048, seed=1, instrument=instrument, **kw)
    return holder["obs"]


class TestCleanRunsPass:
    def test_basic_offload_ring_satisfies_all_invariants(self):
        obs = _observed()
        obs.check()  # must not raise
        # ... and not vacuously: the stream covers the taxonomy.
        bus = obs.bus
        for cat, name in [("req", "post"), ("req", "complete"),
                          ("xfer", "post"), ("xfer", "deliver"),
                          ("ctrl", "post"), ("ctrl", "deliver"),
                          ("reg", "mkey"), ("reg", "mkey2"),
                          ("proxy", "start"), ("proxy", "fin"),
                          ("wqe", "post"), ("proc", "start")]:
            assert bus.count(cat=cat, name=name) > 0, f"no {cat}.{name} events"
        assert bus.count(cat="req", name="post") == \
            bus.count(cat="req", name="complete")

    def test_group_offload_satisfies_invariants_including_windows(self):
        obs = _observed(use_group=True, repeats=3)
        obs.check()  # includes the no-host-CPU-in-offloaded-window check
        bus = obs.bus
        assert bus.count(cat="group", name="offloaded") > 0
        assert bus.count(cat="group", name="done") > 0
        # Cache-mode calls per rank: first is a build, the rest cached.
        builds = bus.select(cat="group", name="call", mode="build")
        cached = bus.select(cat="group", name="call", mode="cached")
        assert len(builds) == d.DIFF_SPEC.world_size
        assert len(cached) == 2 * d.DIFF_SPEC.world_size

    def test_repeated_basic_offload_hits_registration_caches(self):
        obs = _observed(repeats=4)
        obs.check()
        # The 2nd..4th posts of the same buffers are served from the
        # GVMI registration caches -- and hits only ever grow.
        assert obs.bus.count(cat="cache", name="hit") > 0
        assert obs.bus.count(cat="cache", name="miss") > 0

    def test_hostmpi_run_passes_too(self):
        holder = {}
        d.run_hostmpi(d.DIFF_SPEC, "neighbor", 4096, seed=2,
                      instrument=lambda cl: holder.setdefault(
                          "obs", observe_cluster(cl)))
        obs = holder["obs"]
        obs.check()
        assert obs.bus.count(cat="mpi", name="isend") > 0
        assert obs.bus.count(cat="mpi", name="complete") > 0


# -- deliberately broken streams ------------------------------------------
# Builders rather than inline set-up: ``test_invariants_differential``
# replays the same streams through the reference checker.

def lost_fin_run():
    """A 100% FIN-drop campaign whose requests are never waited on."""
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
    cl.install_faults(FaultPlan(
        FaultSpec(drop_prob=1.0, control_kinds=frozenset({"fin"})),
        seed=5))
    obs = observe_cluster(cl)
    fw = OffloadFramework(cl, mode="gvmi")

    def prog(rank, peer):
        ep = fw.endpoint(rank)
        buf = ep.ctx.space.alloc(512, fill=rank + 1)
        # Post but never wait: recovery is wait-driven, so the
        # dropped FINs are never retransmitted.
        if rank == 0:
            yield from ep.send_offload(buf, 512, dst=peer, tag=1)
        else:
            yield from ep.recv_offload(buf, 512, src=peer, tag=1)
        return True

    procs = [cl.sim.process(prog(0, 1)), cl.sim.process(prog(1, 0))]
    cl.sim.run(until=cl.sim.all_of(procs))
    cl.sim.run()  # drain in-flight control traffic; only FINs are lost
    return obs


def undelivered_transfer():
    bus = EventBus()
    bus.emit("xfer", "post", "node0", xid=0, kind="rdma_write",
             size=64, initiator="dpu", dst=1)
    return bus


def unaccounted_control_drop():
    bus = EventBus()
    bus.emit("ctrl", "post", "node0", cid=3, kind="rts",
             size=64, initiator="host", dst=1)
    return bus


def offloaded_window(span_lane: str):
    """host0 offloads a group for 1..9us; ``span_lane`` burns CPU at 4..6us."""
    clock = type("Clock", (), {"now": 0.0})()
    bus = EventBus(sim=clock)
    clock.now = 1e-6
    bus.emit("group", "offloaded", "host0", call=1, sig=1)
    clock.now = 9e-6
    bus.emit("group", "done", "host0", call=1)
    bus.span(span_lane, 4e-6, 6e-6)
    return bus


def plan_rebuild(fault_between: bool):
    bus = EventBus()
    if fault_between:
        bus.emit("group", "call", "host0", mode="cached", sig=7, call=1)
        bus.emit("fault", "inject", "fabric", category="proxy", detail="kill")
        bus.emit("group", "call", "host0", mode="build", sig=7, call=2)
    else:
        bus.emit("group", "call", "host0", mode="build", sig=7, call=1)
        bus.emit("group", "call", "host0", mode="cached", sig=7, call=2)
        bus.emit("group", "call", "host0", mode="build", sig=7, call=3)
    return bus


def backwards_arrow():
    """A transfer delivered 3us before it was posted."""
    clock = type("Clock", (), {"now": 5e-6})()
    bus = EventBus(sim=clock)
    bus.emit("xfer", "post", "node0", xid=0, kind="rts", size=64,
             initiator="host", dst=1)
    clock.now = 2e-6
    bus.emit("xfer", "deliver", "node1", xid=0, status="ok")
    return bus


#: ``name -> () -> bus``: each broken stream and its clean twin.
SYNTHETIC_STREAMS = {
    "undelivered_transfer": undelivered_transfer,
    "unaccounted_control_drop": unaccounted_control_drop,
    "cpu_inside_window": lambda: offloaded_window("host0"),
    "cpu_on_other_lane": lambda: offloaded_window("host1"),
    "plan_rebuild": lambda: plan_rebuild(fault_between=False),
    "plan_rebuild_after_fault": lambda: plan_rebuild(fault_between=True),
    "backwards_arrow": backwards_arrow,
}


class TestBrokenRunsFail:
    def test_lost_fin_is_reported_as_never_completed(self):
        """Acceptance scenario: a deliberately broken completion path via
        the existing fault layer makes the checker fail pointedly."""
        obs = lost_fin_run()
        with pytest.raises(TraceInvariantError) as exc:
            obs.check()
        msg = str(exc.value)
        assert "never completed" in msg
        assert "FIN/completion was lost" in msg
        # Both the send and the recv request are flagged, each by rid.
        assert msg.count("never completed") == 2
        # The drops themselves were explicit, so the *control* invariant
        # is satisfied -- only the request invariant fires.
        assert "neither delivered nor recorded as dropped" not in msg

    def test_undelivered_transfer_flagged(self):
        (violation,) = trace_violations(undelivered_transfer())
        assert "never delivered" in violation and "bytes in flight" in violation

    def test_unaccounted_control_drop_flagged(self):
        (violation,) = trace_violations(unaccounted_control_drop())
        assert "cid=3" in violation
        assert "neither delivered nor recorded as dropped" in violation

    def test_host_cpu_inside_offloaded_window_flagged(self):
        violations = trace_violations(offloaded_window("host0"))
        assert any("without host involvement" in v for v in violations)
        # The same stream with the span on another lane is clean.
        assert trace_violations(offloaded_window("host1")) == []

    def test_plan_rebuild_after_cache_hit_flagged(self):
        violations = trace_violations(plan_rebuild(fault_between=False))
        assert any("plan-cache hits must stay monotone" in v
                   for v in violations)
        # With an intervening fault the rebuild is legitimate.
        assert trace_violations(plan_rebuild(fault_between=True)) == []

    def test_backwards_arrow_flagged(self):
        """An arrow is its transfer's post/deliver pair: one violation."""
        (violation,) = trace_violations(backwards_arrow())
        assert "transfer xid=0 delivered at 2.000us before its post at " \
            "5.000us" in violation
