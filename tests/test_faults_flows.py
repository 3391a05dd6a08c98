"""Flow-path fault fates: drops, error CQEs, aborts on the flow engine.

An armed FaultPlan composes with a fat-tree's flows: fault fates ride
the flow path itself.  Flow drops retransmit
the lost remainder through the RetryPolicy's exponential backoff; error
CQEs surface after a full drain; proxy kills abort in-flight flows into
flush errors that the existing recovery machinery (incarnation-guarded
watchers, host retransmit, group replay) absorbs.  Drop fates draw from
a dedicated ``flow-faults`` stream, so arming them never perturbs a
single-switch trace.
"""

import pytest

from tests.helpers import pattern, run_procs
from repro.hw import (
    Cluster,
    ClusterSpec,
    FaultPlan,
    FaultSpec,
    ProxyKillPlan,
    RetryPolicy,
)
from repro.obs.events import EventBus
from repro.obs.invariants import check_trace
from repro.verbs.mr import reg_mr
from repro.verbs.rdma import rdma_write

MB = 1 << 20


def _fluid_cluster(spec=None, seed=11, threshold=4096, kills=(), retry=None):
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1, seed=seed,
                             nodes_per_switch=2, fluid_threshold=threshold))
    bus = EventBus.attach(cl)
    plan = FaultPlan(spec if spec is not None else FaultSpec(),
                     kills=kills, seed=seed, retry=retry)
    cl.install_faults(plan)
    return cl, plan, bus


def _stream(cl, n=8, size=256 * 1024, collect=None):
    """One rank streams ``n`` bulk writes to its peer; returns statuses."""
    a, b = cl.ranks[0], cl.ranks[1]
    statuses = [] if collect is None else collect

    def prog(sim):
        sa = a.space.alloc(MB)
        da = b.space.alloc(MB)
        ha = yield from reg_mr(a, sa, MB)
        hb = yield from reg_mr(b, da, MB)
        for i in range(n):
            t = yield from rdma_write(a, lkey=ha.lkey, src_addr=sa,
                                      rkey=hb.rkey, dst_addr=da, size=size,
                                      copy=False)
            dv = yield t.completed
            statuses.append(dv.status)
        return None

    run_procs(cl, [prog(cl.sim)])
    return statuses


class TestFlowDrops:
    def test_drops_retransmit_and_complete(self):
        cl, plan, bus = _fluid_cluster(FaultSpec(flow_drop_prob=0.5))
        statuses = _stream(cl, n=8)
        assert statuses == ["ok"] * 8  # every transfer still completes
        m = cl.metrics
        assert m.get("fabric.flow_drops") > 0
        assert m.get("fabric.flow_drops") == m.get("fabric.flow_retries")
        assert plan.stats["flow_drops"] == m.get("fabric.flow_drops")
        assert plan.stats["flow_retries"] == m.get("fabric.flow_retries")
        check_trace(bus)

    def test_drop_emits_fault_and_retry_events(self):
        cl, plan, bus = _fluid_cluster(FaultSpec(flow_drop_prob=0.5))
        _stream(cl, n=8)
        drops = bus.select(cat="flow", name="fault", action="drop")
        retries = bus.select(cat="flow", name="retry")
        assert drops and len(drops) == len(retries)
        # Retry-chain flows share the transfer's xid with fresh fids.
        xid = drops[0].arg("xid")
        chain = [ev for ev in bus.select(cat="flow", name="begin")
                 if ev.arg("xid") == xid]
        assert len(chain) >= 2
        assert len({ev.arg("fid") for ev in chain}) == len(chain)
        assert [ev.arg("attempt") for ev in chain] == \
            list(range(1, len(chain) + 1))

    def test_certain_drop_is_bounded_by_retry_limit(self):
        """flow_drop_prob=1.0 must not loop forever: fates stop being
        consulted past the retry limit, so the transfer completes after
        exactly ``rdma_retry_limit`` drops."""
        retry = RetryPolicy(rdma_retry_limit=3)
        cl, plan, bus = _fluid_cluster(FaultSpec(flow_drop_prob=1.0),
                                       retry=retry)
        statuses = _stream(cl, n=2)
        assert statuses == ["ok", "ok"]
        assert cl.metrics.get("fabric.flow_drops") == 2 * 3
        check_trace(bus)

    def test_backoff_grows_exponentially(self):
        retry = RetryPolicy(rdma_retry_limit=4)
        cl, plan, bus = _fluid_cluster(FaultSpec(flow_drop_prob=1.0),
                                       retry=retry)
        _stream(cl, n=1)
        backoffs = [float(detail.split("backoff=")[1].rstrip("s"))
                    for _, cat, detail in plan.events if cat == "flow_retry"]
        assert len(backoffs) == 4
        expect = [min(retry.rdma_backoff * retry.backoff ** k,
                      retry.max_timeout) for k in range(4)]
        assert backoffs == pytest.approx(expect, rel=1e-3)

    def test_sub_threshold_transfers_never_draw_fates(self):
        cl, plan, bus = _fluid_cluster(FaultSpec(flow_drop_prob=1.0),
                                       threshold=1 * MB)
        statuses = _stream(cl, n=4, size=64 * 1024)  # below the threshold
        assert statuses == ["ok"] * 4
        assert plan.stats["flow_drops"] == 0
        assert bus.count(cat="flow") == 0


class TestErrorCqesOnFlows:
    def test_error_cqe_surfaces_after_full_drain(self):
        cl, plan, bus = _fluid_cluster(FaultSpec(error_cqe_prob=0.5))
        statuses = _stream(cl, n=8)
        assert "error" in statuses and "ok" in statuses
        # Errored flows still occupy the ports for their full window --
        # same as the event path -- so each has a begin/end pair.
        assert bus.count(cat="flow", name="begin") == 8
        assert bus.count(cat="flow", name="end") == 8
        check_trace(bus)

    def test_delay_fate_stretches_the_tail(self):
        base_cl, _, _ = _fluid_cluster(FaultSpec())
        base = _stream(base_cl, n=4)
        slow_cl, plan, _ = _fluid_cluster(
            FaultSpec(delay_prob=1.0, delay_max=50e-6))
        slow = _stream(slow_cl, n=4)
        assert base == slow == ["ok"] * 4
        assert plan.stats["delays"] == 4
        assert slow_cl.sim.now > base_cl.sim.now


class TestDeterminism:
    def _trace(self, seed, flow_drop, fluid):
        spec = ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1, seed=seed,
                           nodes_per_switch=2 if fluid else 0,
                           fluid_threshold=4096)
        cl = Cluster(spec)
        bus = EventBus.attach(cl)
        cl.install_faults(FaultPlan(
            FaultSpec(flow_drop_prob=flow_drop, drop_prob=0.1,
                      error_cqe_prob=0.1),
            seed=seed))
        _stream(cl, n=6)
        return tuple((e.time, e.cat, e.name, e.entity, e.args)
                     for e in bus.events)

    def test_fluid_trace_reproducible(self):
        assert self._trace(5, 0.3, True) == self._trace(5, 0.3, True)

    def test_flow_stream_independent_of_event_path(self):
        """Arming flow-drop fates must leave single-switch traces
        bit-identical: flow fates draw from their own RNG stream."""
        assert self._trace(5, 0.0, False) == self._trace(5, 0.9, False)


class TestProxyKillAbortsFlows:
    def _bulk_exchange(self, cl, fw, iters=4, size=512 * 1024):
        data = pattern(size, seed=5)

        def player(rank, peer):
            def prog(sim):
                ep = fw.endpoint(rank)
                for i in range(iters):
                    if rank == 0:
                        sa = ep.ctx.space.alloc_like(data)
                        req = yield from ep.send_offload(sa, size, dst=peer,
                                                         tag=i)
                        yield from ep.wait(req)
                    else:
                        ra = ep.ctx.space.alloc(size)
                        req = yield from ep.recv_offload(ra, size, src=peer,
                                                         tag=i)
                        yield from ep.wait(req)
                        assert (ep.ctx.space.read(ra, size) == data).all()
                return sim.now
            return prog

        return run_procs(cl, [player(0, 1)(cl.sim), player(1, 0)(cl.sim)])

    def test_kill_mid_flow_recovers_through_restart(self):
        from repro.offload import OffloadFramework

        probe = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
        gid = probe.proxy_for_rank(0).global_id
        cl, plan, bus = _fluid_cluster(
            kills=[ProxyKillPlan(proxy_gid=gid, at=80e-6,
                                 restart_after=60e-6)],
            threshold=4096)
        fw = OffloadFramework(cl)
        self._bulk_exchange(cl, fw)
        fw.assert_quiescent()
        m = cl.metrics
        assert m.get("proxy.kills") == 1 and m.get("proxy.restarts") == 1
        # The kill caught flows in flight and aborted them...
        assert m.get("fabric.flow_aborts") >= 1
        assert m.get("proxy.flows_aborted") == m.get("fabric.flow_aborts")
        aborts = bus.select(cat="flow", name="fault", action="abort")
        assert len(aborts) == m.get("fabric.flow_aborts")
        # ...into flush-error deliveries the recovery machinery absorbed.
        assert m.get("offload.retransmits") >= 1
        check_trace(bus)

    def test_abort_only_touches_the_dead_proxys_flows(self):
        cl, plan, bus = _fluid_cluster()
        eng = cl.fabric.flow_engine
        victim, bystander = cl.proxies[0], cl.proxies[1]
        b = cl.ranks[1]
        results = {}

        def prog(sim):
            da = b.space.alloc(MB)
            hb = yield from reg_mr(b, da, MB)
            sv = victim.space.alloc(MB)
            hv = yield from reg_mr(victim, sv, MB)
            sy = bystander.space.alloc(MB)
            hy = yield from reg_mr(bystander, sy, MB)
            t1 = yield from rdma_write(victim, lkey=hv.lkey, src_addr=sv,
                                       rkey=hb.rkey, dst_addr=da,
                                       size=256 * 1024, copy=False)
            t2 = yield from rdma_write(bystander, lkey=hy.lkey, src_addr=sy,
                                       rkey=hb.rkey, dst_addr=da,
                                       size=256 * 1024, copy=False)
            assert eng.active_count == 2
            assert cl.fabric.abort_flows(victim) == 1
            results["d1"] = yield t1.completed
            results["d2"] = yield t2.completed

        run_procs(cl, [prog(cl.sim)])
        assert results["d1"].status == "error"
        assert results["d2"].status == "ok"
        # Aborting the victim is idempotent: nothing is left to abort.
        assert cl.fabric.abort_flows(victim) == 0
