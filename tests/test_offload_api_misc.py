"""Remaining offload API surface: errors, lifecycle, bookkeeping."""

import pytest

from tests.helpers import pattern, proxy_engine_of, run_procs
from repro.hw import Cluster, ClusterSpec
from repro.offload import OffloadError, OffloadFramework
from repro.offload.requests import GroupOp, OffloadGroupRequest


class TestEndpointErrors:
    def test_completion_for_unknown_request(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        ep = fw.endpoint(0)
        with pytest.raises(OffloadError, match="unknown request"):
            ep._complete_by_id(987654)

    def test_unknown_endpoint_inbox_item(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        ep = fw.endpoint(0)
        ep.inbox.put(("mystery", {}))

        def prog(sim):
            yield from ep._drain_inbox()

        proc = tiny_cluster.sim.process(prog(tiny_cluster.sim))
        with pytest.raises(OffloadError, match="unknown inbox item"):
            tiny_cluster.sim.run(until=proc)

    def test_quiescence_detects_pending_requests(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)

        def prog(sim):
            ep = fw.endpoint(0)
            addr = ep.ctx.space.alloc(64)
            yield from ep.send_offload(addr, 64, dst=1, tag=1)
            # never waited, never matched

        proc = tiny_cluster.sim.process(prog(tiny_cluster.sim))
        tiny_cluster.sim.run(until=proc)
        tiny_cluster.sim.run(until=tiny_cluster.sim.now + 1e-3)
        with pytest.raises(OffloadError):
            fw.assert_quiescent()


class TestGroupRequestObject:
    def test_record_after_end_raises(self):
        g = OffloadGroupRequest(rank=0)
        g.state = "ready"
        with pytest.raises(OffloadError):
            g.record(GroupOp("send"))

    def test_signature_covers_all_fields(self):
        a = OffloadGroupRequest(rank=0)
        b = OffloadGroupRequest(rank=0)
        a.record(GroupOp("send", addr=1, size=2, peer=3, tag=4))
        b.record(GroupOp("send", addr=1, size=2, peer=3, tag=5))  # tag differs
        assert a.signature() != b.signature()

    def test_signature_rank_scoped(self):
        a = OffloadGroupRequest(rank=0)
        b = OffloadGroupRequest(rank=1)
        assert a.signature() != b.signature()

    def test_calls_counter(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        ep = fw.endpoint(0)
        g = ep.group_start()
        ep.group_end(g)

        def prog(sim):
            for _ in range(3):
                yield from ep.group_call(g)
                yield from ep.group_wait(g)
            return g.calls

        proc = tiny_cluster.sim.process(prog(tiny_cluster.sim))
        tiny_cluster.sim.run(until=proc)
        assert proc.value == 3


class TestReadyGate:
    def test_ops_wait_for_init_exchange(self, tiny_cluster):
        """The GVMI-ID exchange happens inside Init_Offload; the first
        operation cannot start before it finishes."""
        fw = OffloadFramework(tiny_cluster)
        t_ready = {}

        def watch(sim):
            yield fw.ready
            t_ready["t"] = sim.now

        def sender(sim):
            ep = fw.endpoint(0)
            addr = ep.ctx.space.alloc(64)
            req = yield from ep.send_offload(addr, 64, dst=1, tag=1)
            t_ready["first_op_after"] = sim.now
            _ = req

        def receiver(sim):
            ep = fw.endpoint(1)
            addr = ep.ctx.space.alloc(64)
            req = yield from ep.recv_offload(addr, 64, src=0, tag=1)
            yield from ep.wait(req)

        run_procs(tiny_cluster, [watch(tiny_cluster.sim),
                                 sender(tiny_cluster.sim),
                                 receiver(tiny_cluster.sim)])
        assert t_ready["first_op_after"] >= t_ready["t"] > 0


class TestWaitall:
    def test_waitall_over_mixed_basic_requests(self, small_cluster):
        fw = OffloadFramework(small_cluster)
        data = pattern(1024)

        def sender(sim):
            ep = fw.endpoint(0)
            a = ep.ctx.space.alloc_like(data)
            reqs = []
            for tag in (1, 2, 3):
                reqs.append((yield from ep.send_offload(a, 1024, dst=2, tag=tag)))
            yield from ep.waitall(reqs)
            return all(r.complete for r in reqs)

        def receiver(sim):
            ep = fw.endpoint(2)
            reqs = []
            bufs = []
            for tag in (3, 1, 2):  # scrambled post order
                b = ep.ctx.space.alloc(1024)
                bufs.append(b)
                reqs.append((yield from ep.recv_offload(b, 1024, src=0, tag=tag)))
            yield from ep.waitall(reqs)
            return all((ep.ctx.space.read(b, 1024) == data).all() for b in bufs)

        results = run_procs(small_cluster,
                            [sender(small_cluster.sim), receiver(small_cluster.sim)])
        assert results == [True, True]
        fw.assert_quiescent()


class TestProxyMapping:
    def test_ranks_spread_over_proxies(self):
        """rank % proxies_per_dpu: different local ranks -> different
        workers, so one slow pattern cannot serialise a whole node."""
        cl = Cluster(ClusterSpec(nodes=1, ppn=4, proxies_per_dpu=2))
        fw = OffloadFramework(cl)
        engines = {r: proxy_engine_of(fw, r) for r in range(4)}
        assert engines[0] is engines[2]
        assert engines[1] is engines[3]
        assert engines[0] is not engines[1]


# ---------------------------------------------------------------------------
# recovery is a layer the framework installs -- or does not
# ---------------------------------------------------------------------------

#: Every table the recovery layer owns (repro.offload.recovery); none may
#: exist on an endpoint or engine of a framework without a RetryPolicy.
RECOVERY_TABLES = ("_fb_rts", "_fb_served", "_gdesc_seen", "_gdesc_sent",
                   "_live_reqs", "_fin_sent", "_group_launches",
                   "_counters_sent")


class TestUnarmedFrameworkOwnsNoRecoveryState:
    def test_bare_framework_builds_and_starts_nothing_of_recovery(
            self, small_cluster, monkeypatch):
        from repro.offload import recovery
        from repro.sim import Simulator

        def never(self, *args, **kwargs):
            raise AssertionError(
                f"{type(self).__name__} built on a framework with no policy")

        monkeypatch.setattr(recovery.EndpointRecovery, "__init__", never)
        monkeypatch.setattr(recovery.ProxyRecovery, "__init__", never)
        started = []
        spawn = Simulator.process
        monkeypatch.setattr(
            Simulator, "process",
            lambda sim, gen: started.append(gen) or spawn(sim, gen))

        cl = small_cluster
        fw = OffloadFramework(cl)
        assert started == []  # a proxy's ARM core is no process: nothing
        assert fw.resilient is False and fw.retry is None
        n, size = cl.world_size, 512
        data = {r: pattern(size, seed=r) for r in range(n)}

        def prog(rank):
            ep, peer = fw.endpoint(rank), rank ^ 2  # the rank across the wire
            sbuf = ep.ctx.space.alloc_like(data[rank])
            rbuf = ep.ctx.space.alloc(size)
            sreq = yield from ep.send_offload(sbuf, size, dst=peer, tag=1)
            rreq = yield from ep.recv_offload(rbuf, size, src=peer, tag=1)
            yield from ep.waitall([sreq, rreq])
            assert (ep.ctx.space.read(rbuf, size) == data[peer]).all()
            g = ep.group_start()
            ep.group_send(g, sbuf, size, dst=peer, tag=2)
            ep.group_recv(g, rbuf, size, src=peer, tag=2)
            ep.group_barrier(g)
            ep.group_end(g)
            for _ in range(2):
                yield from ep.group_call(g)
                yield from ep.group_wait(g)

        run_procs(cl, [prog(r) for r in range(n)])
        fw.assert_quiescent()
        holders = list(fw._endpoints.values()) + list(fw._proxy_engines.values())
        assert len(holders) == n + len(cl.proxies)
        for obj in holders:
            assert obj.recovery is None
            assert not [t for t in RECOVERY_TABLES if hasattr(obj, t)]

    def test_a_policy_installs_it_everywhere(self, tiny_cluster):
        from repro.hw import RetryPolicy
        from repro.offload.recovery import EndpointRecovery, ProxyRecovery

        fw = OffloadFramework(tiny_cluster, retry=RetryPolicy())
        assert fw.resilient
        assert isinstance(fw.endpoint(0).recovery, EndpointRecovery)
        for engine in fw._proxy_engines.values():
            assert isinstance(engine.recovery, ProxyRecovery)
            assert {"retry_xfer", "counter_probe"} <= set(engine.extra_handlers)


class TestConstructionTimeRejections:
    """Unsupported combinations raise at Init_Offload, not mid-run."""

    @pytest.mark.parametrize("gid", [99, 2, -1])
    def test_kill_plan_for_a_proxy_that_does_not_exist(self, tiny_cluster, gid):
        from repro.hw import FaultPlan, ProxyKillPlan

        assert len(tiny_cluster.proxies) == 2
        tiny_cluster.install_faults(
            FaultPlan(kills=[ProxyKillPlan(proxy_gid=gid, at=1e-6)]))
        probes = len(tiny_cluster.sim.watchdog_probes)
        with pytest.raises(OffloadError, match=rf"proxy_gid={gid}\b.*2 proxies"):
            OffloadFramework(tiny_cluster)
        # Rejected before any engine was built (each registers a probe).
        assert len(tiny_cluster.sim.watchdog_probes) == probes

    @pytest.mark.parametrize("kill", [
        dict(proxy_gid=0, at=-1e-6),
        dict(proxy_gid=0, at=1e-6, restart_after=-5e-6),
    ])
    def test_kill_plan_with_a_negative_time(self, tiny_cluster, kill):
        from repro.hw import FaultPlan, ProxyKillPlan

        tiny_cluster.install_faults(FaultPlan(kills=[ProxyKillPlan(**kill)]))
        with pytest.raises(OffloadError, match="must be >= 0"):
            OffloadFramework(tiny_cluster)

    def test_bounded_dpu_plan_cache_without_a_retry_policy(self):
        from repro.hw import MachineParams, RetryPolicy

        params = MachineParams().with_overrides(plan_cache_capacity=1)
        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1,
                                 params=params))
        with pytest.raises(OffloadError,
                           match="plan_cache_capacity=1 needs a RetryPolicy"):
            OffloadFramework(cl)
        # The supported form (tests/test_faults_pins.py drives it end to end).
        assert OffloadFramework(cl, retry=RetryPolicy()).resilient


class TestLoudFailuresWithoutAPolicy:
    """Detection stays in the protocol files: with no recovery layer the
    faults it would have absorbed are ``OffloadError``s, never silence."""

    def test_staging_out_of_memory(self):
        from repro.hw import MachineParams

        params = MachineParams().with_overrides(dpu_mem_budget=16 * 1024)
        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1,
                                 params=params))
        fw = OffloadFramework(cl, mode="staged")
        size = 64 * 1024

        def sender(sim):
            ep = fw.endpoint(0)
            req = yield from ep.send_offload(ep.ctx.space.alloc(size), size,
                                             dst=1, tag=0)
            yield from ep.wait(req)

        def receiver(sim):
            ep = fw.endpoint(1)
            req = yield from ep.recv_offload(ep.ctx.space.alloc(size), size,
                                             src=0, tag=0)
            yield from ep.wait(req)

        with pytest.raises(OffloadError, match="out of staging memory"):
            run_procs(cl, [sender(cl.sim), receiver(cl.sim)])
        assert cl.metrics.get("proxy.oom_degrades") == 1

    def test_group_call_for_a_plan_the_proxy_does_not_hold(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        engine = proxy_engine_of(fw, 0)
        engine.ctx.inbox.put(("group_call", {
            "plan_id": 424242, "host_rank": 0, "req_id": 1, "call_no": 1}))
        with pytest.raises(OffloadError, match="unknown plan 424242"):
            tiny_cluster.sim.run()

    def test_cached_group_plan_over_a_freed_buffer(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        size = 4096

        def prog(rank, peer):
            ep = fw.endpoint(rank)
            sbuf = ep.ctx.space.alloc(size)
            rbuf = ep.ctx.space.alloc(size)
            g = ep.group_start()
            ep.group_send(g, sbuf, size, dst=peer, tag=7)
            ep.group_recv(g, rbuf, size, src=peer, tag=7)
            ep.group_end(g)
            yield from ep.group_call(g)
            yield from ep.group_wait(g)
            yield from ep.group_call(g)  # by plan id ...
            if rank == 0:
                ep.ctx.free(sbuf)        # ... over memory that is gone
            yield from ep.group_wait(g)

        with pytest.raises(OffloadError,
                           match="references a revoked registration"):
            run_procs(tiny_cluster, [prog(0, 1), prog(1, 0)])
