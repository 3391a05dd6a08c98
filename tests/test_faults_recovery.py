"""Chaos-fabric integration tests: the offload stack under injected faults.

Every scenario here is fully deterministic -- the FaultPlan draws from a
seeded stream -- so assertions on fault/recovery metrics are stable.
"""


from tests.helpers import pattern, run_procs
from repro.hw import (
    OFFLOAD_CONTROL_KINDS,
    Cluster,
    ClusterSpec,
    FaultPlan,
    FaultSpec,
    ProxyKillPlan,
)
from repro.offload import OffloadFramework


def _chaos_cluster(spec=None, kills=(), seed=17, nodes=2, ppn=1, proxies=1):
    cl = Cluster(ClusterSpec(nodes=nodes, ppn=ppn, proxies_per_dpu=proxies))
    plan = FaultPlan(spec if spec is not None else FaultSpec(),
                     kills=kills, seed=seed)
    cl.install_faults(plan)
    return cl, plan


def _pingpong(cluster, fw, iters=8, size=2048):
    """OSU-latency-style ping-pong; the echo verifies bytes both ways."""
    def player(rank, peer):
        def prog(sim):
            ep = fw.endpoint(rank)
            for i in range(iters):
                data = pattern(size, seed=100 + i)
                if rank == 0:
                    sa = ep.ctx.space.alloc_like(data)
                    sreq = yield from ep.send_offload(sa, size, dst=peer,
                                                      tag=2 * i)
                    yield from ep.wait(sreq)
                    ra = ep.ctx.space.alloc(size)
                    rreq = yield from ep.recv_offload(ra, size, src=peer,
                                                      tag=2 * i + 1)
                    yield from ep.wait(rreq)
                    assert (ep.ctx.space.read(ra, size) == data).all()
                else:
                    ra = ep.ctx.space.alloc(size)
                    rreq = yield from ep.recv_offload(ra, size, src=peer,
                                                      tag=2 * i)
                    yield from ep.wait(rreq)
                    assert (ep.ctx.space.read(ra, size) == data).all()
                    sreq = yield from ep.send_offload(ra, size, dst=peer,
                                                      tag=2 * i + 1)
                    yield from ep.wait(sreq)
            return sim.now
        return prog

    return run_procs(cluster, [player(0, 1)(cluster.sim),
                               player(1, 0)(cluster.sim)])


class TestControlDrops:
    def test_pingpong_survives_five_percent_drops(self):
        cl, plan = _chaos_cluster(FaultSpec(
            drop_prob=0.05, control_kinds=OFFLOAD_CONTROL_KINDS))
        fw = OffloadFramework(cl)
        _pingpong(cl, fw, iters=8)
        fw.assert_quiescent()
        m = cl.metrics
        assert plan.stats["drops"] > 0  # the campaign actually bit
        assert m.get("offload.retransmits") > 0  # ...and recovery ran
        assert m.get("proxy.basic_pairs") == 16

    def test_drop_and_dup_storm(self):
        """Drops plus duplicates: dedupe must hold."""
        cl, plan = _chaos_cluster(FaultSpec(
            drop_prob=0.05, dup_prob=0.15,
            control_kinds=OFFLOAD_CONTROL_KINDS))
        fw = OffloadFramework(cl)
        _pingpong(cl, fw, iters=8)
        fw.assert_quiescent()
        m = cl.metrics
        assert plan.stats["dups"] > 0
        # Duplicated RTS/RTR were recognised and dropped, not re-matched.
        assert m.get("proxy.dup_ctrl_dropped") > 0
        assert m.get("proxy.basic_pairs") == 16

    def test_delay_jitter_only_changes_timing(self):
        cl, plan = _chaos_cluster(FaultSpec(
            delay_prob=0.5, delay_max=30e-6,
            control_kinds=OFFLOAD_CONTROL_KINDS))
        fw = OffloadFramework(cl)
        _pingpong(cl, fw, iters=4)
        fw.assert_quiescent()
        assert plan.stats["delays"] > 0
        assert plan.stats["drops"] == 0


class TestErrorCqes:
    def test_gvmi_transfers_reposted(self):
        cl, plan = _chaos_cluster(FaultSpec(
            error_cqe_prob=0.5, error_initiators=("dpu",)))
        fw = OffloadFramework(cl)
        _pingpong(cl, fw, iters=4, size=16 * 1024)
        fw.assert_quiescent()
        m = cl.metrics
        assert plan.stats["error_cqes"] > 0
        assert m.get("proxy.rdma_retries") > 0
        assert m.get("proxy.basic_pairs") == 8

    def test_staged_transfers_reposted(self):
        cl, plan = _chaos_cluster(FaultSpec(
            error_cqe_prob=0.4, error_initiators=("dpu",)))
        fw = OffloadFramework(cl, mode="staged")
        _pingpong(cl, fw, iters=4, size=16 * 1024)
        fw.assert_quiescent()
        m = cl.metrics
        assert plan.stats["error_cqes"] > 0
        assert m.get("proxy.rdma_retries") > 0
        assert m.get("staging.transfers") == 8

    def test_group_segment_reposted(self):
        cl, plan = _chaos_cluster(FaultSpec(
            error_cqe_prob=0.4, error_initiators=("dpu",)))
        fw = OffloadFramework(cl)
        _group_exchange(cl, fw, size=32 * 1024)
        fw.assert_quiescent()
        m = cl.metrics
        assert plan.stats["error_cqes"] > 0
        assert m.get("proxy.rdma_retries") > 0


def _group_exchange(cluster, fw, size=64 * 1024, iters=1):
    """Symmetric pairwise group exchange between ranks 0 and 1."""
    data = {r: pattern(size, seed=50 + r) for r in (0, 1)}

    def make(rank, peer):
        def prog(sim):
            ep = fw.endpoint(rank)
            sbuf = ep.ctx.space.alloc_like(data[rank])
            rbuf = ep.ctx.space.alloc(size)
            greq = ep.group_start()
            ep.group_send(greq, sbuf, size, dst=peer, tag=5)
            ep.group_recv(greq, rbuf, size, src=peer, tag=5)
            ep.group_end(greq)
            for _ in range(iters):
                yield from ep.group_call(greq)
                yield from ep.group_wait(greq)
            assert (ep.ctx.space.read(rbuf, size) == data[peer]).all()
            return sim.now
        return prog

    return run_procs(cluster, [make(0, 1)(cluster.sim),
                               make(1, 0)(cluster.sim)])


class TestProxyKillRestart:
    def test_group_replayed_after_restart(self):
        cl0 = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
        gid = cl0.proxy_for_rank(0).global_id
        cl, plan = _chaos_cluster(kills=[
            ProxyKillPlan(proxy_gid=gid, at=50e-6, restart_after=60e-6)])
        fw = OffloadFramework(cl)
        _group_exchange(cl, fw, size=256 * 1024)
        m = cl.metrics
        assert plan.stats["kills"] == 1 and plan.stats["restarts"] == 1
        assert m.get("proxy.kills") == 1 and m.get("proxy.restarts") == 1
        # The host retransmitted its call and the revived proxy replayed
        # the launch with the original sequence numbers.
        assert m.get("proxy.group_replays") >= 1
        assert m.get("proxy.group_completions") >= 2

    def test_basic_pair_survives_restart(self):
        cl0 = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
        gid = cl0.proxy_for_rank(0).global_id
        cl, plan = _chaos_cluster(kills=[
            ProxyKillPlan(proxy_gid=gid, at=20e-6, restart_after=40e-6)])
        fw = OffloadFramework(cl)
        _pingpong(cl, fw, iters=3, size=64 * 1024)
        fw.assert_quiescent()
        m = cl.metrics
        assert m.get("proxy.kills") == 1 and m.get("proxy.restarts") == 1
        assert m.get("offload.retransmits") >= 1
        assert m.get("proxy.basic_pairs") >= 6


class TestGracefulDegradation:
    def test_permanent_death_falls_back_to_host_path(self):
        cl0 = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
        gid = cl0.proxy_for_rank(0).global_id
        cl, plan = _chaos_cluster(kills=[ProxyKillPlan(proxy_gid=gid, at=2e-6)])
        fw = OffloadFramework(cl)
        data = pattern(8192, seed=77)
        out = {}

        def sender(sim):
            ep = fw.endpoint(0)
            sa = ep.ctx.space.alloc_like(data)
            req = yield from ep.send_offload(sa, 8192, dst=1, tag=9)
            yield from ep.wait(req)
            out["send_done"] = sim.now

        def receiver(sim):
            ep = fw.endpoint(1)
            ra = ep.ctx.space.alloc(8192)
            req = yield from ep.recv_offload(ra, 8192, src=0, tag=9)
            yield from ep.wait(req)
            assert (ep.ctx.space.read(ra, 8192) == data).all()
            out["recv_done"] = sim.now

        run_procs(cl, [sender(cl.sim), receiver(cl.sim)])
        m = cl.metrics
        assert m.get("offload.fallbacks") >= 1
        assert m.get("offload.fb_pulls") == 1
        assert m.get("offload.fb_fins") >= 1
        assert fw.fallback_log  # the degradation was logged...
        assert {entry[2] for entry in fw.fallback_log} <= {"send", "recv"}
        # ...and happened only after the liveness deadline.
        assert min(e[0] for e in fw.fallback_log) >= fw.retry.fallback_after
        # Host-driven pull: a host-initiated RDMA READ moved the bytes.
        assert m.get("rdma.read.host") >= 1

    def test_fallback_interops_with_control_drops(self):
        """Dead proxy *and* lossy fabric: the offer/pull/fin loop retries."""
        cl0 = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
        gid = cl0.proxy_for_rank(0).global_id
        cl, plan = _chaos_cluster(
            FaultSpec(drop_prob=0.2, control_kinds=OFFLOAD_CONTROL_KINDS),
            kills=[ProxyKillPlan(proxy_gid=gid, at=2e-6)])
        fw = OffloadFramework(cl)
        data = pattern(4096, seed=12)
        done = {}

        def sender(sim):
            ep = fw.endpoint(0)
            sa = ep.ctx.space.alloc_like(data)
            req = yield from ep.send_offload(sa, 4096, dst=1, tag=4)
            yield from ep.wait(req)
            done["s"] = True

        def receiver(sim):
            ep = fw.endpoint(1)
            ra = ep.ctx.space.alloc(4096)
            req = yield from ep.recv_offload(ra, 4096, src=0, tag=4)
            yield from ep.wait(req)
            assert (ep.ctx.space.read(ra, 4096) == data).all()
            done["r"] = True

        run_procs(cl, [sender(cl.sim), receiver(cl.sim)])
        assert done == {"s": True, "r": True}
        assert cl.metrics.get("offload.fb_pulls") >= 1


class TestCleanRunIsolation:
    def test_no_plan_means_no_fault_metrics(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        _pingpong(tiny_cluster, fw, iters=2)
        m = tiny_cluster.metrics
        for key in ("fabric.faults.drop", "fabric.faults.dup",
                    "offload.retransmits", "proxy.rdma_retries",
                    "offload.fallbacks", "proxy.fin_resends"):
            assert m.get(key) == 0
        assert fw.fallback_log == []
