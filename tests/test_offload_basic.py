"""Integration tests for Basic primitives (Send_Offload / Recv_Offload)."""

import pytest

from tests.helpers import pattern, proxy_engine_of, run_procs
from repro.hw import Cluster, ClusterSpec
from repro.offload import OffloadError, OffloadFramework


def _exchange(cluster, fw, size, src=0, dst=None, tag=3, data=None):
    if dst is None:
        dst = cluster.world_size - 1
    if data is None:
        data = pattern(size, seed=size)
    out = {}

    def sender(sim):
        ep = fw.endpoint(src)
        addr = ep.ctx.space.alloc_like(data)
        req = yield from ep.send_offload(addr, size, dst=dst, tag=tag)
        yield from ep.wait(req)
        out["send_done"] = sim.now
        return req

    def receiver(sim):
        ep = fw.endpoint(dst)
        addr = ep.ctx.space.alloc(size)
        req = yield from ep.recv_offload(addr, size, src=src, tag=tag)
        yield from ep.wait(req)
        out["recv_done"] = sim.now
        assert (ep.ctx.space.read(addr, size) == data).all()
        return req

    run_procs(cluster, [sender(cluster.sim), receiver(cluster.sim)])
    return out


class TestGvmiMode:
    def test_moves_real_bytes(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        _exchange(tiny_cluster, fw, 64 * 1024, src=0, dst=1)
        fw.assert_quiescent()
        m = tiny_cluster.metrics
        assert m.get("proxy.basic_pairs") == 1
        assert m.get("gvmi.cross_registrations") == 1
        assert m.get("rdma.write.dpu") == 1  # proxy posted the data
        assert m.get("staging.transfers") == 0  # no bounce

    def test_four_control_messages_per_transfer(self, tiny_cluster):
        """Paper Section VIII-C: RTS + RTR + two FINs."""
        fw = OffloadFramework(tiny_cluster)
        _exchange(tiny_cluster, fw, 4096, src=0, dst=1)
        m = tiny_cluster.metrics
        assert m.get("ctrl.host_to_dpu") == 2  # RTS + RTR
        assert m.get("proxy.fin_writes") == 2

    def test_rts_before_rtr_and_reverse(self, tiny_cluster):
        """Matching works regardless of which control message arrives first."""
        fw = OffloadFramework(tiny_cluster)
        data = pattern(1024)
        order = []

        def sender(sim):
            ep = fw.endpoint(0)
            addr = ep.ctx.space.alloc_like(data)
            req = yield from ep.send_offload(addr, 1024, dst=1, tag=1)
            yield from ep.wait(req)
            order.append("send")

        def late_receiver(sim):
            yield sim.timeout(50e-6)  # RTS queues on the proxy first
            ep = fw.endpoint(1)
            addr = ep.ctx.space.alloc(1024)
            req = yield from ep.recv_offload(addr, 1024, src=0, tag=1)
            yield from ep.wait(req)
            assert (ep.ctx.space.read(addr, 1024) == data).all()
            order.append("recv")

        run_procs(tiny_cluster, [sender(tiny_cluster.sim), late_receiver(tiny_cluster.sim)])
        assert set(order) == {"send", "recv"}
        fw.assert_quiescent()

    def test_tag_matching_disambiguates(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        d1, d2 = pattern(256, 1), pattern(256, 2)

        def sender(sim):
            ep = fw.endpoint(0)
            a1 = ep.ctx.space.alloc_like(d1)
            a2 = ep.ctx.space.alloc_like(d2)
            r1 = yield from ep.send_offload(a1, 256, dst=1, tag=10)
            r2 = yield from ep.send_offload(a2, 256, dst=1, tag=20)
            yield from ep.waitall([r1, r2])

        def receiver(sim):
            ep = fw.endpoint(1)
            b2 = ep.ctx.space.alloc(256)
            b1 = ep.ctx.space.alloc(256)
            # post in reverse tag order
            r2 = yield from ep.recv_offload(b2, 256, src=0, tag=20)
            r1 = yield from ep.recv_offload(b1, 256, src=0, tag=10)
            yield from ep.waitall([r1, r2])
            assert (ep.ctx.space.read(b1, 256) == d1).all()
            assert (ep.ctx.space.read(b2, 256) == d2).all()

        run_procs(tiny_cluster, [sender(tiny_cluster.sim), receiver(tiny_cluster.sim)])
        fw.assert_quiescent()

    def test_overflow_rejected_on_proxy(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)

        def sender(sim):
            ep = fw.endpoint(0)
            addr = ep.ctx.space.alloc(128)
            req = yield from ep.send_offload(addr, 128, dst=1, tag=1)
            yield from ep.wait(req)

        def receiver(sim):
            ep = fw.endpoint(1)
            addr = ep.ctx.space.alloc(64)
            req = yield from ep.recv_offload(addr, 64, src=0, tag=1)
            yield from ep.wait(req)

        with pytest.raises(OffloadError, match="overflows"):
            run_procs(tiny_cluster, [sender(tiny_cluster.sim), receiver(tiny_cluster.sim)])

    def test_perfect_overlap_no_host_cpu_during_transfer(self, tiny_cluster):
        """The completion-counter design: a host that computes through the
        whole transfer pays (almost) nothing at Wait."""
        fw = OffloadFramework(tiny_cluster)
        size = 256 * 1024
        waits = {}

        def sender(sim):
            ep = fw.endpoint(0)
            addr = ep.ctx.space.alloc(size, fill=1)
            req = yield from ep.send_offload(addr, size, dst=1, tag=4)
            yield from ep.wait(req)

        def receiver(sim):
            ep = fw.endpoint(1)
            addr = ep.ctx.space.alloc(size)
            req = yield from ep.recv_offload(addr, size, src=0, tag=4)
            yield ep.ctx.consume(500e-6)  # long compute, zero MPI calls
            t0 = sim.now
            yield from ep.wait(req)
            waits["recv_wait"] = sim.now - t0

        run_procs(tiny_cluster, [sender(tiny_cluster.sim), receiver(tiny_cluster.sim)])
        assert waits["recv_wait"] == 0.0  # counter was already set

    def test_endpoint_on_proxy_rejected(self, tiny_cluster):
        from repro.offload.api import OffloadEndpoint

        fw = OffloadFramework(tiny_cluster)
        with pytest.raises(OffloadError):
            OffloadEndpoint(fw, tiny_cluster.proxy_ctx(0, 0))


class TestStagedMode:
    def test_moves_real_bytes_through_dpu_dram(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster, mode="staged")
        _exchange(tiny_cluster, fw, 32 * 1024, src=0, dst=1)
        m = tiny_cluster.metrics
        assert m.get("staging.transfers") == 1
        assert m.get("rdma.read.dpu") == 1   # host -> DPU DRAM
        assert m.get("rdma.write.dpu") == 1  # DPU DRAM -> host
        assert m.get("gvmi.cross_registrations") == 0  # no GVMI in staging

    def test_staged_slower_than_gvmi(self):
        times = {}
        for mode in ("gvmi", "staged"):
            cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
            fw = OffloadFramework(cl, mode=mode)
            out = _exchange(cl, fw, 128 * 1024, src=0, dst=1)
            times[mode] = out["recv_done"]
        assert times["staged"] > times["gvmi"]

    def test_staging_buffers_reused(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster, mode="staged")
        for i in range(3):
            _exchange(tiny_cluster, fw, 8192, src=0, dst=1, tag=10 + i)
        engine = proxy_engine_of(fw, 0)
        assert engine.staging.created == 1
        assert engine.staging.reused == 2

    def test_unknown_mode_rejected(self, tiny_cluster):
        with pytest.raises(OffloadError):
            OffloadFramework(tiny_cluster, mode="warp")


class TestFinalize:
    def test_finalize_stops_proxies(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        _exchange(tiny_cluster, fw, 1024, src=0, dst=1)
        fw.finalize()
        tiny_cluster.sim.run()
        for engine in fw._proxy_engines.values():
            assert engine.core.ended

    def test_finalize_idempotent(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        fw.finalize()
        fw.finalize()
