"""Unit tests for the fabric cost model and metrics."""

import pytest

from tests.helpers import run_proc
from repro.hw import Cluster, ClusterSpec, FaultPlan, FaultSpec
from repro.hw.nic import Port
from repro.obs import EventBus
from repro.sim import Event, SimulationError, Store


def _measure_transfer(cluster, **kw):
    """Run one transfer; returns (delivered_at, completed_at)."""
    out = {}

    def prog(sim):
        t0 = sim.now
        t = cluster.fabric.transfer(**kw)
        dv = yield t.completed
        out["delivered"] = dv.time - t0
        out["completed"] = sim.now - t0

    run_proc(cluster, prog(cluster.sim))
    return out["delivered"], out["completed"]


class TestTransferTiming:
    def test_inter_node_latency_formula(self, tiny_cluster):
        p = tiny_cluster.params
        size = 4096
        delivered, completed = _measure_transfer(
            tiny_cluster, src_node=0, dst_node=1, size=size, initiator="host"
        )
        ser = max(p.host_injection_gap, size / p.wire_bandwidth)
        expect = 2 * ser + p.wire_latency + p.switch_hop_latency
        assert delivered == pytest.approx(expect, rel=1e-9)
        assert completed == pytest.approx(expect + p.ack_latency, rel=1e-9)

    def test_same_node_skips_switch_hop(self, tiny_cluster):
        p = tiny_cluster.params
        delivered, _ = _measure_transfer(
            tiny_cluster, src_node=0, dst_node=0, size=64, initiator="host"
        )
        ser = max(p.host_injection_gap, 64 / p.wire_bandwidth)
        assert delivered == pytest.approx(2 * ser + p.wire_latency, rel=1e-9)

    def test_dpu_memory_caps_bandwidth(self, tiny_cluster):
        p = tiny_cluster.params
        size = 1 << 20
        d_host, _ = _measure_transfer(
            tiny_cluster, src_node=0, dst_node=1, size=size, initiator="host"
        )
        d_dpu, _ = _measure_transfer(
            tiny_cluster, src_node=0, dst_node=1, size=size, initiator="host",
            src_mem="dpu",
        )
        assert d_dpu > d_host
        ratio = p.host_memory_bandwidth / p.dpu_memory_bandwidth
        assert d_dpu / d_host == pytest.approx(ratio, rel=0.15)

    def test_dpu_initiator_pays_bigger_gap(self, tiny_cluster):
        p = tiny_cluster.params
        d_host, _ = _measure_transfer(
            tiny_cluster, src_node=0, dst_node=1, size=1, initiator="host"
        )
        d_dpu, _ = _measure_transfer(
            tiny_cluster, src_node=0, dst_node=1, size=1, initiator="dpu"
        )
        assert d_dpu - d_host == pytest.approx(
            2 * (p.dpu_injection_gap - p.host_injection_gap), rel=1e-9
        )

    def test_bw_scale_slows_serialization(self, tiny_cluster):
        size = 1 << 20
        d_full, _ = _measure_transfer(
            tiny_cluster, src_node=0, dst_node=1, size=size, initiator="host"
        )
        d_scaled, _ = _measure_transfer(
            tiny_cluster, src_node=0, dst_node=1, size=size, initiator="host",
            bw_scale=0.5,
        )
        assert d_scaled > d_full

    def test_negative_size_rejected(self, tiny_cluster):
        with pytest.raises(ValueError):
            tiny_cluster.fabric.transfer(
                src_node=0, dst_node=1, size=-1, initiator="host"
            )


class TestContention:
    def test_tx_port_serializes_senders(self, small_cluster):
        """Two ranks on node 0 streaming to node 1: total >= serial sum."""
        cl = small_cluster
        p = cl.params
        size = 256 * 1024
        n_msgs = 8

        def sender(sim):
            transfers = [
                cl.fabric.transfer(src_node=0, dst_node=1, size=size, initiator="host")
                for _ in range(n_msgs)
            ]
            got = yield sim.all_of([t.completed for t in transfers])
            return max(dv.time for dv in got.values())

        t_end = run_proc(cl, sender(cl.sim))
        ser = size / p.wire_bandwidth
        assert t_end >= n_msgs * ser  # the port really serialized them

    def test_incast_does_not_block_unrelated_senders(self):
        """Node0->node1 incast must not slow node2->node3 traffic."""
        cl = Cluster(ClusterSpec(nodes=4, ppn=1))
        size = 512 * 1024

        done = {}

        def blaster(sim):
            ts = [
                cl.fabric.transfer(src_node=0, dst_node=1, size=size, initiator="host")
                for _ in range(16)
            ]
            got = yield sim.all_of([t.completed for t in ts])
            done["blast"] = max(dv.time for dv in got.values())

        def bystander(sim):
            t = cl.fabric.transfer(src_node=2, dst_node=3, size=size, initiator="host")
            dv = yield t.completed
            done["side"] = dv.time

        run_proc(cl, _both(cl.sim, blaster, bystander))
        assert done["side"] < done["blast"] / 4

    def test_metrics_count_posts(self, tiny_cluster):
        _measure_transfer(tiny_cluster, src_node=0, dst_node=1, size=100, initiator="host")
        m = tiny_cluster.metrics
        assert m.get("nic.host_posted_msgs") == 1
        assert m.get("nic.host_posted_bytes") == 100


def _both(sim, *progs):
    procs = [sim.process(p(sim)) for p in progs]
    yield sim.all_of(procs)


class TestControl:
    def test_control_lands_in_inbox(self, tiny_cluster):
        cl = tiny_cluster
        inbox = Store(cl.sim)

        def prog(sim):
            posted = cl.fabric.control(
                src_node=0, dst_node=1, initiator="host", inbox=inbox, msg={"hello": 1}
            )
            assert posted is None  # fire-and-forget: nothing to wait on
            msg = yield inbox.get()
            return sim.now, msg

        t, msg = run_proc(cl, prog(cl.sim))
        assert msg == {"hello": 1} and len(inbox) == 0
        assert 0 < t < 10e-6

    def test_same_node_control_uses_ctrl_latency(self, tiny_cluster):
        cl = tiny_cluster
        p = cl.params
        inbox = Store(cl.sim)

        def prog(sim):
            cl.fabric.control(
                src_node=0, dst_node=0, initiator="host", inbox=inbox, msg="m"
            )
            yield inbox.get()
            return sim.now

        t = run_proc(cl, prog(cl.sim))
        ser = max(p.host_injection_gap, p.ctrl_bytes / p.wire_bandwidth)
        assert t == pytest.approx(p.ctrl_latency + 2 * ser, rel=1e-9)


class TestPort:
    def test_grants_in_request_order(self, sim):
        port = Port(sim)
        order = []
        msgs = [Event(sim) for _ in range(3)]
        for k, msg in enumerate(msgs):
            msg.callbacks = (lambda m, k=k: order.append((k, sim.now)),)
            port.acquire(msg)
        assert port.holder is msgs[0] and list(port.waiting) == msgs[1:]
        sim.run()
        assert order == [(0, 0.0)]
        port.release(msgs[0])
        port.release(msgs[1])  # granted, still due: a release may come first
        sim.run()
        assert order == [(0, 0.0), (1, 0.0), (2, 0.0)]
        assert port.holder is msgs[2]

    def test_release_by_a_non_holder_raises(self, sim):
        port = Port(sim)
        holder, waiter = Event(sim), Event(sim)
        port.acquire(holder)
        port.acquire(waiter)
        with pytest.raises(SimulationError):
            port.release(waiter)


class TestRejectedPost:
    """A post the fabric refuses leaves no trace: no counter, no id, no
    bus row, no draw from the fault stream."""

    BAD = [{"initiator": "gpu"}, {"initiator": "host", "src_mem": "hbm"},
           {"initiator": "dpu", "dst_mem": "hbm"}]

    def test_rejected_posts_have_no_side_effects(self):
        cl = Cluster(ClusterSpec(nodes=2, ppn=1))
        bus = EventBus.attach(cl)
        fabric = cl.fabric
        for bad in self.BAD:
            with pytest.raises(ValueError):
                fabric.transfer(src_node=0, dst_node=1, size=64, **bad)
            with pytest.raises(ValueError):
                fabric.control(src_node=0, dst_node=1, inbox=Store(cl.sim),
                               msg="m", **bad)
        assert (fabric._xfer_seq, fabric._ctrl_seq) == (0, 0)
        assert len(bus) == 0
        assert not [k for k in dict(cl.metrics) if k.startswith(("nic.", "fabric."))]
        cl.sim.run()
        assert cl.sim.processed_events == 0

    @staticmethod
    def _statuses(reject_first: bool) -> str:
        cl = Cluster(ClusterSpec(nodes=2, ppn=1))
        cl.install_faults(FaultPlan(FaultSpec(error_cqe_prob=0.5), seed=3))
        if reject_first:
            with pytest.raises(ValueError):
                cl.fabric.transfer(src_node=0, dst_node=1, size=64,
                                   initiator="host", dst_mem="hbm")
        handles = [cl.fabric.transfer(src_node=0, dst_node=1, size=64,
                                      initiator="host") for _ in range(10)]
        cl.sim.run()
        return "".join("E" if t.completed.value.status == "error" else "."
                       for t in handles)

    def test_a_rejected_post_draws_no_fate(self):
        clean = self._statuses(reject_first=False)
        assert "E" in clean and "." in clean
        assert self._statuses(reject_first=True) == clean
