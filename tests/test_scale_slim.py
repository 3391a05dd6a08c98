"""Scale-out machinery: slim state and proxy batching are timing-safe.

The thousand-rank path rests on three opt-in knobs
(``ClusterSpec.slim``, ``MachineParams.proxy_batch_drain``,
``MachineParams.counter_doorbell_batch``).  Each is allowed to change
*resident memory* or *event count*, never simulated semantics:

* **slim** builds rank/proxy contexts, MPI runtimes, and offload
  endpoints lazily -- the differential tests here prove completion
  times and payloads are identical to eager construction, and that
  touching a few ranks of a big cluster materializes only those ranks.
* **proxy_batch_drain** drains a proxy's shmem queue in batches: one
  handler charge and one ``queue.drain`` event per wakeup instead of
  per message.  Payloads are unchanged; latency can only improve.
* **counter_doorbell_batch** rings one WQE-post doorbell for a flush
  segment's whole set of barrier-counter writes.

With every knob at its default the batching metrics and events must
not exist at all -- that is what keeps the committed golden traces and
figure tables bit-identical.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from tests.helpers import run_procs
from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld
from repro.mpi.collectives import allreduce as host_allreduce
from repro.obs import EventBus
from repro.offload import OffloadFramework, build_iallreduce


def _spec(p: int, ppn: int = 1, slim: bool = False, **knobs) -> ClusterSpec:
    spec = ClusterSpec(nodes=p, ppn=ppn, slim=slim)
    if knobs:
        spec = dataclasses.replace(
            spec, params=dataclasses.replace(spec.params, **knobs))
    return spec


# ----------------------------------------------------------------------
# slim: timing-differential against eager construction
# ----------------------------------------------------------------------
def _offload_allreduce_run(spec: ClusterSpec, count: int = 96):
    t, out, _cl = _offload_allreduce_cluster(spec, count)
    return max(t), out


def _offload_allreduce_cluster(spec: ClusterSpec, count: int = 96):
    """Per-rank finish times, results, and the cluster they ran on."""
    cl = Cluster(spec)
    fw = OffloadFramework(cl)
    p = spec.world_size
    vals = [np.arange(count, dtype=np.float64) * (r + 1) for r in range(p)]
    out = {}

    def prog(rank):
        ep = fw.endpoint(rank)
        addr = ep.ctx.space.alloc_like(vals[rank])
        greq, _ = build_iallreduce(ep, addr, count * 8, comm_size=p)
        yield from ep.group_call(greq)
        yield from ep.group_wait(greq)
        out[rank] = ep.ctx.space.read_as(addr, np.float64, count).copy()
        return cl.sim.now

    t = run_procs(cl, [prog(r) for r in range(p)])
    return t, out, cl


class TestSlimTimingIdentical:
    def test_offloaded_allreduce(self):
        t_eager, out_eager = _offload_allreduce_run(_spec(4))
        t_slim, out_slim = _offload_allreduce_run(_spec(4, slim=True))
        assert t_slim == t_eager
        for r in range(4):
            assert out_slim[r].tobytes() == out_eager[r].tobytes()

    def test_host_mpi_allreduce(self):
        def run(slim):
            cl = Cluster(_spec(3, ppn=2, slim=slim))
            world = MpiWorld(cl)
            done = []

            def prog(rt):
                addr = rt.ctx.space.alloc(512, fill=rt.rank + 1)
                yield from host_allreduce(rt, world.comm_world, addr, 512)
                done.append(rt.sim.now)

            world.run(prog)
            return max(done)

        assert run(slim=True) == run(slim=False)

    def test_p2p_offload(self):
        def run(slim):
            cl = Cluster(_spec(2, slim=slim))
            fw = OffloadFramework(cl)
            t = {}

            def sender(sim):
                ep = fw.endpoint(0)
                buf = ep.ctx.space.alloc(4096, fill=7)
                req = yield from ep.send_offload(buf, 4096, dst=1, tag=1)
                yield from ep.wait(req)
                t[0] = sim.now

            def receiver(sim):
                ep = fw.endpoint(1)
                buf = ep.ctx.space.alloc(4096)
                req = yield from ep.recv_offload(buf, 4096, src=0, tag=1)
                yield from ep.wait(req)
                assert (ep.ctx.space.read(buf, 4096) == 7).all()
                t[1] = sim.now

            run_procs(cl, [sender(cl.sim), receiver(cl.sim)])
            return t

        assert run(slim=True) == run(slim=False)


class TestSlimLaziness:
    def test_only_touched_ranks_materialize(self):
        cl = Cluster(_spec(64, ppn=16, slim=True))
        assert len(cl.ranks._made) == 0
        cl.rank_ctx(0)
        cl.rank_ctx(777)
        assert len(cl.ranks._made) == 2

    def test_eager_unaffected(self):
        cl = Cluster(_spec(2, ppn=2))
        # Eager clusters keep a plain list: everything exists up front.
        assert len(cl.ranks) == 4
        assert all(ctx is not None for ctx in cl.ranks)


# ----------------------------------------------------------------------
# batched proxy drain
# ----------------------------------------------------------------------
def _burst(batch):
    """8 ranks on node0 each fire 4 sends through one shared proxy."""
    spec = _spec(2, ppn=8, **({"proxy_batch_drain": batch} if batch else {}))
    spec = dataclasses.replace(spec, proxies_per_dpu=1)
    cl = Cluster(spec)
    bus = EventBus.attach(cl)
    fw = OffloadFramework(cl)
    NMSG, SZ = 4, 2048

    def sender(rank):
        def prog(sim):
            ep = fw.endpoint(rank)
            buf = ep.ctx.space.alloc(SZ, fill=rank + 1)
            reqs = []
            for m in range(NMSG):
                reqs.append((yield from ep.send_offload(
                    buf, SZ, dst=rank + 8, tag=m)))
            yield from ep.waitall(reqs)
            return sim.now

        return prog

    def receiver(rank):
        def prog(sim):
            ep = fw.endpoint(rank)
            buf = ep.ctx.space.alloc(SZ)
            reqs = []
            for m in range(NMSG):
                reqs.append((yield from ep.recv_offload(
                    buf, SZ, src=rank - 8, tag=m)))
            yield from ep.waitall(reqs)
            assert (ep.ctx.space.read(buf, SZ) == rank - 8 + 1).all()
            return sim.now

        return prog

    t = run_procs(cl, [sender(r)(cl.sim) for r in range(8)]
                      + [receiver(r)(cl.sim) for r in range(8, 16)])
    return t, cl.metrics, bus


class TestBatchedProxyDrain:
    def test_burst_batches_and_is_no_slower(self):
        t_plain, m_plain, bus_plain = _burst(batch=None)
        t_batch, m_batch, bus_batch = _burst(batch=16)
        t_plain, t_batch = max(t_plain), max(t_batch)

        # Defaults: the batching machinery leaves no trace at all.
        assert m_plain.get("proxy.wakeups") == 0
        assert m_plain.get("proxy.drained_items") == 0
        assert bus_plain.select(cat="queue", name="drain") == []

        # Batched: strictly fewer wakeups than items served, one
        # queue.drain event per wakeup whose ``n`` args account for
        # every item exactly once.
        wakeups = m_batch.get("proxy.wakeups")
        drained = m_batch.get("proxy.drained_items")
        assert 0 < wakeups < drained
        drains = bus_batch.select(cat="queue", name="drain")
        assert len(drains) == wakeups
        assert sum(ev.arg("n") for ev in drains) == drained
        assert any(ev.arg("n") > 1 for ev in drains)

        # One handler charge per batch instead of per message can only
        # help the burst.
        assert t_batch <= t_plain

    def test_lockstep_collective_payload_unchanged(self):
        t_plain, out_plain = _offload_allreduce_run(_spec(4))
        t_batch, out_batch = _offload_allreduce_run(
            _spec(4, proxy_batch_drain=8))
        assert t_batch <= t_plain
        for r in range(4):
            assert out_batch[r].tobytes() == out_plain[r].tobytes()

    def test_batch_of_one_is_the_default_loop(self):
        """``proxy_batch_drain=1`` is data on the one proxy loop, not a
        second loop: same finish times and event count as unset; only
        the drain accounting differs (one item per wakeup)."""
        t_plain, m_plain, bus_plain = _burst(batch=None)
        t_one, m_one, bus_one = _burst(batch=1)
        assert t_one == t_plain
        assert bus_one.sim.processed_events == bus_plain.sim.processed_events
        assert m_plain.get("proxy.wakeups") == 0
        assert m_one.get("proxy.wakeups") == m_one.get("proxy.drained_items") > 0
        drains = bus_one.select(cat="queue", name="drain")
        assert len(drains) == m_one.get("proxy.wakeups")
        assert all(ev.arg("n") == 1 for ev in drains)
        # Everything else the bus saw is the same stream (args carry
        # process-global request ids, so compare the tagged skeleton).
        def strip(bus):
            return [(e.time, e.cat, e.name, e.entity)
                    for e in bus.events if e.cat != "queue"]

        assert strip(bus_one) == strip(bus_plain)

        t_plain, out_plain, cl_plain = _offload_allreduce_cluster(_spec(4))
        t_one, out_one, cl_one = _offload_allreduce_cluster(
            _spec(4, proxy_batch_drain=1))
        assert t_one == t_plain
        assert cl_one.sim.processed_events == cl_plain.sim.processed_events
        assert cl_one.metrics.get("proxy.wakeups") \
            == cl_one.metrics.get("proxy.drained_items") > 0
        for r in range(4):
            assert out_one[r].tobytes() == out_plain[r].tobytes()


# ----------------------------------------------------------------------
# batched counter doorbells
# ----------------------------------------------------------------------
def _fanout_group(doorbell: bool):
    """Each rank sends one block to every peer in a single flush segment."""
    spec = _spec(4, **({"counter_doorbell_batch": True} if doorbell else {}))
    cl = Cluster(spec)
    fw = OffloadFramework(cl)
    P, SZ = 4, 1024

    def prog(rank):
        ep = fw.endpoint(rank)
        sbuf = ep.ctx.space.alloc(SZ, fill=rank + 10)
        rbuf = ep.ctx.space.alloc(P * SZ)
        greq = ep.group_start()
        for d in range(1, P):
            dst, src = (rank + d) % P, (rank - d) % P
            ep.group_send(greq, sbuf, SZ, dst=dst, tag=5)
            ep.group_recv(greq, rbuf + src * SZ, SZ, src=src, tag=5)
        ep.group_end(greq)
        yield from ep.group_call(greq)
        yield from ep.group_wait(greq)
        for s in range(P):
            if s != rank:
                assert (ep.ctx.space.read(rbuf + s * SZ, SZ) == s + 10).all()
        return cl.sim.now

    t = run_procs(cl, [prog(r) for r in range(P)])
    return max(t), cl.metrics


class TestCounterDoorbellBatch:
    def test_one_doorbell_per_segment_fanout(self):
        t_plain, m_plain = _fanout_group(doorbell=False)
        t_batch, m_batch = _fanout_group(doorbell=True)

        assert m_plain.get("proxy.counter_doorbells") == 0
        # 4 ranks x 1 final flush segment, each covering 3 peers.
        assert m_batch.get("proxy.counter_doorbells") == 4
        assert m_batch.get("proxy.counter_writes") == 12
        # One WQE-post charge instead of three makes the flush cheaper.
        assert t_batch <= t_plain
