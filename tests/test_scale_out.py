"""Scale-out machinery: first-touch state and proxy batching are timing-safe.

The thousand-rank path rests on one structural rule and one opt-in
knob.  Each is allowed to change *resident memory* or *event count*,
never simulated semantics:

* **Per-rank state is built on first touch** -- rank contexts, MPI
  runtimes and offload endpoints exist only once something indexes
  them, while every proxy engine starts at ``Init_Offload``.  The
  differential tests here run each program once untouched and once
  with all per-rank state forced up front, and require identical
  finish times, payloads, event counts and bus streams; a big cluster
  that exchanges between two ranks materializes exactly those two.
* **proxy_batch_drain** drains a proxy's shmem queue in batches: one
  handler charge and one ``queue.drain`` event per wakeup instead of
  per message.  Payloads are unchanged; latency can only improve.

With the knob at its default the batching metrics and events must
not exist at all -- that is what keeps the committed golden traces and
figure tables bit-identical.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from tests.helpers import blocking, pattern, run_procs
from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld
from repro.mpi.collectives import allreduce as host_allreduce
from repro.obs import EventBus
from repro.offload import OffloadFramework, build_iallreduce
from repro.offload.shmem import ShmemWorld


def _spec(p: int, ppn: int = 1, **knobs) -> ClusterSpec:
    spec = ClusterSpec(nodes=p, ppn=ppn)
    if knobs:
        spec = dataclasses.replace(
            spec, params=dataclasses.replace(spec.params, **knobs))
    return spec


# ----------------------------------------------------------------------
# shared program: one offloaded sum-allreduce on every rank
# ----------------------------------------------------------------------
def _offload_allreduce_run(spec: ClusterSpec, count: int = 96):
    t, out, _cl = _offload_allreduce_cluster(spec, count)
    return max(t), out


def _offload_allreduce_cluster(spec: ClusterSpec, count: int = 96):
    """Per-rank finish times, results, and the cluster they ran on."""
    cl = Cluster(spec)
    t, out = _offload_allreduce_on(cl, OffloadFramework(cl), count)
    return t, out, cl


def _offload_allreduce_on(cl, fw, count: int = 96):
    p = cl.world_size
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

    return run_procs(cl, [prog(r) for r in range(p)]), out


# ----------------------------------------------------------------------
# per-rank state: first touch vs everything forced up front
# ----------------------------------------------------------------------
def _stack(spec: ClusterSpec):
    cl = Cluster(spec)
    bus = EventBus.attach(cl)
    return cl, bus, OffloadFramework(cl), MpiWorld(cl)


def _observe(program, spec: ClusterSpec, force: bool):
    """Run ``program(cl, fw, world) -> (finish times, payload bytes)`` and
    return everything a lazily built rank must not be able to change."""
    cl, bus, fw, world = _stack(spec)
    if force:
        for r in range(spec.world_size):
            ctx = cl.ranks[r]
            assert world.runtimes[r].ctx is ctx and fw.endpoint(r).ctx is ctx
    finish, payloads = program(cl, fw, world)
    skeleton = [(e.time, e.cat, e.name, e.entity) for e in bus.events]
    return finish, payloads, cl.sim.processed_events, skeleton


def _assert_first_touch_invisible(program, spec: ClusterSpec):
    lazy = _observe(program, spec, force=False)
    assert lazy == _observe(program, spec, force=True)
    _finish, _payloads, events, skeleton = lazy
    assert events > 0 and skeleton  # the comparison is not vacuous


def _offloaded_allreduce(cl, fw, world):
    t, out = _offload_allreduce_on(cl, fw)
    return t, {r: a.tobytes() for r, a in out.items()}


def _host_mpi_allreduce(cl, fw, world):
    out = {}

    def prog(rt):
        addr = rt.ctx.space.alloc(512, fill=rt.rank + 1)
        yield from host_allreduce(rt, world.comm_world, addr, 512)
        out[rt.rank] = rt.ctx.space.read(addr, 512).tobytes()
        return rt.sim.now

    return world.run(prog), out


def _p2p_offload(cl, fw, world):
    data = pattern(4096, seed=7)
    out = {}

    def sender(sim):
        ep = fw.endpoint(0)
        buf = ep.ctx.space.alloc_like(data)
        req = yield from ep.send_offload(buf, 4096, dst=1, tag=1)
        yield from ep.wait(req)
        return sim.now

    def receiver(sim):
        ep = fw.endpoint(1)
        buf = ep.ctx.space.alloc(4096)
        req = yield from ep.recv_offload(buf, 4096, src=0, tag=1)
        yield from ep.wait(req)
        out[1] = ep.ctx.space.read(buf, 4096).tobytes()
        return sim.now

    t = run_procs(cl, [sender(cl.sim), receiver(cl.sim)])
    assert out[1] == data.tobytes()
    return t, out


class TestFirstTouchTimingIdentical:
    def test_offloaded_allreduce(self):
        _assert_first_touch_invisible(_offloaded_allreduce, _spec(4))

    def test_host_mpi_allreduce(self):
        _assert_first_touch_invisible(_host_mpi_allreduce, _spec(3, ppn=2))

    def test_p2p_offload(self):
        _assert_first_touch_invisible(_p2p_offload, _spec(2))


class TestLaziness:
    def test_only_touched_ranks_materialize(self):
        """64 x 16: nothing per-rank exists after construction, exactly
        the two exchanging ranks afterwards; the proxies all run from
        ``Init_Offload``."""
        cl, bus, fw, world = _stack(_spec(64, ppn=16))
        assert cl.ranks.materialized() == []
        assert world.runtimes.materialized() == []
        assert fw._endpoints == {}
        starts = bus.select("proxy", "start")
        assert sorted(ev.entity for ev in starts) == sorted(
            f"dpu{g}" for g in range(len(cl.proxies)))
        assert all(ev.time == 0 for ev in starts)

        a, b = 0, 777

        def prog(me, peer):
            ep, rt = fw.endpoint(me), world.runtimes[me]
            buf = ep.ctx.space.alloc(256, fill=me % 251)
            if me == a:
                req = yield from ep.send_offload(buf, 256, dst=peer, tag=3)
                yield from ep.wait(req)
                yield from blocking(rt, rt.isend(world.comm_world, peer, buf, 256, tag=4))
            else:
                req = yield from ep.recv_offload(buf, 256, src=peer, tag=3)
                yield from ep.wait(req)
                yield from blocking(rt, rt.irecv(world.comm_world, peer, buf, 256, tag=4))
                assert (ep.ctx.space.read(buf, 256) == peer % 251).all()

        run_procs(cl, [prog(a, b), prog(b, a)])
        touched = [cl.ranks[a], cl.ranks[b]]
        assert cl.ranks.materialized() == touched
        assert world.runtimes.materialized() == [c.mpi for c in touched]
        assert sorted(fw._endpoints) == [a, b]
        assert len(bus.select("proxy", "start")) == len(cl.proxies)

    def test_iteration_materializes_all(self):
        """Code that walks ``cl.ranks`` still sees every context."""
        cl = Cluster(_spec(2, ppn=2))
        assert len(cl.ranks) == 4
        assert [ctx.global_id for ctx in cl.ranks] == [0, 1, 2, 3]
        assert cl.ranks[-1] is cl.ranks[3]
        with pytest.raises(IndexError):
            cl.ranks[4]

    def test_runtime_index_is_normalised(self):
        """``runtimes[-1]`` is the last rank's one runtime, not a second
        one; an out-of-range rank raises at the container."""
        cl = Cluster(_spec(2, ppn=2))
        world = MpiWorld(cl)
        last = world.runtimes[-1]
        assert last is world.runtimes[3] is cl.ranks[3].mpi
        assert last.rank == 3
        assert len(world.runtimes.materialized()) == 1
        with pytest.raises(IndexError):
            world.runtimes[4]
        assert cl.ranks.materialized() == [cl.ranks[3]]


@pytest.mark.parametrize("spec_kw", [{}, {"slim": True}],
                         ids=["default", "slim-keyword"])
class TestShmemOnUntouchedCluster:
    """SHMEM installs its handlers on the proxy engines and posts to
    their inboxes directly, so it needs every engine running whether or
    not any offload endpoint was ever built.  (``slim`` is the inert
    keyword the repo benchmark still passes; at the parent it selected
    a framework with no engines and these programs hung.)"""

    def test_put_get_between_two_of_eight_pes(self, spec_kw):
        cl = Cluster(ClusterSpec(nodes=4, ppn=2, **spec_kw))
        shmem = ShmemWorld(cl)
        data = pattern(2048, seed=5)
        a, b = 0, 5

        def pe_a(sim):
            ep = shmem.endpoint(a)
            sym = yield from ep.symmetric_alloc(2048)
            src = ep.ctx.space.alloc_like(data)
            yield from ep.put(sym, src, 2048, pe=b)
            yield from ep.quiet()
            back = ep.ctx.space.alloc(2048)
            yield from ep.get(back, sym, 2048, pe=b)
            yield from ep.quiet()
            assert (ep.ctx.space.read(back, 2048) == data).all()

        def pe_b(sim):
            sym = yield from shmem.endpoint(b).symmetric_alloc(2048)
            yield sim.timeout(1e-3)
            assert (cl.ranks[b].space.read(sym, 2048) == data).all()

        run_procs(cl, [pe_a(cl.sim), pe_b(cl.sim)])
        assert shmem.framework._endpoints == {}

    def test_barrier_all(self, spec_kw):
        cl = Cluster(ClusterSpec(nodes=2, ppn=2, **spec_kw))
        shmem = ShmemWorld(cl)
        arrived = []

        def prog(pe):
            ep = shmem.endpoint(pe)
            yield from ep.barrier_init()
            yield cl.sim.timeout(pe * 20e-6)
            arrived.append(cl.sim.now)
            yield from ep.barrier_all()
            return cl.sim.now

        left = run_procs(cl, [prog(pe) for pe in range(4)])
        assert min(left) >= max(arrived)


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
