"""Integration tests for the OpenSHMEM-style front-end.

These back the paper's "programming model agnostic" claim: the same
proxies, caches and cross-GVMI machinery serve a PGAS API with no
MPI-style matching at all.
"""

import pytest

from tests.helpers import pattern, run_procs
from repro.hw import Cluster, ClusterSpec, FaultPlan, FaultSpec, RetryPolicy
from repro.offload import OffloadError, OffloadFramework
from repro.offload.shmem import ShmemWorld
from repro.sim import DeadlockError


def _world(nodes=2, ppn=1, proxies=1):
    cl = Cluster(ClusterSpec(nodes=nodes, ppn=ppn, proxies_per_dpu=proxies))
    return cl, ShmemWorld(cl)


class TestSymmetricHeap:
    def test_collective_alloc_agrees(self):
        cl, world = _world()
        addrs = {}

        def make(pe):
            def prog(sim):
                ep = world.endpoint(pe)
                addrs[pe] = (yield from ep.symmetric_alloc(4096))
                return True

            return prog

        run_procs(cl, [make(pe)(cl.sim) for pe in range(2)])
        assert addrs[0] == addrs[1]

    def test_diverging_allocation_detected(self):
        cl, world = _world()

        def pe0(sim):
            ep = world.endpoint(0)
            ep.ctx.space.alloc(64)  # sneak in an extra local allocation
            yield from ep.symmetric_alloc(4096)

        def pe1(sim):
            ep = world.endpoint(1)
            yield from ep.symmetric_alloc(4096)

        with pytest.raises(OffloadError, match="diverged"):
            run_procs(cl, [pe0(cl.sim), pe1(cl.sim)])

    def test_non_heap_address_rejected(self):
        cl, world = _world()
        with pytest.raises(OffloadError, match="symmetric heap"):
            world.rkey_of(0, 0xDEAD000)


class TestPutGet:
    def test_put_moves_bytes_one_sided(self):
        cl, world = _world()
        data = pattern(8192, seed=2)
        done = {}

        def pe0(sim):
            ep = world.endpoint(0)
            sym = yield from ep.symmetric_alloc(8192)
            src = ep.ctx.space.alloc_like(data)
            yield from ep.put(sym, src, 8192, pe=1)
            yield from ep.quiet()
            done["put"] = sim.now
            return sym

        def pe1(sim):
            ep = world.endpoint(1)
            sym = yield from ep.symmetric_alloc(8192)
            # PE 1 never calls a receive: the put is truly one-sided.
            yield sim.timeout(200e-6)
            assert (ep.ctx.space.read(sym, 8192) == data).all()
            return sym

        run_procs(cl, [pe0(cl.sim), pe1(cl.sim)])
        assert cl.metrics.get("proxy.shmem_puts") == 1
        assert cl.metrics.get("gvmi.cross_registrations") == 1

    def test_get_pulls_remote_bytes(self):
        cl, world = _world()
        data = pattern(4096, seed=3)

        def pe0(sim):
            ep = world.endpoint(0)
            sym = yield from ep.symmetric_alloc(4096)
            ep.ctx.space.write(sym, data)  # my heap holds the source
            yield sim.timeout(300e-6)
            return True

        def pe1(sim):
            ep = world.endpoint(1)
            sym = yield from ep.symmetric_alloc(4096)
            local = ep.ctx.space.alloc(4096)
            yield sim.timeout(50e-6)  # let PE0 populate
            yield from ep.get(local, sym, 4096, pe=0)
            yield from ep.quiet()
            assert (ep.ctx.space.read(local, 4096) == data).all()
            return True

        assert all(run_procs(cl, [pe0(cl.sim), pe1(cl.sim)]))
        assert cl.metrics.get("proxy.shmem_gets") == 1

    def test_put_cache_amortises_registration(self):
        cl, world = _world()

        def pe0(sim):
            ep = world.endpoint(0)
            sym = yield from ep.symmetric_alloc(1024)
            src = ep.ctx.space.alloc(1024, fill=5)
            for _ in range(4):
                yield from ep.put(sym, src, 1024, pe=1)
                yield from ep.quiet()
            return True

        def pe1(sim):
            ep = world.endpoint(1)
            yield from ep.symmetric_alloc(1024)
            yield sim.timeout(300e-6)
            return True

        run_procs(cl, [pe0(cl.sim), pe1(cl.sim)])
        # 4 puts, 1 host GVMI registration, 1 cross-registration.
        assert cl.metrics.get("gvmi.host_registrations") == 1
        assert cl.metrics.get("gvmi.cross_registrations") == 1
        assert cl.metrics.get("shmem.puts") == 4


class TestSynchronisation:
    def test_wait_until_wakes_on_remote_put(self):
        cl, world = _world()
        times = {}

        def pe0(sim):
            ep = world.endpoint(0)
            flag = yield from ep.symmetric_alloc(1, fill=0)
            src = ep.ctx.space.alloc(1, fill=42)
            yield sim.timeout(100e-6)
            yield from ep.put(flag, src, 1, pe=1)
            yield from ep.quiet()
            times["put_done"] = sim.now
            return True

        def pe1(sim):
            ep = world.endpoint(1)
            flag = yield from ep.symmetric_alloc(1, fill=0)
            yield from ep.wait_until(flag, lambda v: v == 42)
            times["woke"] = sim.now
            return True

        run_procs(cl, [pe0(cl.sim), pe1(cl.sim)])
        assert times["woke"] >= 100e-6
        assert times["woke"] <= times["put_done"]  # wake at data landing

    def test_wait_until_wakes_on_a_put_covering_its_byte(self):
        """A watcher inside a put's range wakes, not only one at its base
        address: waiting on the last of 64 bytes used to end in a
        'simulation ran dry' deadlock with the byte already written."""
        cl, world = _world()
        woke = {}

        def pe0(sim):
            ep = world.endpoint(0)
            dst = yield from ep.symmetric_alloc(64, fill=0)
            src = ep.ctx.space.alloc(64, fill=7)
            yield sim.timeout(50e-6)
            yield from ep.put(dst, src, 64, pe=1)
            yield from ep.quiet()
            return True

        def pe1(sim):
            ep = world.endpoint(1)
            dst = yield from ep.symmetric_alloc(64, fill=0)
            yield from ep.wait_until(dst + 63, lambda v: v == 7)
            woke["at"] = sim.now
            return int(ep.ctx.space.view(dst + 63, 1)[0])

        assert run_procs(cl, [pe0(cl.sim), pe1(cl.sim)]) == [True, 7]
        assert woke["at"] >= 50e-6

    def test_wait_until_already_satisfied(self):
        cl, world = _world()

        def pe0(sim):
            ep = world.endpoint(0)
            flag = yield from ep.symmetric_alloc(1, fill=9)
            yield from ep.wait_until(flag, lambda v: v == 9)
            return True

        def pe1(sim):
            ep = world.endpoint(1)
            yield from ep.symmetric_alloc(1, fill=9)
            return True

        assert all(run_procs(cl, [pe0(cl.sim), pe1(cl.sim)]))

    def test_barrier_all(self):
        cl, world = _world(nodes=4, ppn=1, proxies=1)
        n = 4
        arrive, leave = {}, {}

        def make(pe):
            def prog(sim):
                ep = world.endpoint(pe)
                yield from ep.barrier_init()
                yield ep.ctx.consume(pe * 20e-6)
                arrive[pe] = sim.now
                yield from ep.barrier_all()
                leave[pe] = sim.now
                return True

            return prog

        run_procs(cl, [make(pe)(cl.sim) for pe in range(n)])
        assert min(leave.values()) >= max(arrive.values())


class TestOneOffloadStack:
    """A PE is its rank's offload endpoint: one request table, one
    admission window, one set of caches, one watchdog line."""

    def test_an_untouched_world_builds_no_rank_context(self):
        cl = Cluster(ClusterSpec(nodes=4, ppn=2, proxies_per_dpu=1))
        world = ShmemWorld(cl)
        assert len(world.endpoints) == 8
        assert cl.ranks.materialized() == []
        world.endpoint(5)
        assert [ctx.global_id for ctx in cl.ranks.materialized()] == [5]

    def test_send_offload_and_put_share_the_host_gvmi_cache(self):
        cl, world = _world()
        fw = world.framework
        data = pattern(4096, seed=4)

        def pe0(sim):
            ep = world.endpoint(0)
            sym = yield from ep.symmetric_alloc(4096)
            buf = ep.ctx.space.alloc_like(data)
            req = yield from fw.endpoint(0).send_offload(buf, 4096, dst=1, tag=0)
            yield from fw.endpoint(0).wait(req)
            yield from ep.put(sym, buf, 4096, pe=1)
            yield from ep.quiet()

        def pe1(sim):
            ep = world.endpoint(1)
            sym = yield from ep.symmetric_alloc(4096)
            rbuf = ep.ctx.space.alloc(4096)
            req = yield from fw.endpoint(1).recv_offload(rbuf, 4096, src=0, tag=0)
            yield from fw.endpoint(1).wait(req)
            yield sim.timeout(100e-6)
            assert (ep.ctx.space.read(rbuf, 4096) == data).all()
            assert (ep.ctx.space.read(sym, 4096) == data).all()

        run_procs(cl, [pe0(cl.sim), pe1(cl.sim)])
        assert cl.metrics.get("gvmi.host_registrations") == 1
        assert cl.metrics.get("gvmi_cache.host.hit") == 1

    def test_a_dropped_put_is_named_by_the_watchdog_and_not_quiescent(self):
        cl, world = _world()

        def swallow(engine, info):  # the put's control item is lost
            return
            yield

        for engine in world.framework._proxy_engines.values():
            engine.extra_handlers["shmem_put"] = swallow

        def pe0(sim):
            ep = world.endpoint(0)
            sym = yield from ep.symmetric_alloc(64)
            src = ep.ctx.space.alloc(64, fill=1)
            yield from ep.put(sym, src, 64, pe=1)
            yield from ep.quiet()

        def pe1(sim):
            yield from world.endpoint(1).symmetric_alloc(64)

        with pytest.raises(DeadlockError) as err:
            run_procs(cl, [pe0(cl.sim), pe1(cl.sim)])
        assert any(line.startswith("rank 0: offload request(s)")
                   for line in err.value.reports), err.value.reports
        with pytest.raises(OffloadError, match="rank 0"):
            world.framework.assert_quiescent()

    @pytest.mark.parametrize("how", ["policy", "fault_plan"])
    def test_a_resilient_framework_is_rejected(self, how):
        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
        if how == "policy":
            fw = OffloadFramework(cl, retry=RetryPolicy())
        else:
            cl.install_faults(FaultPlan(FaultSpec(), seed=1))
            fw = OffloadFramework(cl)
        with pytest.raises(OffloadError, match="RetryPolicy"):
            ShmemWorld(cl, fw)
