"""Resource governance units: budgets, eviction, epochs, backpressure.

Covers the bounded-memory machinery of docs/RESOURCES.md layer by
layer: AddressSpace byte budgets and address reuse, the free ->
revoke-covering-keys protocol, LRU eviction in every registration
cache, and the offload admission window (SHMEM puts and gets count
against it too).  Integration of the recovery paths (stale keys, OOM
degradation) lives in test_free_reuse.py and test_soak_governance.py.
"""

import pytest

from tests.helpers import pattern, run_proc, run_procs
from repro.hw import Cluster, ClusterSpec, MachineParams, RetryPolicy
from repro.hw.memory import AddressSpace, OutOfMemoryError, peak_stats, reset_peak_stats
from repro.mpi.regcache import RegistrationCache
from repro.offload import OffloadFramework
from repro.offload.gvmi_cache import host_gvmi_cache
from repro.offload.group_cache import DpuPlan, DpuPlanCache, HostGroupCache
from repro.offload.requests import BARRIER
from repro.offload.shmem import ShmemWorld
from repro.offload.staging import StagingChannel
from repro.verbs import rdma_write, reg_mr
from repro.verbs.gvmi import cross_register, gvmi_id_of, host_gvmi_register
from repro.verbs.mr import ProtectionError
from repro.verbs.rdma import verbs_state


def _params(**kw) -> MachineParams:
    return MachineParams().with_overrides(**kw)


def _cluster(nodes=2, ppn=1, proxies=1, **overrides) -> Cluster:
    return Cluster(ClusterSpec(nodes=nodes, ppn=ppn, proxies_per_dpu=proxies,
                               params=_params(**overrides)))


# ---------------------------------------------------------------------------
# AddressSpace: budgets, reuse, peak tracking
# ---------------------------------------------------------------------------

class TestBudgets:
    def test_alloc_over_budget_raises(self):
        space = AddressSpace("t", budget=10_000)
        space.alloc(8_000)
        with pytest.raises(OutOfMemoryError) as ei:
            space.alloc(4_096)
        assert ei.value.requested == 4_096
        assert ei.value.resident == 8_000
        assert ei.value.budget == 10_000

    def test_free_returns_budget(self):
        space = AddressSpace("t", budget=10_000)
        a = space.alloc(8_000)
        space.free(a)
        assert space.allocated_bytes == 0
        space.alloc(9_000)  # fits again

    def test_oom_is_a_memoryerror(self):
        space = AddressSpace("t", budget=16)
        with pytest.raises(MemoryError):
            space.alloc(64)

    def test_unbounded_by_default(self):
        space = AddressSpace("t")
        for _ in range(8):
            space.alloc(1 << 20)

    def test_reuse_recycles_same_address(self):
        space = AddressSpace("t", reuse=True)
        a = space.alloc(4096, fill=7)
        space.free(a)
        b = space.alloc(4096)
        assert b == a
        # Fresh incarnation: zeroed, not the old bytes.
        assert int(space.view(b, 1)[0]) == 0

    def test_no_reuse_by_default(self):
        space = AddressSpace("t")
        a = space.alloc(4096)
        space.free(a)
        assert space.alloc(4096) != a

    def test_free_bumps_epoch(self):
        space = AddressSpace("t")
        assert space.epoch == 0
        a = space.alloc(64)
        b = space.alloc(64)
        space.free(a)
        space.free(b)
        assert space.epoch == 2

    def test_peak_tracking(self):
        reset_peak_stats()
        space = AddressSpace("t", kind="dpu")
        a = space.alloc(10_000)
        space.free(a)
        space.alloc(2_000)
        assert space.peak_bytes == 10_000
        assert peak_stats()["dpu"] >= 10_000
        reset_peak_stats()
        assert peak_stats() == {"host": 0, "dpu": 0}

    def test_cluster_budgets_reach_spaces(self):
        cl = _cluster(host_mem_budget=1 << 20, dpu_mem_budget=1 << 16,
                      reuse_freed_addresses=True)
        host = cl.rank_ctx(0)
        proxy = cl.proxies[0]
        assert host.space.budget == 1 << 20
        assert proxy.space.budget == 1 << 16
        assert host.space.reuse and proxy.space.reuse


# ---------------------------------------------------------------------------
# free -> revoke covering keys (the epoch protocol's enforcement hook)
# ---------------------------------------------------------------------------

class TestFreeRevokes:
    def test_free_revokes_ib_keys(self, tiny_cluster):
        ctx = tiny_cluster.rank_ctx(0)
        addr = ctx.space.alloc(4096)

        def prog(sim):
            return (yield from reg_mr(ctx, addr, 4096))

        handle = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        keys = verbs_state(tiny_cluster).keys
        assert keys.is_live(handle.lkey) and keys.is_live(handle.rkey)
        revoked = ctx.free(addr)
        assert {i.key for i in revoked} == {handle.lkey, handle.rkey}
        assert not keys.is_live(handle.lkey)
        assert not keys.live_owned_by(ctx)
        with pytest.raises(ProtectionError, match="revoked"):
            keys.lookup(handle.rkey)

    def test_free_revokes_mkey_and_derived_mkey2(self, tiny_cluster):
        """mkey2s are owned by the host ctx they grant access to, so the
        host's free kills the whole cross-registration chain."""
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxies[0]
        addr = host.space.alloc(8192)
        gid = gvmi_id_of(proxy)

        def prog(sim):
            mkey = yield from host_gvmi_register(host, addr, 8192, gid)
            mkey2 = yield from cross_register(proxy, addr, 8192, gid, mkey.key)
            return mkey, mkey2

        mkey, mkey2 = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        keys = verbs_state(tiny_cluster).keys
        assert mkey2.owner is host
        host.free(addr)
        assert not keys.is_live(mkey.key)
        assert not keys.is_live(mkey2.key)
        assert tiny_cluster.metrics.get("verbs.revoked_keys") == 2

    def test_free_only_revokes_overlapping(self, tiny_cluster):
        ctx = tiny_cluster.rank_ctx(0)
        a = ctx.space.alloc(4096)
        b = ctx.space.alloc(4096)

        def prog(sim):
            ha = yield from reg_mr(ctx, a, 4096)
            hb = yield from reg_mr(ctx, b, 4096)
            return ha, hb

        ha, hb = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        keys = verbs_state(tiny_cluster).keys
        ctx.free(a)
        assert not keys.is_live(ha.lkey)
        assert keys.is_live(hb.lkey)

    def test_stale_key_epoch_stamped(self, tiny_cluster):
        ctx = tiny_cluster.rank_ctx(0)
        addr = ctx.space.alloc(64)

        def prog(sim):
            return (yield from reg_mr(ctx, addr, 64))

        handle = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        keys = verbs_state(tiny_cluster).keys
        assert keys.lookup(handle.lkey).epoch == 0
        ctx.free(addr)
        addr2 = ctx.space.alloc(64)

        def prog2(sim):
            return (yield from reg_mr(ctx, addr2, 64))

        handle2 = run_proc(tiny_cluster, prog2(tiny_cluster.sim))
        assert keys.lookup(handle2.lkey).epoch == 1


# ---------------------------------------------------------------------------
# LRU eviction: IB regcache, GVMI caches, group/plan caches, staging pool
# ---------------------------------------------------------------------------

class TestCacheEviction:
    def test_ib_regcache_evicts_lru_and_deregisters(self, tiny_cluster):
        ctx = tiny_cluster.rank_ctx(0)
        cache = RegistrationCache(ctx, capacity=2)
        keys = verbs_state(tiny_cluster).keys
        addrs = [ctx.space.alloc(4096) for _ in range(3)]

        def prog(sim):
            handles = []
            for a in addrs:
                handles.append((yield from cache.get(a, 4096)))
            return handles

        handles = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert cache.evictions == 1
        # Oldest (first) registration was deregistered on eviction.
        assert not keys.is_live(handles[0].lkey)
        assert keys.is_live(handles[1].lkey) and keys.is_live(handles[2].lkey)
        assert len(cache) == 2

    def test_ib_regcache_hit_refreshes_lru(self, tiny_cluster):
        ctx = tiny_cluster.rank_ctx(0)
        cache = RegistrationCache(ctx, capacity=2)
        a, b, c = (ctx.space.alloc(4096) for _ in range(3))

        def prog(sim):
            ha = yield from cache.get(a, 4096)
            yield from cache.get(b, 4096)
            yield from cache.get(a, 4096)  # refresh a: b is now LRU
            yield from cache.get(c, 4096)  # evicts b, not a
            return ha

        ha = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        keys = verbs_state(tiny_cluster).keys
        assert keys.is_live(ha.lkey)
        assert cache.peek(a, 4096) is not None and cache.peek(b, 4096) is None

    def test_host_gvmi_cache_evicts_and_revokes(self, tiny_cluster):
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxies[0]
        cache = host_gvmi_cache(host, capacity=2)
        addrs = [host.space.alloc(4096) for _ in range(3)]

        def prog(sim):
            infos = []
            for a in addrs:
                infos.append((yield from cache.get(a, 4096, proxy)))
            return infos

        infos = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        keys = verbs_state(tiny_cluster).keys
        assert cache.evictions == 1
        assert not keys.is_live(infos[0].key)
        assert keys.is_live(infos[1].key) and keys.is_live(infos[2].key)
        assert len(cache) == 2
        assert tiny_cluster.metrics.get("gvmi_cache.host.evict") == 1

    def test_capacity_param_flows_from_machine_params(self):
        cl = _cluster(gvmi_cache_capacity=5, ib_cache_capacity=7)
        host = cl.rank_ctx(0)
        assert host_gvmi_cache(host).capacity == 5
        assert RegistrationCache(host).capacity == 7

    def test_host_group_cache_bounded(self, tiny_cluster):
        cache = HostGroupCache(capacity=2)
        plans = [cache.insert(("sig", i), [BARRIER]) for i in range(3)]
        assert cache.lookup(("sig", 0)) is None  # evicted
        assert cache.lookup(("sig", 1)) is plans[1]
        assert cache.lookup(("sig", 2)) is plans[2]
        assert cache.evictions == 1

    def test_dpu_plan_cache_bounded(self, tiny_cluster):
        proxy = tiny_cluster.proxies[0]
        cache = DpuPlanCache(ctx=proxy, capacity=2)
        for pid in (1, 2, 3):
            cache.store(pid, DpuPlan(pid, host_rank=0, entries=[BARRIER]))
        assert cache.fetch(1) is None
        assert cache.fetch(2) is not None and cache.fetch(3) is not None
        assert cache.evictions == 1

    def test_staging_pool_reclaims_under_budget(self, tiny_cluster):
        proxy = tiny_cluster.proxies[0]
        proxy.space.budget = proxy.space.allocated_bytes + 16_384
        chan = StagingChannel(proxy)
        keys = verbs_state(tiny_cluster).keys

        def prog(sim):
            bufs = []
            for _ in range(3):
                bufs.append((yield from chan.acquire(4096)))
            for b in bufs:
                chan.release(b)
            # 12 KiB pooled in 4 KiB buffers; a 16 KiB request must
            # tear pooled buffers down to fit.
            big = yield from chan.acquire(16_384)
            return bufs, big

        bufs, big = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert chan.evictions >= 2
        assert not keys.is_live(bufs[0].handle.lkey)
        assert keys.is_live(big.handle.lkey)
        assert tiny_cluster.metrics.get("staging.evictions") == chan.evictions

    def test_staging_oom_when_reclaim_insufficient(self, tiny_cluster):
        proxy = tiny_cluster.proxies[0]
        proxy.space.budget = proxy.space.allocated_bytes + 4096
        chan = StagingChannel(proxy)

        def prog(sim):
            with pytest.raises(OutOfMemoryError):
                yield from chan.acquire(16_384)

        run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert tiny_cluster.metrics.get("staging.oom") == 1
        assert chan.outstanding == 0


# ---------------------------------------------------------------------------
# admission control / backpressure windows
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_offload_window_blocks_and_drains(self):
        cl = _cluster(max_outstanding_offloads=1)
        fw = OffloadFramework(cl)
        size = 2048
        datas = [pattern(size, seed=i) for i in range(3)]

        def sender(sim):
            ep = fw.endpoint(0)
            reqs = []
            for i, d in enumerate(datas):
                addr = ep.ctx.space.alloc_like(d)
                reqs.append((yield from ep.send_offload(addr, size, dst=1, tag=i)))
            for r in reqs:
                yield from ep.wait(r)

        def receiver(sim):
            ep = fw.endpoint(1)
            for i, d in enumerate(datas):
                addr = ep.ctx.space.alloc(size)
                req = yield from ep.recv_offload(addr, size, src=0, tag=i)
                yield from ep.wait(req)
                assert (ep.ctx.space.read(addr, size) == d).all()

        run_procs(cl, [sender(cl.sim), receiver(cl.sim)])
        fw.assert_quiescent()
        # Sends 2 and 3 each stalled behind the window of one.
        assert cl.metrics.get("offload.admission_stalls") >= 2

    def test_window_off_by_default(self):
        cl = _cluster()
        fw = OffloadFramework(cl)
        assert fw.max_outstanding is None

    def test_window_from_params(self):
        cl = _cluster(max_outstanding_offloads=4)
        fw = OffloadFramework(cl)
        assert fw.max_outstanding == 4

    def test_resilient_window_survives_faults(self):
        from repro.hw import FaultPlan, FaultSpec

        cl = _cluster(max_outstanding_offloads=2)
        cl.install_faults(FaultPlan(FaultSpec(drop_prob=0.2), seed=5))
        fw = OffloadFramework(cl, retry=RetryPolicy(timeout=30e-6))
        size = 1024
        datas = [pattern(size, seed=10 + i) for i in range(6)]

        def sender(sim):
            ep = fw.endpoint(0)
            reqs = []
            for i, d in enumerate(datas):
                addr = ep.ctx.space.alloc_like(d)
                reqs.append((yield from ep.send_offload(addr, size, dst=1, tag=i)))
            yield from ep.waitall(reqs)

        def receiver(sim):
            ep = fw.endpoint(1)
            reqs, addrs = [], []
            for i in range(len(datas)):
                addr = ep.ctx.space.alloc(size)
                addrs.append(addr)
                reqs.append((yield from ep.recv_offload(addr, size, src=0, tag=i)))
            yield from ep.waitall(reqs)
            for addr, d in zip(addrs, datas):
                assert (ep.ctx.space.read(addr, size) == d).all()

        run_procs(cl, [sender(cl.sim), receiver(cl.sim)])

    def test_shmem_puts_share_the_offload_window(self):
        cl = _cluster(max_outstanding_offloads=1)
        world = ShmemWorld(cl)
        size = 512
        data = pattern(size, seed=3)

        def pe0(sim):
            ep = world.endpoint(0)
            src = yield from ep.symmetric_alloc(4 * size)
            dst = yield from ep.symmetric_alloc(4 * size)
            ep.ctx.space.write(src, data)
            for k in range(4):
                yield from ep.put(dst + k * size, src, size, 1)
            yield from ep.quiet()
            return dst

        def pe1(sim):
            ep = world.endpoint(1)
            yield from ep.symmetric_alloc(4 * size)
            yield from ep.symmetric_alloc(4 * size)
            yield sim.timeout(2e-3)

        dst, _ = run_procs(cl, [pe0(cl.sim), pe1(cl.sim)])
        assert cl.metrics.get("offload.admission_stalls") >= 1
        dst_space = cl.rank_ctx(1).space
        # All four puts landed despite the depth-1 window.
        assert cl.metrics.get("proxy.shmem_puts") == 4
        for k in range(4):
            assert (dst_space.read(dst + k * size, size) == data).all()


# ---------------------------------------------------------------------------
# defaults: the governance machinery must be fully dormant
# ---------------------------------------------------------------------------

class TestDormantByDefault:
    def test_default_params_unbounded(self):
        p = MachineParams()
        assert p.host_mem_budget is None
        assert p.dpu_mem_budget is None
        assert p.ib_cache_capacity is None
        assert p.gvmi_cache_capacity is None
        assert p.group_cache_capacity is None
        assert p.plan_cache_capacity is None
        assert p.max_outstanding_offloads is None
        assert p.reuse_freed_addresses is False

    def test_clean_run_emits_no_governance_metrics(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        data = pattern(4096)

        def sender(sim):
            ep = fw.endpoint(0)
            addr = ep.ctx.space.alloc_like(data)
            req = yield from ep.send_offload(addr, 4096, dst=1, tag=0)
            yield from ep.wait(req)

        def receiver(sim):
            ep = fw.endpoint(1)
            addr = ep.ctx.space.alloc(4096)
            req = yield from ep.recv_offload(addr, 4096, src=0, tag=0)
            yield from ep.wait(req)

        run_procs(tiny_cluster, [sender(tiny_cluster.sim),
                                 receiver(tiny_cluster.sim)])
        m = tiny_cluster.metrics
        for name in ("offload.admission_stalls", "proxy.stale_keys",
                     "proxy.oom_degrades", "gvmi_cache.host.evict",
                     "staging.evictions", "mem.frees", "verbs.revoked_keys"):
            assert m.get(name) == 0, name
