"""Unit tests for the two GVMI registration-cache instances."""

import pytest

from tests.helpers import run_proc, run_procs
from tests.test_offload_bst import check_invariants
from repro.hw import Cluster, ClusterSpec
from repro.obs import EventBus
from repro.offload import OffloadFramework
from repro.offload.gvmi_cache import dpu_gvmi_cache, host_gvmi_cache
from repro.verbs import gvmi_id_of, host_gvmi_register


def _host_cache_get(cluster, cache, proxy, addr, size):
    def prog(sim):
        return (yield from cache.get(addr, size, proxy))

    return run_proc(cluster, prog(cluster.sim))


class TestHostCache:
    def test_must_live_on_host(self, tiny_cluster):
        with pytest.raises(ValueError):
            host_gvmi_cache(tiny_cluster.proxy_ctx(0, 0))

    def test_miss_then_hit(self, tiny_cluster):
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxy_ctx(0, 0)
        cache = host_gvmi_cache(host)
        addr = host.space.alloc(4096)
        a = _host_cache_get(tiny_cluster, cache, proxy, addr, 4096)
        b = _host_cache_get(tiny_cluster, cache, proxy, addr, 4096)
        assert a is b
        assert (cache.hits, cache.misses) == (1, 1)
        assert tiny_cluster.metrics.get("gvmi.host_registrations") == 1

    def test_keyed_by_proxy_rank(self, small_cluster):
        """Same buffer toward two different proxies = two registrations
        (the GVMI-ID differs), exactly the paper's cache key argument."""
        host = small_cluster.rank_ctx(0)
        pa = small_cluster.proxy_ctx(0, 0)
        pb = small_cluster.proxy_ctx(0, 1)
        cache = host_gvmi_cache(host)
        addr = host.space.alloc(1024)
        _host_cache_get(small_cluster, cache, pa, addr, 1024)
        _host_cache_get(small_cluster, cache, pb, addr, 1024)
        assert cache.misses == 2
        assert len(cache) == 2

    def test_covering_range_is_a_hit(self, tiny_cluster):
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxy_ctx(0, 0)
        cache = host_gvmi_cache(host)
        addr = host.space.alloc(1 << 16)
        big = _host_cache_get(tiny_cluster, cache, proxy, addr, 1 << 16)
        small = _host_cache_get(tiny_cluster, cache, proxy, addr + 128, 1024)
        assert small is big and cache.hits == 1

    def test_invalidate(self, tiny_cluster):
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxy_ctx(0, 0)
        cache = host_gvmi_cache(host)
        addr = host.space.alloc(64)
        _host_cache_get(tiny_cluster, cache, proxy, addr, 64)
        assert cache.invalidate(addr, 64, proxy)
        _host_cache_get(tiny_cluster, cache, proxy, addr, 64)
        assert cache.misses == 2

    def test_check_invariants_clean(self, tiny_cluster):
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxy_ctx(0, 0)
        cache = host_gvmi_cache(host)
        for _ in range(20):
            addr = host.space.alloc(256)
            _host_cache_get(tiny_cluster, cache, proxy, addr, 256)
        assert len(cache._trees) == 1
        check_invariants(cache._trees[proxy.global_id])


class TestDpuCache:
    def _mkey(self, cluster, host, proxy, addr, size):
        def prog(sim):
            return (yield from host_gvmi_register(host, addr, size, gvmi_id_of(proxy)))

        return run_proc(cluster, prog(cluster.sim))

    def test_must_live_on_dpu(self, tiny_cluster):
        with pytest.raises(ValueError):
            dpu_gvmi_cache(tiny_cluster.rank_ctx(0))

    def test_miss_then_hit(self, tiny_cluster):
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxy_ctx(0, 0)
        addr = host.space.alloc(4096)
        mkey = self._mkey(tiny_cluster, host, proxy, addr, 4096)
        cache = dpu_gvmi_cache(proxy)

        def prog(sim):
            a = yield from cache.get(addr, 4096, 0, gvmi_id_of(proxy), mkey.key)
            b = yield from cache.get(addr, 4096, 0, gvmi_id_of(proxy), mkey.key)
            return a, b

        a, b = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert a is b
        assert (cache.hits, cache.misses) == (1, 1)
        assert tiny_cluster.metrics.get("gvmi.cross_registrations") == 1

    def test_stale_mkey_detected_and_reregistered(self, tiny_cluster):
        """The paper argues an (addr, size, rank) key can never alias a
        different mkey; we verify rather than assume, so a *forced*
        mismatch (fresh registration of the same buffer) is detected."""
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxy_ctx(0, 0)
        addr = host.space.alloc(2048)
        mkey1 = self._mkey(tiny_cluster, host, proxy, addr, 2048)
        mkey2 = self._mkey(tiny_cluster, host, proxy, addr, 2048)
        cache = dpu_gvmi_cache(proxy)

        def prog(sim):
            yield from cache.get(addr, 2048, 0, gvmi_id_of(proxy), mkey1.key)
            yield from cache.get(addr, 2048, 0, gvmi_id_of(proxy), mkey2.key)

        run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert cache.stale == 1
        assert cache.misses == 2

    def test_keyed_by_host_rank(self, small_cluster):
        proxy = small_cluster.proxy_ctx(0, 0)
        cache = dpu_gvmi_cache(proxy)
        entries = {}
        for rank in (0, 1):
            host = small_cluster.rank_ctx(rank)
            addr = host.space.alloc(512)
            mkey = self._mkey(small_cluster, host, proxy, addr, 512)
            entries[rank] = (addr, mkey)

        def prog(sim):
            for rank, (addr, mkey) in entries.items():
                yield from cache.get(addr, 512, rank, gvmi_id_of(proxy), mkey.key)

        run_proc(small_cluster, prog(small_cluster.sim))
        assert cache.misses == 2 and len(cache) == 2
        assert sorted(cache._trees) == [0, 1]  # one slot per host rank


@pytest.mark.parametrize("caching", [True, False])
def test_bus_cache_events_match_the_metrics(caching):
    """An observed run's trace counts every hit and miss its metrics do,
    also with ``gvmi_caching=False``, where every get is a miss."""
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
    bus = EventBus.attach(cl)
    fw = OffloadFramework(cl, gvmi_caching=caching)
    size = 4096

    def sender(sim):
        ep = fw.endpoint(0)
        addr = ep.ctx.space.alloc(size)
        for tag in range(3):
            req = yield from ep.send_offload(addr, size, dst=1, tag=tag)
            yield from ep.wait(req)

    def receiver(sim):
        ep = fw.endpoint(1)
        addr = ep.ctx.space.alloc(size)
        for tag in range(3):
            req = yield from ep.recv_offload(addr, size, src=0, tag=tag)
            yield from ep.wait(req)

    run_procs(cl, [sender(cl.sim), receiver(cl.sim)])
    for side in ("host", "dpu"):
        for kind in ("hit", "miss"):
            expected = cl.metrics.get(f"gvmi_cache.{side}.{kind}")
            assert bus.count("cache", kind, cache=f"gvmi.{side}") == expected
        assert cl.metrics.get(f"gvmi_cache.{side}.miss") == (1 if caching else 3)
