"""Unit tests for the host IB registration cache."""

from tests.helpers import run_proc
from repro.mpi import RegistrationCache


def _get(cluster, cache, addr, size):
    def prog(sim):
        return (yield from cache.get(addr, size))

    return run_proc(cluster, prog(cluster.sim))


def test_miss_then_hit(tiny_cluster):
    ctx = tiny_cluster.rank_ctx(0)
    cache = RegistrationCache(ctx)
    addr = ctx.space.alloc(4096)
    h1 = _get(tiny_cluster, cache, addr, 4096)
    h2 = _get(tiny_cluster, cache, addr, 4096)
    assert h1 is h2
    assert (cache.hits, cache.misses) == (1, 1)


def test_covering_registration_is_a_hit(tiny_cluster):
    """Production caches pin whole regions: a smaller interior range hits."""
    ctx = tiny_cluster.rank_ctx(0)
    cache = RegistrationCache(ctx)
    addr = ctx.space.alloc(1 << 20)
    big = _get(tiny_cluster, cache, addr, 1 << 20)
    small = _get(tiny_cluster, cache, addr + 4096, 4096)
    assert small is big
    assert cache.misses == 1 and cache.hits == 1


def test_non_covering_range_misses(tiny_cluster):
    ctx = tiny_cluster.rank_ctx(0)
    cache = RegistrationCache(ctx)
    addr = ctx.space.alloc(8192)
    _get(tiny_cluster, cache, addr, 4096)
    _get(tiny_cluster, cache, addr, 8192)  # extends past the first
    assert cache.misses == 2


def test_hit_is_much_cheaper_than_miss(tiny_cluster):
    ctx = tiny_cluster.rank_ctx(0)
    cache = RegistrationCache(ctx)
    addr = ctx.space.alloc(1 << 20)
    times = []

    def prog(sim):
        for _ in range(2):
            t0 = sim.now
            yield from cache.get(addr, 1 << 20)
            times.append(sim.now - t0)

    run_proc(tiny_cluster, prog(tiny_cluster.sim))
    assert times[1] < times[0] / 20


def test_invalidate(tiny_cluster):
    ctx = tiny_cluster.rank_ctx(0)
    cache = RegistrationCache(ctx)
    addr = ctx.space.alloc(64)
    _get(tiny_cluster, cache, addr, 64)
    assert cache.invalidate(addr, 64)
    assert not cache.invalidate(addr, 64)
    _get(tiny_cluster, cache, addr, 64)
    assert cache.misses == 2


def test_peek_does_not_charge_or_register(tiny_cluster):
    ctx = tiny_cluster.rank_ctx(0)
    cache = RegistrationCache(ctx)
    addr = ctx.space.alloc(64)
    assert cache.peek(addr, 64) is None
    _get(tiny_cluster, cache, addr, 64)
    assert cache.peek(addr, 64) is not None

