"""Property-based tests: the registration cache vs models and its oracle.

The paper's Section VII-B caches (and the host IB cache of Section
II-C) are one class, :class:`repro.mpi.regcache.RegistrationCache`.
Hypothesis drives random op sequences through it, running on a real
simulated process so lookup and registration costs are charged, and
checks every decision two ways:

* against a simulator-free set-of-intervals model: a cover cache's get
  is a **hit** iff some cached ``[base, base+length)`` covers the request;
* against the three classes it replaced (``tests/harness/
  regcache_reference.py``), through sequences with capacity evictions,
  frees, invalidations and a host range registered twice (a second mkey
  the DPU cache must find stale): the same hit / miss / evict / stale
  decisions, and the same returned entry whenever at most one cached
  entry covers the request.  The IB reference returns the least recently
  used of several covers, the single class the lowest ``(base,
  length)``; after such a lookup the two LRU orders may differ, so a
  bounded run is compared up to it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.harness import regcache_reference as ref
from tests.helpers import run_proc
from tests.test_offload_bst import check_invariants
from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld
from repro.mpi.regcache import RegistrationCache
from repro.offload.gvmi_cache import dpu_gvmi_cache, host_gvmi_cache
from repro.verbs.gvmi import gvmi_id_of, host_gvmi_register

# Small offset universe (into one allocated arena) so random ops
# actually collide and cover each other.
_OFFS = st.integers(0, 7).map(lambda i: i * 256)
_SIZES = st.sampled_from([64, 256, 512, 1024])
_ARENA = 8 * 256 + 1024
_CAPACITY = st.sampled_from([None, 1, 2, 3])


def _covered(model: dict, addr: int, size: int) -> bool:
    return any(base <= addr and addr + size <= base + length
               for base, length in model)


class _IntervalModel:
    """Reference: set of registered intervals with covering lookups."""

    def __init__(self):
        self.entries: set[tuple[int, int]] = set()

    def get(self, addr: int, size: int) -> bool:
        """True on hit; registers (addr, size) on miss."""
        if _covered(self.entries, addr, size):
            return True
        self.entries.add((addr, size))
        return False

    def invalidate(self, addr: int, size: int) -> bool:
        try:
            self.entries.remove((addr, size))
            return True
        except KeyError:
            return False


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["get", "get", "get", "invalidate"]),
              _OFFS, _SIZES),
    min_size=1, max_size=30,
))
def test_host_regcache_matches_interval_model(ops):
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
    ctx = MpiWorld(cl).runtime(0).ctx
    arena = ctx.space.alloc(_ARENA)
    ops = [(op, arena + off, size) for op, off, size in ops]
    cache = RegistrationCache(ctx, name="prop")
    model = _IntervalModel()

    def prog():
        decisions = []
        for op, addr, size in ops:
            if op == "get":
                before = cache.hits
                handle = yield from cache.get(addr, size)
                hit = cache.hits > before
                # the returned registration must cover the request
                assert handle.addr <= addr
                assert addr + size <= handle.addr + handle.size
                decisions.append(("get", hit))
            else:
                decisions.append(("invalidate", cache.invalidate(addr, size)))
        return decisions

    decisions = run_proc(cl, prog())
    expected = [("get", model.get(a, s)) if op == "get"
                else ("invalidate", model.invalidate(a, s))
                for op, a, s in ops]
    assert decisions == expected
    assert len(cache) == len(model.entries)
    assert cache.hits + cache.misses == sum(1 for op, *_ in ops if op == "get")


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(
    st.tuples(st.integers(0, 1), _OFFS, _SIZES),
    min_size=1, max_size=25,
))
def test_host_gvmi_cache_matches_array_of_interval_models(ops):
    """The host GVMI cache behaves as one interval model *per proxy*
    (requests under different GVMIs never alias)."""
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=2))
    ctx = MpiWorld(cl).runtime(0).ctx
    arena = ctx.space.alloc(_ARENA)
    ops = [(which, arena + off, size) for which, off, size in ops]
    cache = host_gvmi_cache(ctx)
    proxies = [cl.proxies[0], cl.proxies[1]]
    models = [_IntervalModel(), _IntervalModel()]

    def prog():
        decisions = []
        for which, addr, size in ops:
            proxy = proxies[which]
            before = cache.hits
            info = yield from cache.get(addr, size, proxy)
            assert info.gvmi_id == gvmi_id_of(proxy)
            decisions.append(cache.hits > before)
        return decisions

    decisions = run_proc(cl, prog())
    expected = [models[which].get(addr, size) for which, addr, size in ops]
    assert decisions == expected
    assert len(cache) == sum(len(m.entries) for m in models)
    for root in cache._trees.values():
        check_invariants(root)


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(st.tuples(_OFFS, _SIZES), min_size=1, max_size=20),
       drop=st.integers(0, 19))
def test_regcache_invalidate_then_reregister(ops, drop):
    """Invalidating an entry forces exactly the misses the model predicts
    when the same sequence replays."""
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
    ctx = MpiWorld(cl).runtime(0).ctx
    arena = ctx.space.alloc(_ARENA)
    ops = [(arena + off, size) for off, size in ops]
    cache = RegistrationCache(ctx, name="prop2")
    model = _IntervalModel()

    victim = ops[drop % len(ops)]

    def prog():
        for addr, size in ops:
            yield from cache.get(addr, size)
        cache.invalidate(*victim)
        decisions = []
        for addr, size in ops:
            before = cache.hits
            yield from cache.get(addr, size)
            decisions.append(cache.hits > before)
        return decisions

    decisions = run_proc(cl, prog())
    for addr, size in ops:
        model.get(addr, size)
    model.invalidate(*victim)
    expected = [model.get(addr, size) for addr, size in ops]
    assert decisions == expected


# -- the single class vs the three it replaced --------------------------------

# A narrower universe than the model tests': repeats, covers and
# evictions of a recently hit entry are all common.
_FEW_OFFS = st.integers(0, 3).map(lambda i: i * 256)
_FEW_SIZES = st.sampled_from([256, 1024])
#: ``(op, peer, arena, offset, size)``: ``get`` / ``invalidate`` a range of
#: one of two arenas for peer 0 or 1, or ``free`` an arena (it is
#: allocated again at once, so later ops address live memory).
_OPS = st.lists(
    st.tuples(st.sampled_from(["get"] * 6 + ["invalidate", "free"]),
              st.integers(0, 1), st.integers(0, 1), _FEW_OFFS, _FEW_SIZES),
    min_size=1, max_size=40,
)


def _run(cache_of, get, invalidate, ops, ambiguous_of=None):
    """Drive one fresh machine's cache through ``ops``; one record per op.

    A get's record is ``(decision counts, returned range, ambiguous)``,
    where ``ambiguous`` means two or more cached entries covered the
    request and none matched it exactly.
    """
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=2))
    ctx = MpiWorld(cl).runtime(0).ctx
    cache = cache_of(ctx)
    arenas = [ctx.space.alloc(_ARENA) for _ in range(2)]

    def counts():
        return (cache.hits, cache.misses, cache.evictions)

    def prog():
        records = []
        for op, peer, which, off, size in ops:
            addr = arenas[which] + off
            if op == "free":
                ctx.free(arenas[which])
                arenas[which] = ctx.space.alloc(_ARENA)
                records.append(("free", _entries(cache)))
            elif op == "invalidate":
                records.append(("invalidate", invalidate(cache, cl, peer, addr, size)))
            else:
                ambiguous = ambiguous_of(cache, cl, peer, addr, size) if ambiguous_of else False
                before = counts()
                entry = yield from get(cache, cl, peer, addr, size)
                delta = tuple(b - a for a, b in zip(before, counts()))
                records.append(("get", delta, (entry.addr - arenas[which], entry.size),
                                ambiguous))
        return records

    return run_proc(cl, prog()), cache


def _assert_same(new, old, bounded: bool) -> None:
    assert len(new) == len(old)
    for mine, theirs in zip(new, old):
        if mine[0] != "get":
            assert mine == theirs
            continue
        assert mine[1] == theirs[1]  # hit / miss / evict
        if mine[3]:
            if bounded:
                return
            continue
        assert mine[2] == theirs[2]  # the returned entry


def _new_ambiguous(cache, _cl, peer, addr, size):
    slot = peer if cache._slot_of is None else cache._slot_of(peer)
    if cache.peek(addr, size, peer) is not None:
        return False
    covers = [e for e in _in_order(cache._trees.get(slot))
              if e.addr <= addr and addr + size <= e.addr + e.size]
    return len(covers) > 1


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, capacity=_CAPACITY)
def test_ib_cache_matches_reference(ops, capacity):
    ops = [(op, None, which, off, size) for op, _peer, which, off, size in ops]

    def get(cache, _cl, _peer, addr, size):
        return (yield from cache.get(addr, size))

    def invalidate(cache, _cl, _peer, addr, size):
        return cache.invalidate(addr, size)

    new, _ = _run(lambda ctx: RegistrationCache(ctx, "fuzz", capacity), get,
                  invalidate, ops, _new_ambiguous)
    old, _ = _run(lambda ctx: ref.RegistrationCache(ctx, "fuzz", capacity), get,
                  invalidate, ops)
    _assert_same(new, old, capacity is not None)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, capacity=_CAPACITY)
def test_host_gvmi_cache_matches_reference(ops, capacity):
    """Same rule on both sides (lowest covering key): every record agrees."""

    def new_get(cache, cl, peer, addr, size):
        return (yield from cache.get(addr, size, cl.proxies[peer]))

    def old_get(cache, cl, peer, addr, size):
        proxy = cl.proxies[peer]
        return (yield from cache.get(proxy, gvmi_id_of(proxy), addr, size))

    def new_invalidate(cache, cl, peer, addr, size):
        return cache.invalidate(addr, size, cl.proxies[peer])

    def old_invalidate(cache, cl, peer, addr, size):
        return cache.invalidate(cl.proxies[peer].global_id, addr, size)

    new, cache = _run(lambda ctx: host_gvmi_cache(ctx, capacity=capacity), new_get,
                      new_invalidate, ops)
    old, _ = _run(lambda ctx: ref.HostGvmiCache(ctx, capacity=capacity), old_get,
                  old_invalidate, ops)
    assert new == old
    for root in cache._trees.values():
        check_invariants(root)


#: ``(op, host rank, offset, size, mkey variant)``: a DPU get of a range
#: host ``rank`` registered, under its first or second mkey, or an
#: invalidation of that range.
_DPU_OPS = st.lists(
    st.tuples(st.sampled_from(["get"] * 6 + ["invalidate"]),
              st.integers(0, 1), _FEW_OFFS, _FEW_SIZES, st.integers(0, 1)),
    min_size=1, max_size=40,
)


def _run_dpu(cache_of, get, invalidate, ops):
    cl = Cluster(ClusterSpec(nodes=1, ppn=2, proxies_per_dpu=1))
    proxy = cl.proxies[0]
    gvmi = gvmi_id_of(proxy)
    world = MpiWorld(cl)
    hosts = [world.runtime(r).ctx for r in range(2)]
    arenas = [host.space.alloc(_ARENA) for host in hosts]
    cache = cache_of(proxy)
    mkeys: dict = {}

    def prog():
        records = []
        for op, rank, off, size, variant in ops:
            addr = arenas[rank] + off
            if op == "invalidate":
                records.append(("invalidate", invalidate(cache, rank, addr, size)))
                continue
            key = (rank, off, size, variant)
            if key not in mkeys:
                info = yield from host_gvmi_register(hosts[rank], addr, size, gvmi)
                mkeys[key] = info.key
            before = (cache.hits, cache.misses, cache.evictions, _stale(cache))
            entry = yield from get(cache, rank, gvmi, mkeys[key], addr, size)
            after = (cache.hits, cache.misses, cache.evictions, _stale(cache))
            assert entry.parent_mkey == mkeys[key]
            records.append(("get", tuple(b - a for a, b in zip(before, after)),
                            (entry.addr - arenas[rank], entry.size)))
        return records

    return run_proc(cl, prog())


def _entries(cache) -> int:
    if isinstance(cache, (ref.HostGvmiCache, ref.DpuGvmiCache)):
        return cache.entries
    return len(cache)


def _stale(cache) -> int:
    if isinstance(cache, RegistrationCache):
        return cache.stale
    return cache.stale_detected


@settings(max_examples=60, deadline=None)
@given(ops=_DPU_OPS, capacity=_CAPACITY)
def test_dpu_gvmi_cache_matches_reference(ops, capacity):
    """Exact match plus the mkey check: hits, misses, evictions and stale
    detections agree with the old DPU cache on every op."""

    def new_get(cache, rank, gvmi, mkey, addr, size):
        return (yield from cache.get(addr, size, rank, gvmi, mkey))

    def old_get(cache, rank, gvmi, mkey, addr, size):
        return (yield from cache.get(rank, gvmi, mkey, addr, size))

    new = _run_dpu(lambda ctx: dpu_gvmi_cache(ctx, capacity=capacity), new_get,
                   lambda cache, rank, addr, size: cache.invalidate(addr, size, rank), ops)
    old = _run_dpu(lambda ctx: ref.DpuGvmiCache(ctx, capacity=capacity), old_get,
                   lambda cache, rank, addr, size: cache.invalidate(rank, addr, size), ops)
    assert new == old


# -- the cases a record-as-node layout can break ------------------------------
#: ``(cache, capacity, ops)`` in :func:`_run`'s op format (``peer`` picks
#: the host GVMI cache's slot; the IB cache has one).
_NODE_CASES = {
    # One (addr, size) cached under two slots: two records, two trees.
    "same_range_two_slots": ("gvmi", None, [
        ("get", 0, 0, 0, 256), ("get", 1, 0, 0, 256), ("get", 0, 0, 0, 256),
        ("get", 1, 0, 0, 256), ("invalidate", 0, 0, 0, 256), ("get", 1, 0, 0, 256),
        ("get", 0, 0, 0, 256), ("get", 0, 0, 0, 256)]),
    # The root (256) has two children; invalidating it moves its successor
    # record into its place.
    "remove_interior_node": ("ib", None, [
        ("get", 0, 0, 256, 256), ("get", 0, 0, 0, 256), ("get", 0, 0, 512, 256),
        ("get", 0, 0, 768, 256), ("invalidate", 0, 0, 256, 256),
        ("get", 0, 0, 0, 256), ("get", 0, 0, 512, 256), ("get", 0, 0, 768, 256),
        ("get", 0, 0, 256, 256)]),
    # The oldest entry is that interior root: the capacity eviction moves
    # the successor record.
    "evict_interior_node": ("ib", 3, [
        ("get", 0, 0, 256, 256), ("get", 0, 0, 0, 256), ("get", 0, 0, 512, 256),
        ("get", 0, 0, 768, 256), ("get", 0, 0, 0, 256), ("get", 0, 0, 512, 256),
        ("get", 0, 0, 256, 256)]),
    # A free over entries of both slots drops them all, and no other.
    "free_spans_slots": ("gvmi", None, [
        ("get", 0, 0, 0, 256), ("get", 1, 0, 256, 1024), ("get", 1, 1, 0, 256),
        ("get", 0, 1, 512, 256), ("free", 0, 0, 0, 256), ("get", 0, 0, 0, 256),
        ("get", 1, 0, 256, 1024), ("get", 1, 1, 0, 256), ("get", 0, 1, 512, 256)]),
    # A range served by a cover is no entry of its own: invalidating it
    # drops nothing; invalidating the cover drops it.
    "invalidate_cover_hit": ("ib", None, [
        ("get", 0, 0, 0, 1024), ("get", 0, 0, 256, 256), ("invalidate", 0, 0, 256, 256),
        ("get", 0, 0, 256, 256), ("invalidate", 0, 0, 0, 1024), ("get", 0, 0, 256, 256),
        ("get", 0, 0, 0, 1024)]),
}


def _gvmi_pair():
    def new_get(cache, cl, peer, addr, size):
        return (yield from cache.get(addr, size, cl.proxies[peer]))

    def old_get(cache, cl, peer, addr, size):
        proxy = cl.proxies[peer]
        return (yield from cache.get(proxy, gvmi_id_of(proxy), addr, size))

    return ((lambda capacity: lambda ctx: host_gvmi_cache(ctx, capacity=capacity),
             new_get, lambda cache, cl, peer, addr, size:
             cache.invalidate(addr, size, cl.proxies[peer])),
            (lambda capacity: lambda ctx: ref.HostGvmiCache(ctx, capacity=capacity),
             old_get, lambda cache, cl, peer, addr, size:
             cache.invalidate(cl.proxies[peer].global_id, addr, size)))


def _ib_pair():
    def get(cache, _cl, _peer, addr, size):
        return (yield from cache.get(addr, size))

    def invalidate(cache, _cl, _peer, addr, size):
        return cache.invalidate(addr, size)

    return ((lambda capacity: lambda ctx: RegistrationCache(ctx, "case", capacity),
             get, invalidate),
            (lambda capacity: lambda ctx: ref.RegistrationCache(ctx, "case", capacity),
             get, invalidate))


@pytest.mark.parametrize("case", _NODE_CASES)
def test_record_node_cases_match_reference(case):
    """Each case decides every op as the predecessor classes did, and
    leaves well-formed trees holding exactly the cached records."""
    kind, capacity, ops = _NODE_CASES[case]
    (new_of, new_get, new_inv), (old_of, old_get, old_inv) = (
        _gvmi_pair() if kind == "gvmi" else _ib_pair())
    new, cache = _run(new_of(capacity), new_get, new_inv, ops)
    old, old_cache = _run(old_of(capacity), old_get, old_inv, ops)
    assert new == old
    filed = []
    for slot, root in cache._trees.items():
        check_invariants(root)
        filed += [(id(e), slot) for e in _in_order(root)]
    assert len(filed) == _entries(old_cache)
    # Only a bounded cache keeps an LRU order, and it files exactly them.
    if capacity is None:
        assert cache._lru is None
    else:
        assert sorted(filed) == sorted((id(e), s) for e, s in cache._lru.items())


def _in_order(node) -> list:
    return [] if node is None else _in_order(node.left) + [node] + _in_order(node.right)
