"""Unit + property tests for the registration caches' per-slot tree.

A slot of :class:`repro.mpi.regcache.RegistrationCache` is the root of
an AVL tree of the slot's ``(slot, base, length)`` keys whose nodes
carry their subtree's largest end (``base + length``).  :func:`check_invariants`
verifies BST order, AVL balance, stored heights and stored ends; the
other cache tests use it too.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import run_proc
from repro.mpi import regcache
from repro.mpi.regcache import RegistrationCache, _cover, _insert, _remove


def check_invariants(node, lo=None, hi=None) -> int:
    """Raise AssertionError on a broken order, balance, height or end;
    returns the subtree's height."""
    if node is None:
        return 0
    if lo is not None:
        assert lo < node.key, f"BST order violated at {node.key}"
    if hi is not None:
        assert node.key < hi, f"BST order violated at {node.key}"
    lh = check_invariants(node.left, lo, node.key)
    rh = check_invariants(node.right, node.key, hi)
    assert abs(lh - rh) <= 1, f"AVL balance violated at {node.key}"
    assert node.height == 1 + max(lh, rh), f"stale height at {node.key}"
    ends = [node.key[1] + node.key[2]] + [c.end for c in (node.left, node.right) if c]
    assert node.end == max(ends), f"stale subtree end at {node.key}"
    return node.height


def keys(node) -> list:
    """In-order keys."""
    return [] if node is None else keys(node.left) + [node.key] + keys(node.right)


def path_length(node, key) -> int:
    """Nodes a search for ``key`` compares against."""
    depth = 0
    while node is not None:
        depth += 1
        if key == node.key:
            break
        node = node.left if key < node.key else node.right
    return depth


def K(base, length):
    """A key of slot 0."""
    return (0, base, length)


def build(keys_):
    root = None
    for key in keys_:
        root = _insert(root, key)
    return root


def leftmost_cover(keys_, addr, end):
    covers = sorted(k for k in keys_ if k[1] <= addr and end <= k[1] + k[2])
    return covers[0] if covers else None


class TestBasics:
    def test_empty(self):
        assert keys(None) == []
        assert _cover(None, 0x1000, 0x1040) is None
        assert _remove(None, K(1, 2)) is None

    def test_insert_find(self):
        root = build([K(0x1000, 64)])
        assert keys(root) == [K(0x1000, 64)]
        assert root.end == 0x1040
        assert _cover(root, 0x1000, 0x1040).key == K(0x1000, 64)

    def test_overwrite(self):
        """Inserting a present key leaves one node."""
        root = build([K(1, 1), K(1, 1)])
        assert keys(root) == [K(1, 1)]

    def test_same_addr_different_size_is_distinct(self):
        root = build([K(0x1000, 64), K(0x1000, 128)])
        assert keys(root) == [K(0x1000, 64), K(0x1000, 128)]
        assert _cover(root, 0x1000, 0x1040).key == K(0x1000, 64)
        assert _cover(root, 0x1000, 0x1080).key == K(0x1000, 128)

    def test_remove(self):
        root = _remove(build([K(1, 1)]), K(1, 1))
        assert root is None
        root = build([K(1, 1), K(2, 1)])
        assert keys(_remove(root, K(3, 1))) == [K(1, 1), K(2, 1)]

    def test_items_sorted(self):
        root = build([K(5, 0), K(1, 0), K(3, 0), K(2, 0), K(4, 0)])
        assert keys(root) == [K(1, 0), K(2, 0), K(3, 0), K(4, 0), K(5, 0)]

    def test_sequential_insert_stays_balanced(self):
        n = 1024
        root = build(K(i, 1) for i in range(n))
        check_invariants(root)
        # AVL height bound: ~1.44 log2(n)
        assert root.height <= 1.45 * (n.bit_length()) + 2

    def test_depth_of_found_and_missing(self):
        root = build(K(i, 0) for i in range(15))
        assert 1 <= path_length(root, K(7, 0)) <= root.height
        assert path_length(root, K(99, 0)) <= root.height


_KEYS = st.tuples(st.just(0), st.integers(0, 40), st.integers(0, 12))


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["insert", "remove"]), _KEYS),
                    max_size=120))
def test_avl_matches_dict_model(ops):
    """Random insert/remove interleavings behave exactly like a set and
    never violate order, balance, heights or subtree ends."""
    root, model = None, set()
    for op, key in ops:
        if op == "insert":
            root = _insert(root, key)
            model.add(key)
        else:
            root = _remove(root, key)
            model.discard(key)
        check_invariants(root)
    assert keys(root) == sorted(model)


@settings(max_examples=200, deadline=None)
@given(entries=st.sets(_KEYS, max_size=60), addr=st.integers(0, 50),
       size=st.integers(0, 12))
def test_cover_is_the_lowest_covering_key(entries, addr, size):
    node = _cover(build(entries), addr, addr + size)
    assert (node and node.key) == leftmost_cover(entries, addr, addr + size)


@settings(max_examples=50, deadline=None)
@given(keys_=st.sets(st.integers(0, 10_000), min_size=1, max_size=300))
def test_avl_height_is_logarithmic(keys_):
    root = build(K(k, 0) for k in keys_)
    check_invariants(root)
    assert root.height <= 1.45 * math.log2(len(keys_) + 2) + 2


class _CountedNode(regcache._Node):
    """A tree node that records every node whose fields are read."""

    __slots__ = ()
    visited = None

    def __getattribute__(self, name):
        seen = _CountedNode.visited
        if seen is not None:
            seen.add(id(self))
        return object.__getattribute__(self, name)


def test_covering_query_visits_a_logarithmic_number_of_nodes(tiny_cluster, monkeypatch):
    """At n = 1 024 entries in one slot, a covering get reads at most
    2 * ceil(log2 n) + 2 nodes: one root-to-leaf path and its left
    children, never a scan of the slot."""
    monkeypatch.setattr(regcache, "_Node", _CountedNode)
    ctx = tiny_cluster.rank_ctx(0)
    n = 1024
    cache = RegistrationCache(ctx, capacity=n)
    base = ctx.space.alloc(n * 4096)
    targets = [0, 1, n // 3, n // 2, n - 1]

    def prog(sim):
        for i in range(n):
            yield from cache.get(base + i * 4096, 4096)
        visits = []
        for i in targets:
            _CountedNode.visited = set()
            entry = yield from cache.get(base + i * 4096 + 64, 1024)
            visits.append(len(_CountedNode.visited))
            _CountedNode.visited = None
            assert (entry.addr, entry.size) == (base + i * 4096, 4096)
        return visits

    visits = run_proc(tiny_cluster, prog(tiny_cluster.sim))
    assert cache.hits == len(targets) and cache.misses == n
    budget = 2 * math.ceil(math.log2(n)) + 2
    assert max(visits) <= budget, visits
    check_invariants(cache._trees[None])
