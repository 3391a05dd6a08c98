"""Unit + property tests for the registration caches' per-slot tree.

A slot of :class:`repro.mpi.regcache.RegistrationCache` is the root of
an AVL tree of the slot's registration records, ordered by ``(addr,
size)``; each record is its own node and carries ``far``, the record of
its subtree whose range ends last (None when that is the node itself).
:func:`check_invariants` verifies BST order, AVL balance, stored heights
and stored ``far`` records, and that no record is reachable twice; the
other cache tests use it too.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import run_proc
from repro.mpi.regcache import RegistrationCache, _cover, _find, _insert, _remove
from repro.verbs import mr


class R:
    """A registration record as the tree sees it: a range plus the
    slots the tree writes."""

    __slots__ = ("addr", "size") + mr._CACHE_SLOTS

    def __init__(self, addr: int, size: int):
        self.addr, self.size = addr, size

    def __repr__(self) -> str:
        return f"R({self.addr}, {self.size})"


def _key(node) -> tuple:
    return node.addr, node.size


def _end(node) -> int:
    top = node.far or node
    return top.addr + top.size


def check_invariants(node, lo=None, hi=None, seen=None) -> int:
    """Raise AssertionError on a broken order, balance, height or
    ``far``, or on a record reachable twice; returns the subtree's
    height."""
    if node is None:
        return 0
    seen = set() if seen is None else seen
    assert id(node) not in seen, f"{node} reachable twice"
    seen.add(id(node))
    if lo is not None:
        assert lo < _key(node), f"BST order violated at {node}"
    if hi is not None:
        assert _key(node) < hi, f"BST order violated at {node}"
    lh = check_invariants(node.left, lo, _key(node), seen)
    rh = check_invariants(node.right, _key(node), hi, seen)
    assert abs(lh - rh) <= 1, f"AVL balance violated at {node}"
    assert node.height == 1 + max(lh, rh), f"stale height at {node}"
    assert node.far is not node, f"{node} is its own far"
    ends = [node.addr + node.size] + [_end(c) for c in (node.left, node.right) if c]
    assert _end(node) == max(ends), f"stale far at {node}"
    return node.height


def keys(node) -> list:
    """In-order ``(addr, size)`` keys."""
    return [] if node is None else keys(node.left) + [_key(node)] + keys(node.right)


def path_length(node, key) -> int:
    """Nodes a search for ``key`` compares against."""
    depth = 0
    while node is not None:
        depth += 1
        if key == _key(node):
            break
        node = node.left if key < _key(node) else node.right
    return depth


def build(records):
    root = None
    for rec in records:
        root = _insert(root, rec)
    return root


def leftmost_cover(keys_, addr, end):
    covers = sorted(k for k in keys_ if k[0] <= addr and end <= k[0] + k[1])
    return covers[0] if covers else None


class TestBasics:
    def test_empty(self):
        assert keys(None) == []
        assert _cover(None, 0x1000, 0x1040) is None
        assert _find(None, 0x1000, 64) is None
        assert _remove(None, R(1, 2)) is None

    def test_insert_find(self):
        rec = R(0x1000, 64)
        root = build([rec])
        assert root is rec and keys(root) == [(0x1000, 64)]
        assert rec.far is None and _end(root) == 0x1040
        assert _cover(root, 0x1000, 0x1040) is rec
        assert _find(root, 0x1000, 64) is rec
        assert _find(root, 0x1000, 63) is None

    def test_overwrite(self):
        """Inserting a present key leaves one node: the first record."""
        first = R(1, 1)
        root = build([first, R(1, 1)])
        assert keys(root) == [(1, 1)] and root is first

    def test_same_addr_different_size_is_distinct(self):
        root = build([R(0x1000, 64), R(0x1000, 128)])
        assert keys(root) == [(0x1000, 64), (0x1000, 128)]
        assert _key(_cover(root, 0x1000, 0x1040)) == (0x1000, 64)
        assert _key(_cover(root, 0x1000, 0x1080)) == (0x1000, 128)

    def test_remove(self):
        rec = R(1, 1)
        assert _remove(build([rec]), rec) is None
        root = build([R(1, 1), R(2, 1)])
        assert keys(_remove(root, R(3, 1))) == [(1, 1), (2, 1)]

    def test_items_sorted(self):
        root = build([R(5, 0), R(1, 0), R(3, 0), R(2, 0), R(4, 0)])
        assert keys(root) == [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]

    def test_sequential_insert_stays_balanced(self):
        n = 1024
        root = build(R(i, 1) for i in range(n))
        check_invariants(root)
        # AVL height bound: ~1.44 log2(n)
        assert root.height <= 1.45 * (n.bit_length()) + 2

    def test_depth_of_found_and_missing(self):
        root = build(R(i, 0) for i in range(15))
        assert 1 <= path_length(root, (7, 0)) <= root.height
        assert path_length(root, (99, 0)) <= root.height


def test_removing_an_interior_node_moves_its_successor_record():
    """A node with two children is replaced by its in-order successor
    record itself; the removed record keeps no link into the tree."""
    records = [R(i, 1) for i in range(7)]
    root = build(records)
    victim = root
    assert victim.left is not None and victim.right is not None
    successor = victim.right
    while successor.left is not None:
        successor = successor.left
    root = _remove(root, victim)
    check_invariants(root)
    assert root is successor
    assert keys(root) == [_key(r) for r in records if r is not victim]
    assert (victim.left, victim.right, victim.far) == (None, None, None)


_KEYS = st.tuples(st.integers(0, 40), st.integers(0, 12))


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["insert", "remove"]), _KEYS),
                    max_size=120))
def test_avl_matches_dict_model(ops):
    """Random insert/remove interleavings behave exactly like a set and
    never violate order, balance, heights or ``far``."""
    root, model = None, {}
    for op, key in ops:
        if op == "insert":
            rec = R(*key)
            root = _insert(root, rec)
            model.setdefault(key, rec)
        else:
            root = _remove(root, model.pop(key, R(*key)))
        check_invariants(root)
        assert all(_find(root, *k) is rec for k, rec in model.items())
    assert keys(root) == sorted(model)


@settings(max_examples=200, deadline=None)
@given(entries=st.sets(_KEYS, max_size=60), addr=st.integers(0, 50),
       size=st.integers(0, 12))
def test_cover_is_the_lowest_covering_key(entries, addr, size):
    node = _cover(build(R(*k) for k in entries), addr, addr + size)
    assert (node and _key(node)) == leftmost_cover(entries, addr, addr + size)


@settings(max_examples=50, deadline=None)
@given(keys_=st.sets(st.integers(0, 10_000), min_size=1, max_size=300))
def test_avl_height_is_logarithmic(keys_):
    root = build(R(k, 0) for k in keys_)
    check_invariants(root)
    assert root.height <= 1.45 * math.log2(len(keys_) + 2) + 2


class _CountedHandle(mr.MemoryRegionHandle):
    """A registration record that records every record whose tree slots
    are read: the nodes a walk steps on or peeks into.  (A peek also
    reads the range of the peeked subtree's ``far`` record, one more
    record per peek, which the budget below leaves out as it left out
    the subtree-end int a node used to hold.)"""

    __slots__ = ()
    visited = None

    def __getattribute__(self, name):
        seen = _CountedHandle.visited
        if seen is not None and name in mr._CACHE_SLOTS:
            seen.add(id(self))
        return object.__getattribute__(self, name)


def test_covering_query_visits_a_logarithmic_number_of_nodes(tiny_cluster, monkeypatch):
    """At n = 1 024 entries in one slot, a covering get reads at most
    2 * ceil(log2 n) + 2 records: the covering walk (one root-to-leaf
    path and its left children) and the exact-match search, never a scan
    of the slot."""
    monkeypatch.setattr(mr, "MemoryRegionHandle", _CountedHandle)
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
            _CountedHandle.visited = set()
            entry = yield from cache.get(base + i * 4096 + 64, 1024)
            visits.append(len(_CountedHandle.visited))
            _CountedHandle.visited = None
            assert (entry.addr, entry.size) == (base + i * 4096, 4096)
        return visits

    visits = run_proc(tiny_cluster, prog(tiny_cluster.sim))
    assert cache.hits == len(targets) and cache.misses == n
    budget = 2 * math.ceil(math.log2(n)) + 2
    assert max(visits) <= budget, visits
    check_invariants(cache._trees[None])
