"""The registration cache (paper Sections II-C and VII-B), written once.

Standard MPI libraries amortise ``ibv_reg_mr`` with a cache keyed by
buffer address and size (Section II-C); the offload framework keeps the
same structure on both sides of the wire for GVMI registrations: "an
array of Binary Search Trees ... indexed by remote rank ... and by
memory address" (Section VII-B).  All three are :class:`RegistrationCache`
instances.  What differs between them is constructor data:

* the slot function, mapping a request's peer to its array slot (the IB
  cache has one slot; :mod:`repro.offload.gvmi_cache` indexes the host
  side by mapped proxy and the DPU side by host source rank);
* the match rule: *cover* -- a cached range covering the request is a
  hit, as production caches pin whole regions (HPL's shrinking panels
  keep hitting the first, largest panel) -- or, given a ``valid``
  predicate, *exact* match of an entry that must still pass ``valid``
  (a failure counts ``stale``);
* the ``register`` / ``revoke`` callables;
* the metric prefix and the bus ``cache=`` label.

A cached registration is one record: the :mod:`repro.verbs.mr` record
itself is a node of its slot's AVL tree, ordered by ``(addr, size)``,
which answers the exact and the covering lookups, and, in a cache with
a capacity, the LRU entry (one dict, record -> slot, in LRU order; an
unbounded cache never evicts, so it keeps no order).  A node keeps its
child links, its height and ``far``, the record of its subtree ending
last (None: itself), so a covering query walks one root-to-leaf path,
and no node points up.  An untouched slot holds nothing.  The winner is
the exact match, else the cover with the lowest ``(addr, size)``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.hw.node import ProcessContext
from repro.verbs.mr import dereg_mr, reg_mr

__all__ = ["RegistrationCache", "lru_get", "lru_put"]


def lru_get(entries: dict, key, capacity: Optional[int]):
    """``entries[key]``, or None; refreshed to newest under a ``capacity``
    (unbounded, nothing is evicted and the order is never read)."""
    if capacity is None:
        return entries.get(key)
    value = entries.pop(key, None)
    if value is not None:
        entries[key] = value
    return value


def lru_put(entries: dict, key, value, capacity: Optional[int],
            on_evict: Callable) -> None:
    """File ``key`` as newest; hand the oldest to ``on_evict(key, value)``
    while over ``capacity`` (None: unbounded)."""
    entries.pop(key, None)
    entries[key] = value
    if capacity is not None:
        while len(entries) > capacity:
            oldest = next(iter(entries))
            on_evict(oldest, entries.pop(oldest))


def _register_mr(ctx: ProcessContext, addr: int, size: int, _peer):
    return reg_mr(ctx, addr, size)


class RegistrationCache:
    """``(peer, addr, size)`` -> registration, registering on a miss.

    With a ``capacity`` (entry count over all slots; default the
    ``capacity_param`` field of the machine's params) the
    least-recently-used entry is evicted and revoked on overflow.
    A cover cache holds registrations of its own process's memory and
    drops the entries over a freed range (without revoking: the free
    protocol already has).  A ``valid`` cache holds registrations of a
    peer's memory, cannot see those frees, and checks each hit instead.
    ``enabled=False`` is an ablation: every get registers afresh.
    """

    __slots__ = ("ctx", "metric", "label", "capacity", "enabled", "hits", "misses",
                 "evictions", "stale", "_register", "_revoke", "_slot_of", "_valid",
                 "_lru", "_trees")

    def __init__(
        self,
        ctx: ProcessContext,
        name: str = "ib",
        capacity: Optional[int] = None,
        *,
        metric: Optional[str] = None,
        label: Optional[str] = None,
        capacity_param: str = "ib_cache_capacity",
        register: Callable = _register_mr,
        revoke: Callable = dereg_mr,
        slot_of: Optional[Callable] = None,
        valid: Optional[Callable] = None,
        enabled: bool = True,
    ):
        self.ctx = ctx
        self.metric = metric or f"regcache.{name}"
        self.label = label or self.metric
        self.capacity = (getattr(ctx.cluster.params, capacity_param)
                         if capacity is None else capacity)
        self.enabled = enabled
        self._register = register
        self._revoke = revoke
        self._slot_of = slot_of
        self._valid = valid
        #: Registration record -> its slot, oldest first; None in an
        #: unbounded cache.
        self._lru: Optional[dict] = None if self.capacity is None else {}
        #: Slot -> root of its tree of records.
        self._trees: dict = {}
        self.hits = self.misses = self.evictions = self.stale = 0
        if valid is None:
            ctx.free_listeners.append(self._on_free)

    def __len__(self) -> int:
        return sum(1 for root in self._trees.values() for _ in _records(root))

    def peek(self, addr: int, size: int, peer=None):
        """The exact entry, without charging or refreshing it."""
        slot = peer if self._slot_of is None else self._slot_of(peer)
        return _find(self._trees.get(slot), addr, size)

    def get(self, addr: int, size: int, peer=None, *extra):
        """A registration of [addr, addr+size) for ``peer``.

        A generator: ``entry = yield from cache.get(addr, size, ...)``.
        An enabled cache charges the lookup cost, and a miss the
        registration cost; ``peer`` and ``extra`` go to ``register`` and
        ``valid``.
        """
        ctx = self.ctx
        slot = peer if self._slot_of is None else self._slot_of(peer)
        if self.enabled:
            params = ctx.cluster.params
            yield ctx.consume(params.host_cache_lookup if ctx.kind == "host"
                              else params.dpu_cache_lookup)
            root = self._trees.get(slot)
            if self._valid is not None:
                entry = _find(root, addr, size)
            else:
                # An exact match is the lowest cover unless a cover
                # starting below ``addr`` wins: only then look it up.
                entry = _cover(root, addr, addr + size)
                if entry is not None and entry.addr != addr:
                    entry = _find(root, addr, size) or entry
            if entry is not None:
                if self._valid is None or self._valid(entry, peer, *extra):
                    if self._lru is not None:
                        self._lru[entry] = self._lru.pop(entry)
                    self.hits += 1
                    self._emit("hit", size)
                    return entry
                # Exact match only: ``entry`` is the stale one.
                self.stale += 1
                self._emit("stale", size)
                self._drop(entry, slot)
        self.misses += 1
        self._emit("miss", size)
        entry = yield from self._register(ctx, addr, size, peer, *extra)
        if self.enabled:
            self._trees[slot] = _insert(self._trees.get(slot), entry)
            if self._lru is not None:
                lru_put(self._lru, entry, slot, self.capacity, self._evict)
        return entry

    def _emit(self, kind: str, size: int) -> None:
        cluster = self.ctx.cluster
        cluster.metrics.add(f"{self.metric}.{kind}")
        if cluster.bus is not None:
            cluster.bus.emit("cache", kind, self.ctx.trace_name,
                             cache=self.label, size=size)

    def _evict(self, entry, slot) -> None:
        self._untree(entry, slot)
        self._revoke(self.ctx, entry)
        self.evictions += 1
        self._emit("evict", entry.size)

    def _drop(self, entry, slot) -> None:
        if self._lru is not None:
            del self._lru[entry]
        self._untree(entry, slot)

    def _untree(self, entry, slot) -> None:
        root = _remove(self._trees.pop(slot), entry)
        if root is not None:
            self._trees[slot] = root

    def invalidate(self, addr: int, size: int, peer=None) -> bool:
        """Drop one entry, without revoking it; True if it existed."""
        entry = self.peek(addr, size, peer)
        if entry is not None:
            self._drop(entry, peer if self._slot_of is None else self._slot_of(peer))
        return entry is not None

    def _on_free(self, addr: int, size: int) -> None:
        end = addr + size
        for slot, root in list(self._trees.items()):
            for entry in [e for e in _records(root) if e.addr < end and addr < e.addr + e.size]:
                self._drop(entry, slot)


# -- the per-slot interval tree ----------------------------------------------
# An AVL tree of one slot's registration records, ordered by ``(addr,
# size)``; the records carry the ``left`` / ``right`` / ``height`` /
# ``far`` slots themselves.  Module functions, not methods of a tree
# object: a slot is just its root record.


def _records(node):
    """The records of the tree rooted at ``node``, in key order."""
    while node is not None:
        yield from _records(node.left)
        yield node
        node = node.right


def _find(node, addr: int, size: int):
    """The record filed under exactly ``(addr, size)``, or None."""
    while node is not None:
        base = node.addr
        if addr < base or addr == base and size < node.size:
            node = node.left
        elif addr == base and size == node.size:
            return node
        else:
            node = node.right
    return None


def _fix(node) -> int:
    """Recompute ``height`` and ``far`` from the children; returns the
    left-minus-right height difference."""
    left, right = node.left, node.right
    far, end, lh, rh = None, node.addr + node.size, 0, 0
    if left is not None:
        lh = left.height
        top = left.far or left
        if top.addr + top.size > end:
            far, end = top, top.addr + top.size
    if right is not None:
        rh = right.height
        top = right.far or right
        if top.addr + top.size > end:
            far = top
    node.far, node.height = far, (lh if lh > rh else rh) + 1
    return lh - rh


def _rotate_right(y):
    x = y.left
    y.left, x.right = x.right, y
    _fix(y)
    _fix(x)
    return x


def _rotate_left(x):
    y = x.right
    x.right, y.left = y.left, x
    _fix(x)
    _fix(y)
    return y


def _rebalance(node):
    tilt = _fix(node)
    if tilt > 1:
        if _fix(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if tilt < -1:
        if _fix(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


def _insert(root, rec):
    """The tree rooted at ``root`` with ``rec`` filed (a filed ``(addr,
    size)`` leaves it as it is): one walk down, making ``rec`` the ``far``
    of each node it outreaches, then back up only while heights change."""
    addr, size = rec.addr, rec.size
    path, node = [], root
    while node is not None:
        if addr == node.addr and size == node.size:
            return root
        top = node.far or node
        if top.addr + top.size < addr + size:
            node.far = rec
        left = addr < node.addr or addr == node.addr and size < node.size
        path.append((node, left))
        node = node.left if left else node.right
    rec.left = rec.right = rec.far = None
    rec.height, child = 1, rec
    for node, left in reversed(path):
        if left:
            node.left = child
        else:
            node.right = child
        lh = node.left.height if node.left is not None else 0
        rh = node.right.height if node.right is not None else 0
        if lh - rh > 1 or rh - lh > 1:
            child = _rebalance(node)  # as tall as before: nothing above moves
            continue
        height = (lh if lh > rh else rh) + 1
        if node.height == height:
            return root
        node.height, child = height, node
    return child


def _remove(node, rec):
    """The subtree rooted at ``node`` without ``rec``, whose links are
    cleared: a record out of the tree points at no other."""
    if node is None:
        return None
    if node is rec:
        left, right = node.left, node.right
        node.left = node.right = node.far = None
        if left is None or right is None:
            return left if right is None else right
        successor = right
        while successor.left is not None:
            successor = successor.left
        successor.right = _remove(right, successor)
        successor.left = left
        return _rebalance(successor)
    if rec.addr < node.addr or rec.addr == node.addr and rec.size < node.size:
        node.left = _remove(node.left, rec)
    else:
        node.right = _remove(node.right, rec)
    return _rebalance(node)


def _cover(node, addr: int, end: int):
    """The lowest-keyed record whose range covers [addr, end), or None.

    One root-to-leaf walk: a left subtree reaching ``end`` holds the
    answer if any node does (every node after its far-reaching one starts
    later), and keys only grow to the right.
    """
    while node is not None:
        left = node.left
        if left is not None:
            top = left.far or left
            if top.addr + top.size >= end:
                node = left
                continue
        if node.addr > addr:
            return None
        if node.addr + node.size >= end:
            return node
        node = node.right
    return None
