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

One dict keyed by ``(slot, base, length)`` is both the LRU order
(insertion order, refreshed on every hit) and the exact-match index.  A
cover cache also keeps, per touched slot, an AVL tree of the same keys
whose nodes carry their subtree's largest end, so a covering query walks
one root-to-leaf path.  An untouched slot holds
nothing.  The winner is the exact match, else the cover with the lowest
``(base, length)``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.hw.node import ProcessContext
from repro.verbs.mr import dereg_mr, reg_mr

__all__ = ["RegistrationCache", "lru_get", "lru_put"]


def lru_get(entries: dict, key):
    """``entries[key]`` refreshed to newest, or None."""
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
        #: ``(slot, base, length)`` -> entry, oldest first.
        self._lru: dict[tuple, object] = {}
        #: Cover caches only: slot -> root of its tree of ``_lru`` keys.
        self._trees: dict = {}
        self.hits = self.misses = self.evictions = self.stale = 0
        if valid is None:
            ctx.free_listeners.append(self._on_free)

    def __len__(self) -> int:
        return len(self._lru)

    def _slot(self, peer):
        return peer if self._slot_of is None else self._slot_of(peer)

    def peek(self, addr: int, size: int, peer=None):
        """The exact entry, without charging or refreshing it."""
        return self._lru.get((self._slot(peer), addr, size))

    def get(self, addr: int, size: int, peer=None, *extra):
        """A registration of [addr, addr+size) for ``peer``.

        A generator: ``entry = yield from cache.get(addr, size, ...)``.
        An enabled cache charges the lookup cost, and a miss the
        registration cost; ``peer`` and ``extra`` go to ``register`` and
        ``valid``.
        """
        ctx = self.ctx
        slot = self._slot(peer)
        key = (slot, addr, size)
        if self.enabled:
            params = ctx.cluster.params
            yield ctx.consume(params.host_cache_lookup if ctx.kind == "host"
                              else params.dpu_cache_lookup)
            entry = lru_get(self._lru, key)
            if entry is None and self._valid is None:
                node = _cover(self._trees.get(slot), addr, addr + size)
                if node is not None:
                    entry = lru_get(self._lru, node.key)
            if entry is not None:
                if self._valid is None or self._valid(entry, peer, *extra):
                    self.hits += 1
                    self._emit("hit", size)
                    return entry
                # Exact match only: ``key`` is the stale entry's.
                self.stale += 1
                self._emit("stale", size)
                del self._lru[key]
        self.misses += 1
        self._emit("miss", size)
        entry = yield from self._register(ctx, addr, size, peer, *extra)
        if self.enabled:
            if self._valid is None:
                self._trees[slot] = _insert(self._trees.get(slot), key)
            lru_put(self._lru, key, entry, self.capacity, self._evict)
        return entry

    def _emit(self, kind: str, size: int) -> None:
        cluster = self.ctx.cluster
        cluster.metrics.add(f"{self.metric}.{kind}")
        if cluster.bus is not None:
            cluster.bus.emit("cache", kind, self.ctx.trace_name,
                             cache=self.label, size=size)

    def _evict(self, key: tuple, entry) -> None:
        self._untree(key)
        self._revoke(self.ctx, entry)
        self.evictions += 1
        self._emit("evict", key[2])

    def _untree(self, key: tuple) -> None:
        root = self._trees.pop(key[0], None)
        if root is not None:
            root = _remove(root, key)
            if root is not None:
                self._trees[key[0]] = root

    def invalidate(self, addr: int, size: int, peer=None) -> bool:
        """Drop one entry, without revoking it; True if it existed."""
        key = (self._slot(peer), addr, size)
        if self._lru.pop(key, None) is None:
            return False
        self._untree(key)
        return True

    def _on_free(self, addr: int, size: int) -> None:
        end = addr + size
        for key in [k for k in self._lru if k[1] < end and addr < k[1] + k[2]]:
            del self._lru[key]
            self._untree(key)


# -- the per-slot interval tree ----------------------------------------------
# An AVL tree of one slot's ``(slot, base, length)`` keys (the very tuples
# the LRU dict holds); ``end`` is the largest base + length in a node's
# subtree.  Module functions, not methods of a tree object: a slot is just
# its root node.


class _Node:
    __slots__ = ("key", "end", "left", "right", "height")

    def __init__(self, key: tuple):
        self.key = key
        self.end = key[1] + key[2]
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.height = 1


def _fix(node: _Node) -> int:
    """Recompute ``height`` and ``end`` from the children; returns the
    left-minus-right height difference."""
    left, right = node.left, node.right
    end, lh, rh = node.key[1] + node.key[2], 0, 0
    if left is not None:
        lh = left.height
        if left.end > end:
            end = left.end
    if right is not None:
        rh = right.height
        if right.end > end:
            end = right.end
    node.end, node.height = end, (lh if lh > rh else rh) + 1
    return lh - rh


def _tilt(node: _Node) -> int:
    left, right = node.left, node.right
    return ((left.height if left is not None else 0)
            - (right.height if right is not None else 0))


def _rotate_right(y: _Node) -> _Node:
    x = y.left
    y.left, x.right = x.right, y
    _fix(y)
    _fix(x)
    return x


def _rotate_left(x: _Node) -> _Node:
    y = x.right
    x.right, y.left = y.left, x
    _fix(x)
    _fix(y)
    return y


def _rebalance(node: _Node) -> _Node:
    tilt = _fix(node)
    if tilt > 1:
        if _tilt(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if tilt < -1:
        if _tilt(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


def _insert(node: Optional[_Node], key: tuple) -> _Node:
    """The subtree rooted at ``node`` with ``key`` added (once)."""
    if node is None:
        return _Node(key)
    if key < node.key:
        node.left = _insert(node.left, key)
    elif node.key < key:
        node.right = _insert(node.right, key)
    else:
        return node
    return _rebalance(node)


def _remove(node: Optional[_Node], key: tuple) -> Optional[_Node]:
    """The subtree rooted at ``node`` without ``key``."""
    if node is None:
        return None
    if key < node.key:
        node.left = _remove(node.left, key)
    elif node.key < key:
        node.right = _remove(node.right, key)
    elif node.left is None or node.right is None:
        return node.right if node.left is None else node.left
    else:
        successor = node.right
        while successor.left is not None:
            successor = successor.left
        node.key = successor.key
        node.right = _remove(node.right, successor.key)
    return _rebalance(node)


def _cover(node: Optional[_Node], addr: int, end: int) -> Optional[_Node]:
    """The lowest-keyed node whose range covers [addr, end), or None.

    One root-to-leaf walk: a left subtree reaching ``end`` holds the
    answer if any node does (every node after its far-reaching one starts
    later), and keys only grow to the right.
    """
    while node is not None:
        left = node.left
        if left is not None and left.end >= end:
            node = left
        elif node.key[1] > addr:
            return None
        elif node.key[1] + node.key[2] >= end:
            return node
        else:
            node = node.right
    return None
