"""The registration caches as three classes: the reference form.

Before the registration cache was written once
(:class:`repro.mpi.regcache.RegistrationCache` plus the instances of
:mod:`repro.offload.gvmi_cache`), it was three classes, each with its own
LRU, covering scan, cover memo and eviction, the GVMI two over an
array of AVL trees.  They are kept here, unchanged but for imports, as the
oracle ``tests/test_properties_regcache.py`` fuzzes the single class
against.  Two of their rules differ from the single class on purpose:
``RegistrationCache`` returns the least recently used of several covers
(the single class: the lowest ``(base, length)``), and
``HostGvmiCache.get`` takes a ``gvmi_id`` that only ever equals its
proxy's.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.hw.node import ProcessContext
from repro.verbs.gvmi import cross_register, host_gvmi_register
from repro.verbs.mr import MemoryRegionHandle, Mkey, Mkey2, dereg_mr, reg_mr

__all__ = ["AvlTree", "RegistrationCache", "HostGvmiCache", "DpuGvmiCache"]


class _Node:
    __slots__ = ("key", "value", "left", "right", "height")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.height = 1


def _h(node: Optional[_Node]) -> int:
    return node.height if node else 0


def _update(node: _Node) -> None:
    node.height = 1 + max(_h(node.left), _h(node.right))


def _balance_factor(node: _Node) -> int:
    return _h(node.left) - _h(node.right)


def _rotate_right(y: _Node) -> _Node:
    x = y.left
    assert x is not None
    y.left = x.right
    x.right = y
    _update(y)
    _update(x)
    return x


def _rotate_left(x: _Node) -> _Node:
    y = x.right
    assert y is not None
    x.right = y.left
    y.left = x
    _update(x)
    _update(y)
    return y


def _rebalance(node: _Node) -> _Node:
    _update(node)
    bf = _balance_factor(node)
    if bf > 1:
        assert node.left is not None
        if _balance_factor(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if bf < -1:
        assert node.right is not None
        if _balance_factor(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class AvlTree:
    """Ordered map with O(log n) insert/find/remove."""

    def __init__(self) -> None:
        self._root: Optional[_Node] = None
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key) -> bool:
        return self.find(key) is not None

    # -- find -------------------------------------------------------------
    def find(self, key) -> Optional[Any]:
        """The value stored at ``key`` or None (with descent count free)."""
        node = self._root
        while node is not None:
            if key < node.key:
                node = node.left
            elif node.key < key:
                node = node.right
            else:
                return node.value
        return None

    def depth_of(self, key) -> int:
        """Number of comparisons a lookup of ``key`` performs."""
        node, depth = self._root, 0
        while node is not None:
            depth += 1
            if key < node.key:
                node = node.left
            elif node.key < key:
                node = node.right
            else:
                return depth
        return depth

    # -- insert -------------------------------------------------------------
    # (The recursive helpers are methods, not closures: a nested function
    # that calls itself is a reference cycle per call.)
    def insert(self, key, value) -> None:
        """Insert or overwrite."""
        self._root = self._ins(self._root, key, value)

    def _ins(self, node: Optional[_Node], key, value) -> _Node:
        if node is None:
            self._count += 1
            return _Node(key, value)
        if key < node.key:
            node.left = self._ins(node.left, key, value)
        elif node.key < key:
            node.right = self._ins(node.right, key, value)
        else:
            node.value = value
            return node
        return _rebalance(node)

    # -- remove -------------------------------------------------------------
    def remove(self, key) -> bool:
        """Delete ``key``; returns True if it was present."""
        before = self._count
        self._root = self._rm(self._root, key)
        return self._count < before

    def _rm(self, node: Optional[_Node], key) -> Optional[_Node]:
        """``node``'s subtree without ``key``; a hit unlinks exactly one
        node (itself, or the successor whose entry it takes over)."""
        if node is None:
            return None
        if key < node.key:
            node.left = self._rm(node.left, key)
        elif node.key < key:
            node.right = self._rm(node.right, key)
        elif node.left is None or node.right is None:
            self._count -= 1
            return node.right if node.left is None else node.left
        else:
            successor = node.right
            while successor.left is not None:
                successor = successor.left
            node.key, node.value = successor.key, successor.value
            node.right = self._rm(node.right, successor.key)
        return _rebalance(node)

    # -- iteration / introspection -------------------------------------------
    def items(self) -> Iterator[tuple[Any, Any]]:
        """In-order (sorted) iteration."""
        stack: list[_Node] = []
        node = self._root
        while stack or node:
            while node:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def keys(self) -> Iterator[Any]:
        return (k for k, _ in self.items())

    @property
    def height(self) -> int:
        return _h(self._root)

    def check_invariants(self) -> None:
        """Raise AssertionError if BST order or AVL balance is violated."""
        _check(self._root, None, None)


def _check(node: Optional[_Node], lo, hi) -> int:
    if node is None:
        return 0
    if lo is not None:
        assert lo < node.key, f"BST order violated at {node.key}"
    if hi is not None:
        assert node.key < hi, f"BST order violated at {node.key}"
    lh = _check(node.left, lo, node.key)
    rh = _check(node.right, node.key, hi)
    assert abs(lh - rh) <= 1, f"AVL balance violated at {node.key}"
    assert node.height == 1 + max(lh, rh), f"stale height at {node.key}"
    return node.height


class RegistrationCache:
    """Exact-match ``(addr, size)`` -> registration handle cache.

    With a ``capacity`` (entry count; default
    ``params.ib_cache_capacity``) the cache evicts least-recently-used
    entries, deregistering the evicted handle so its KeyTable entries
    are reclaimed.  Entries over freed memory are dropped (without
    dereg -- the free protocol already revoked the keys) via a
    ``free_listeners`` hook on the owning context.
    """

    def __init__(
        self,
        ctx: ProcessContext,
        name: str = "ib",
        capacity: Optional[int] = None,
    ):
        self.ctx = ctx
        self.name = name
        if capacity is None:
            capacity = ctx.cluster.params.ib_cache_capacity
        self.capacity = capacity
        #: Insertion order is LRU order (refreshed on every hit).
        self._entries: dict[tuple[int, int], MemoryRegionHandle] = {}
        #: Covering-scan memo: request (addr, size) -> entry key, recorded
        #: only when exactly ONE cached entry covers the request (with two
        #: or more, the scan's winner depends on LRU order, so memoizing
        #: it would change behaviour).  Cleared on any structural change
        #: (insert/evict/invalidate); LRU refreshes keep it valid.
        self._cover_memo: dict[tuple[int, int], tuple[int, int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        ctx.free_listeners.append(self._on_free)

    def __len__(self) -> int:
        return len(self._entries)

    def peek(self, addr: int, size: int) -> Optional[MemoryRegionHandle]:
        """Non-charging lookup (for tests/diagnostics)."""
        return self._entries.get((addr, size))

    def get(self, addr: int, size: int):
        """Return a registration handle, registering on miss.

        A generator: ``handle = yield from cache.get(addr, size)``.
        Charges the cache-lookup cost on a hit and the full
        registration cost on a miss, mirroring how a real cache spends
        time either way.

        Like production registration caches (which pin whole memory
        regions), a request is a hit when any cached registration
        *covers* [addr, addr+size) -- e.g. HPL's shrinking panels keep
        hitting the registration of the first, largest panel.
        """
        params = self.ctx.cluster.params
        lookup = (
            params.host_cache_lookup if self.ctx.kind == "host" else params.dpu_cache_lookup
        )
        yield self.ctx.consume(lookup)
        metrics = self.ctx.cluster.metrics
        key = (addr, size)
        entry = self._entries.get(key)
        if entry is None:
            memo_key = self._cover_memo.get(key)
            if memo_key is not None:
                key, entry = memo_key, self._entries[memo_key]
            else:
                ckey, entry, unique = self._find_covering_unique(addr, size)
                if entry is not None:
                    if unique:
                        self._cover_memo[key] = ckey
                    key = ckey
        bus = self.ctx.cluster.bus
        if entry is not None:
            self.hits += 1
            metrics.add(f"regcache.{self.name}.hit")
            # Refresh LRU position.
            del self._entries[key]
            self._entries[key] = entry
            if bus is not None:
                bus.emit("cache", "hit", self.ctx.trace_name,
                         cache=f"regcache.{self.name}", size=size)
            return entry
        self.misses += 1
        metrics.add(f"regcache.{self.name}.miss")
        if bus is not None:
            bus.emit("cache", "miss", self.ctx.trace_name,
                     cache=f"regcache.{self.name}", size=size)
        handle = yield from reg_mr(self.ctx, addr, size)
        self._entries[(addr, size)] = handle
        self._cover_memo.clear()
        self._evict_over_capacity()
        return handle

    def _find_covering_unique(self, addr: int, size: int):
        """First covering entry (LRU order) plus whether it is the only one."""
        found_key = found = None
        for (base, length), handle in self._entries.items():
            if base <= addr and addr + size <= base + length:
                if found is None:
                    found_key, found = (base, length), handle
                else:
                    return found_key, found, False
        return found_key, found, found is not None

    def _evict_over_capacity(self) -> None:
        if self.capacity is None:
            return
        metrics = self.ctx.cluster.metrics
        bus = self.ctx.cluster.bus
        while len(self._entries) > self.capacity:
            victim_key = next(iter(self._entries))
            handle = self._entries.pop(victim_key)
            self._cover_memo.clear()
            dereg_mr(self.ctx, handle)
            self.evictions += 1
            metrics.add(f"regcache.{self.name}.evict")
            if bus is not None:
                bus.emit("cache", "evict", self.ctx.trace_name,
                         cache=f"regcache.{self.name}", size=victim_key[1])

    def invalidate(self, addr: int, size: int) -> bool:
        """Drop one entry (e.g. after a free); True if it existed."""
        if self._entries.pop((addr, size), None) is not None:
            self._cover_memo.clear()
            return True
        return False

    def invalidate_range(self, addr: int, size: int) -> int:
        """Drop every entry overlapping [addr, addr+size).

        No dereg: this runs from the free protocol, which has already
        revoked the covering keys.
        """
        doomed = [
            k for k in self._entries
            if k[0] < addr + size and addr < k[0] + k[1]
        ]
        for k in doomed:
            del self._entries[k]
        if doomed:
            self._cover_memo.clear()
        return len(doomed)

    def _on_free(self, addr: int, size: int) -> None:
        self.invalidate_range(addr, size)

    def clear(self) -> None:
        self._entries.clear()
        self._cover_memo.clear()


class _ArrayOfBsts:
    """First level: ``slots`` rank-indexed slots, bounds-checked like an
    array's but holding only the touched ones; second level: AVL by (addr, size)."""

    def __init__(self, slots: int):
        self.slots = slots
        self._trees: dict[int, AvlTree] = {}

    def get(self, index: int) -> Optional[AvlTree]:
        if not 0 <= index < self.slots:
            raise IndexError(f"slot {index} outside an array of {self.slots}")
        return self._trees.get(index)

    def tree(self, index: int) -> AvlTree:
        t = self._trees.get(index)
        if t is None:
            self.get(index)  # bounds check
            t = self._trees[index] = AvlTree()
        return t

    def peek(self, index: int, addr: int, size: int):
        t = self.get(index)
        return None if t is None else t.find((addr, size))

    def items(self):
        """``(slot, tree)`` pairs of the touched slots, in slot order."""
        return sorted(self._trees.items())

    def total_entries(self) -> int:
        return sum(len(t) for t in self._trees.values())

    def trees(self):
        return [t for _slot, t in self.items()]


class HostGvmiCache:
    """Host-side mkey cache for one rank: [proxy rank] -> BST[(addr, size)].

    With a ``capacity`` (total entries across all slots; default
    ``params.gvmi_cache_capacity``) the least-recently-used entry is
    evicted on overflow and its mkey revoked -- a proxy still holding
    the derived mkey2 keeps working until the host's *next* registration
    of that range mints a fresh mkey, at which point the DPU cache's
    mkey-mismatch check catches the staleness (paper Section VII-B).
    """

    def __init__(
        self,
        ctx: ProcessContext,
        enabled: bool = True,
        capacity: Optional[int] = None,
    ):
        if ctx.kind != "host":
            raise ValueError("HostGvmiCache lives on host processes")
        self.ctx = ctx
        #: Ablation switch: disabled -> every get registers afresh.
        self.enabled = enabled
        if capacity is None:
            capacity = ctx.cluster.params.gvmi_cache_capacity
        self.capacity = capacity
        n_proxies = len(ctx.cluster.proxies)
        self._store = _ArrayOfBsts(n_proxies)
        #: LRU order over (slot, addr, size); insertion order = age.
        self._lru: dict[tuple[int, int, int], None] = {}
        #: Covering-scan memo: (slot, gvmi_id, addr, size) -> entry key,
        #: recorded only when exactly one cached entry covers the
        #: request (the scan's winner is order-independent then).
        #: Cleared on any structural change; LRU touches keep it valid.
        self._cover_memo: dict[tuple, tuple[int, int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        ctx.free_listeners.append(self._on_free)

    def _touch(self, slot: int, addr: int, size: int) -> None:
        key = (slot, addr, size)
        self._lru.pop(key, None)
        self._lru[key] = None

    def get(self, proxy: ProcessContext, gvmi_id: int, addr: int, size: int):
        """Mkey for (addr, size) under ``proxy``'s GVMI.

        A generator: ``info = yield from cache.get(...)``; charges the
        lookup cost, and the registration cost on a miss.
        """
        metrics = self.ctx.cluster.metrics
        if not self.enabled:
            self.misses += 1
            metrics.add("gvmi_cache.host.miss")
            return (yield from host_gvmi_register(self.ctx, addr, size, gvmi_id))
        yield self.ctx.consume(self.ctx.cluster.params.host_cache_lookup)
        slot = proxy.global_id
        tree = self._store.tree(slot)
        entry: Optional[Mkey] = tree.find((addr, size))
        hit_key = (addr, size)
        if entry is None:
            memo_key = self._cover_memo.get((slot, gvmi_id, addr, size))
            if memo_key is not None:
                entry = tree.find(memo_key)
                hit_key = memo_key
            else:
                # Like production registration caches, a cached mkey whose
                # range *covers* the request is a hit (HPL's shrinking
                # panels keep hitting the first, largest registration).
                unique = True
                for (base, length), info in tree.items():
                    if base <= addr and addr + size <= base + length and info.gvmi_id == gvmi_id:
                        if entry is None:
                            entry = info
                            hit_key = (base, length)
                        else:
                            unique = False
                            break
                if entry is not None and unique:
                    self._cover_memo[(slot, gvmi_id, addr, size)] = hit_key
        bus = self.ctx.cluster.bus
        if entry is not None:
            self.hits += 1
            metrics.add("gvmi_cache.host.hit")
            self._touch(slot, *hit_key)
            if bus is not None:
                bus.emit("cache", "hit", self.ctx.trace_name,
                         cache="gvmi.host", size=size)
            return entry
        self.misses += 1
        metrics.add("gvmi_cache.host.miss")
        if bus is not None:
            bus.emit("cache", "miss", self.ctx.trace_name,
                     cache="gvmi.host", size=size)
        info = yield from host_gvmi_register(self.ctx, addr, size, gvmi_id)
        tree.insert((addr, size), info)
        self._cover_memo.clear()
        self._touch(slot, addr, size)
        self._evict_over_capacity()
        return info

    def _evict_over_capacity(self) -> None:
        if self.capacity is None:
            return
        from repro.verbs.rdma import verbs_state

        keys = verbs_state(self.ctx.cluster).keys
        metrics = self.ctx.cluster.metrics
        bus = self.ctx.cluster.bus
        while len(self._lru) > self.capacity:
            slot, base, length = next(iter(self._lru))
            del self._lru[(slot, base, length)]
            self._cover_memo.clear()
            tree = self._store.tree(slot)
            info = tree.find((base, length))
            tree.remove((base, length))
            if info is not None and keys.is_live(info.key):
                keys.revoke(info.key)
            self.evictions += 1
            metrics.add("gvmi_cache.host.evict")
            if bus is not None:
                bus.emit("cache", "evict", self.ctx.trace_name,
                         cache="gvmi.host", size=length)

    def peek(self, proxy_rank: int, addr: int, size: int):
        return self._store.peek(proxy_rank, addr, size)

    def invalidate(self, proxy_rank: int, addr: int, size: int) -> bool:
        t = self._store.get(proxy_rank)
        self._lru.pop((proxy_rank, addr, size), None)
        self._cover_memo.clear()
        return bool(t and t.remove((addr, size)))

    def invalidate_range(self, addr: int, size: int) -> int:
        """Drop every entry overlapping [addr, addr+size), all slots.

        Runs from the free protocol -- keys are already revoked there,
        so entries are simply dropped.
        """
        dropped = 0
        for slot, tree in self._store.items():
            doomed = [
                (base, length)
                for (base, length), _info in tree.items()
                if base < addr + size and addr < base + length
            ]
            for key in doomed:
                tree.remove(key)
                self._lru.pop((slot, *key), None)
                dropped += 1
        if dropped:
            self._cover_memo.clear()
        return dropped

    def _on_free(self, addr: int, size: int) -> None:
        self.invalidate_range(addr, size)

    @property
    def entries(self) -> int:
        return self._store.total_entries()

    def check_invariants(self) -> None:
        for t in self._store.trees():
            t.check_invariants()


class DpuGvmiCache:
    """DPU-side mkey2 cache for one proxy: [host rank] -> BST[(addr, size)].

    With a ``capacity`` (default ``params.gvmi_cache_capacity``) the
    least-recently-used mkey2 is evicted and revoked on overflow --
    this is the scarce-DPU-memory regime the array-of-BST design exists
    to manage.
    """

    def __init__(
        self,
        ctx: ProcessContext,
        enabled: bool = True,
        capacity: Optional[int] = None,
    ):
        if ctx.kind != "dpu":
            raise ValueError("DpuGvmiCache lives on DPU proxy processes")
        self.ctx = ctx
        #: Ablation switch: disabled -> every get cross-registers afresh.
        self.enabled = enabled
        if capacity is None:
            capacity = ctx.cluster.params.gvmi_cache_capacity
        self.capacity = capacity
        self._store = _ArrayOfBsts(ctx.cluster.world_size)
        #: LRU order over (host rank, addr, size).
        self._lru: dict[tuple[int, int, int], None] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Times a cached entry's mkey disagreed with the presented one
        #: (zero in steady state; fires legitimately when the host side
        #: re-registers after eviction or free -- see module docstring).
        self.stale_detected = 0

    def _touch(self, host_rank: int, addr: int, size: int) -> None:
        key = (host_rank, addr, size)
        self._lru.pop(key, None)
        self._lru[key] = None

    def get(self, host_rank: int, gvmi_id: int, mkey: int, addr: int, size: int):
        """Mkey2, cross-registering on miss (a generator)."""
        metrics = self.ctx.cluster.metrics
        if not self.enabled:
            self.misses += 1
            metrics.add("gvmi_cache.dpu.miss")
            return (yield from cross_register(self.ctx, addr, size, gvmi_id, mkey))
        yield self.ctx.consume(self.ctx.cluster.params.dpu_cache_lookup)
        tree = self._store.tree(host_rank)
        entry: Optional[Mkey2] = tree.find((addr, size))
        bus = self.ctx.cluster.bus
        if entry is not None:
            if entry.parent_mkey == mkey:
                self.hits += 1
                metrics.add("gvmi_cache.dpu.hit")
                self._touch(host_rank, addr, size)
                if bus is not None:
                    bus.emit("cache", "hit", self.ctx.trace_name,
                             cache="gvmi.dpu", size=size)
                return entry
            # The paper argues this cannot happen; verify, don't assume.
            self.stale_detected += 1
            metrics.add("gvmi_cache.dpu.stale")
            if bus is not None:
                bus.emit("cache", "stale", self.ctx.trace_name,
                         cache="gvmi.dpu", size=size)
            tree.remove((addr, size))
            self._lru.pop((host_rank, addr, size), None)
        self.misses += 1
        metrics.add("gvmi_cache.dpu.miss")
        if bus is not None:
            bus.emit("cache", "miss", self.ctx.trace_name,
                     cache="gvmi.dpu", size=size)
        info = yield from cross_register(self.ctx, addr, size, gvmi_id, mkey)
        tree.insert((addr, size), info)
        self._touch(host_rank, addr, size)
        self._evict_over_capacity()
        return info

    def _evict_over_capacity(self) -> None:
        if self.capacity is None:
            return
        from repro.verbs.rdma import verbs_state

        keys = verbs_state(self.ctx.cluster).keys
        metrics = self.ctx.cluster.metrics
        bus = self.ctx.cluster.bus
        while len(self._lru) > self.capacity:
            host_rank, base, length = next(iter(self._lru))
            del self._lru[(host_rank, base, length)]
            tree = self._store.tree(host_rank)
            info = tree.find((base, length))
            tree.remove((base, length))
            if info is not None and keys.is_live(info.key):
                keys.revoke(info.key)
            self.evictions += 1
            metrics.add("gvmi_cache.dpu.evict")
            if bus is not None:
                bus.emit("cache", "evict", self.ctx.trace_name,
                         cache="gvmi.dpu", size=length)

    def peek(self, host_rank: int, addr: int, size: int):
        return self._store.peek(host_rank, addr, size)

    def invalidate(self, host_rank: int, addr: int, size: int) -> bool:
        """Drop one entry (stale-key recovery); no revoke (already dead)."""
        t = self._store.get(host_rank)
        self._lru.pop((host_rank, addr, size), None)
        return bool(t and t.remove((addr, size)))

    @property
    def entries(self) -> int:
        return self._store.total_entries()

    def check_invariants(self) -> None:
        for t in self._store.trees():
            t.check_invariants()
