"""Array-of-BST GVMI registration caches (paper Section VII-B).

Two caches with the same two-level shape -- a first level indexed by
remote rank (an array, "because there is only a finite number of ranks
allowed in a communicator") and a second level that is a BST indexed by
``(address, size)``.  The first level is modelled -- and charged
(``host_cache_lookup`` / ``dpu_cache_lookup``) -- as that array, but
stored as a dict of the slots a rank has touched, so an idle slot costs
no memory and a machine's cache state does not grow as ranks x proxies:

* the **host-side** cache memoises ``host_gvmi_register`` results
  (mkeys).  Its array is indexed by the *mapped DPU proxy's* global
  rank, because the GVMI-ID -- an input to the registration -- is a
  function of which proxy will move the data.
* the **DPU-side** cache memoises ``cross_register`` results (mkey2s).
  Its array is indexed by the *host source rank*.  The paper's key
  observation makes this sound: for a given host rank, the mkey is a
  pure function of ``(addr, size, gvmi_id)``, so ``(rank, addr, size)``
  uniquely identifies the cross-registration -- the extra inputs
  (GVMI-ID, mkey) need not be part of the key.  We *verify* that
  observation instead of assuming it: a cached entry whose stored mkey
  disagrees with the one presented is treated as stale and re-registered
  (and counted, so tests can assert it never happens in normal runs).
"""

from __future__ import annotations

from typing import Optional

from repro.hw.node import ProcessContext
from repro.offload.bst import AvlTree
from repro.verbs.gvmi import cross_register, host_gvmi_register
from repro.verbs.mr import KeyInfo

__all__ = ["HostGvmiCache", "DpuGvmiCache"]


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
        """mkey KeyInfo for (addr, size) under ``proxy``'s GVMI.

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
        entry: Optional[KeyInfo] = tree.find((addr, size))
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
        """mkey2 KeyInfo, cross-registering on miss (a generator)."""
        metrics = self.ctx.cluster.metrics
        if not self.enabled:
            self.misses += 1
            metrics.add("gvmi_cache.dpu.miss")
            return (yield from cross_register(self.ctx, addr, size, gvmi_id, mkey))
        yield self.ctx.consume(self.ctx.cluster.params.dpu_cache_lookup)
        tree = self._store.tree(host_rank)
        entry: Optional[KeyInfo] = tree.find((addr, size))
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
