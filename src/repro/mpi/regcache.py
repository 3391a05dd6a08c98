"""The classic host-side IB registration cache.

Standard MPI libraries amortise ``ibv_reg_mr`` with a cache keyed by
buffer address and size (paper Section II-C).  This is that cache: it
serves the rendezvous path of the host runtime and the IB-side
(receive-buffer) registrations of the offload framework.

The GVMI caches of the offload framework are a different structure (an
array of BSTs, keyed additionally by remote rank) and live in
:mod:`repro.offload.gvmi_cache`.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.node import ProcessContext
from repro.verbs.mr import MemoryRegionHandle, dereg_mr, reg_mr

__all__ = ["RegistrationCache"]


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
