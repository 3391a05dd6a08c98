"""Request caches for Group primitives (paper Section VII-D).

Host side: keyed by the recorded pattern's signature.  An entry holds
the fully-built plan (entries with resolved mkeys/rkeys and gathered
remote buffer descriptors) plus the flag the paper describes --
"whether request details were sent to the proxy rank".  On a hit the
host sends the proxy *only the request/plan ID*, collapsing the
per-call metadata exchange to one tiny message.

Plan entries are stored once, in slots: a send is a :class:`SendEntry`
(the keys resolved in ``api._build_plan`` and the destination gathered
from the peer's descriptor); a recv, reduce or barrier needs nothing
beyond what was recorded, so the recorded op (a
:class:`~repro.offload.requests.GroupOp` or
:class:`~repro.offload.requests.ReduceOp`) itself is the entry.

DPU side: keyed by plan ID.  An entry holds the Group_op queue with the
GVMI cache entries already attached, "saving the DPU process from
searching the GVMI cache for each Group_op entry".

A production concern the paper glosses over is handled explicitly: if a
*receiver* re-records its side with different buffers, senders holding a
cached plan would write to stale addresses.  Incoming descriptor
updates therefore *patch* matching cached plans and mark them dirty, so
the next call re-ships the corrected plan to the proxy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.mpi.regcache import lru_get, lru_put

__all__ = ["SendEntry", "DpuPlan", "HostPlan", "HostGroupCache", "DpuPlanCache"]

_plan_ids = itertools.count(1)


class SendEntry:
    """A prepared send: source registered, destination matched.

    ``op`` is the recorded send (its address, size, peer and tag are read
    there, not copied).  ``reg`` is the source buffer's registration
    record: in GVMI mode the host mkey (its key, registered range and
    GVMI-ID), in staged mode the IB registration whose rkey the proxy
    reads through.  ``dst_addr`` /
    ``rkey`` come from the receiver's descriptor (and are patched when it
    changes); ``mkey2`` is the DPU's cross-registration record, attached
    on first execution together with the resolved work request
    (``wqe_*``).
    """

    __slots__ = ("op", "reg", "dst_addr", "rkey", "mkey2",
                 # the resolved work request, kept on first execution: the
                 # rkey's registration it was checked against (its owner
                 # gives the destination node; mkey2's the source), the
                 # scaled serialization window, and the peer proxy's
                 # counter route
                 "wqe_dst", "wqe_ser", "wqe_ctr")
    kind = "send"

    def __init__(self, op, reg):
        self.op = op
        self.reg = reg
        self.dst_addr = self.rkey = self.mkey2 = self.wqe_dst = self.wqe_ctr = None


class DpuPlan(NamedTuple):
    """A plan as the proxy holds it."""

    plan_id: int
    host_rank: int
    entries: list


@dataclass
class HostPlan:
    """A prepared group pattern, ready to ship to the proxy."""

    plan_id: int
    signature: tuple
    #: Prepared entries: ``SendEntry`` records and the recorded ops.
    entries: list
    #: True once the proxy holds a current copy of the entries.
    sent_to_proxy: bool = False
    #: True if a descriptor update invalidated the proxy's copy.
    dirty: bool = False


class HostGroupCache:
    """Per-endpoint cache of prepared group plans.

    With a ``capacity`` the least-recently-called plan is dropped on
    overflow (the registration caches' LRU, ``lru_put``; plans hold no
    registrations of their own -- the keys live in the GVMI/IB caches --
    so dropping is free); a later call on its pattern simply rebuilds.
    Plans whose entries reference a freed local buffer are dropped via
    the owning context's free listeners.
    """

    def __init__(self, ctx=None, capacity: Optional[int] = None) -> None:
        self.ctx = ctx
        if capacity is None and ctx is not None:
            capacity = ctx.cluster.params.group_cache_capacity
        self.capacity = capacity
        #: Insertion order is LRU order (refreshed on lookup hits).
        self._by_sig: dict[tuple, HostPlan] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if ctx is not None:
            ctx.free_listeners.append(self._on_free)

    def lookup(self, signature: tuple) -> Optional[HostPlan]:
        plan = lru_get(self._by_sig, signature, self.capacity)
        if plan is not None:
            self.hits += 1
        else:
            self.misses += 1
        return plan

    def insert(self, signature: tuple, entries: list,
               keep: bool = True) -> HostPlan:
        """A fresh plan (new plan ID) for freshly built ``entries``.

        ``keep=False`` is the ``group_caching=False`` ablation: the plan
        still needs an ID to ship under, but is not filed for lookup.
        """
        plan = HostPlan(plan_id=next(_plan_ids), signature=signature, entries=entries)
        if keep:
            lru_put(self._by_sig, signature, plan, self.capacity, self._evicted)
        return plan

    def _evicted(self, _signature: tuple, victim: HostPlan) -> None:
        self.evictions += 1
        if self.ctx is not None:
            cluster = self.ctx.cluster
            cluster.metrics.add("offload.group_cache_evictions")
            if cluster.bus is not None:
                cluster.bus.emit(
                    "cache", "evict", self.ctx.trace_name,
                    cache="group.host", plan=victim.plan_id,
                )

    def drop_plan(self, plan_id: int) -> bool:
        """Remove a plan entirely (stale-plan recovery); True if found."""
        for sig, plan in list(self._by_sig.items()):
            if plan.plan_id == plan_id:
                del self._by_sig[sig]
                return True
        return False

    def _on_free(self, addr: int, size: int) -> None:
        """Drop plans whose sends or recvs touch local range [addr, addr+size)."""
        doomed = [
            sig
            for sig, plan in self._by_sig.items()
            if any(
                op.addr < addr + size and addr < op.addr + op.size
                for op in sig[1]
                if op.kind in ("send", "recv")
            )
        ]
        for sig in doomed:
            del self._by_sig[sig]

    def patch_descriptor(self, src_rank: int, tag: int, dst_rank: int, desc: dict) -> int:
        """Apply an updated remote receive descriptor to cached plans.

        Returns the number of plans patched (and marked dirty).
        """
        patched = 0
        for plan in self._by_sig.values():
            changed = False
            for entry in plan.entries:
                if (
                    entry.kind == "send"
                    and entry.op.peer == dst_rank
                    and entry.op.tag == tag
                    and (entry.dst_addr != desc["addr"] or entry.rkey != desc["rkey"])
                ):
                    entry.dst_addr = desc["addr"]
                    entry.rkey = desc["rkey"]
                    entry.wqe_dst = None
                    changed = True
            if changed:
                plan.dirty = True
                plan.sent_to_proxy = False
                patched += 1
        return patched

    def invalidate(self, plan_id: int) -> bool:
        """Mark a plan as no longer held by the proxy (NACK handling).

        The next call on its pattern re-ships the full entries instead
        of the plan-ID-only fast path.  True if the plan was found.
        """
        for plan in self._by_sig.values():
            if plan.plan_id == plan_id:
                plan.sent_to_proxy = False
                plan.dirty = True
                return True
        return False

    def __len__(self) -> int:
        return len(self._by_sig)


class DpuPlanCache:
    """Per-proxy cache: plan_id -> prepared Group_op queue.

    With a ``capacity`` the least-recently-fetched plan is dropped on
    overflow.  A host calling an evicted plan by ID gets a plan_nack
    and re-ships the full entries -- which is why a bounded plan cache
    requires a RetryPolicy, checked at Init_Offload (docs/RESOURCES.md).
    """

    def __init__(self, ctx=None, capacity: Optional[int] = None) -> None:
        self.ctx = ctx
        if capacity is None and ctx is not None:
            capacity = ctx.cluster.params.plan_cache_capacity
        self.capacity = capacity
        #: Insertion order is LRU order (refreshed on fetch/store).
        self._plans: dict[int, DpuPlan] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def store(self, plan_id: int, plan: DpuPlan) -> None:
        lru_put(self._plans, plan_id, plan, self.capacity, self._evicted)

    def fetch(self, plan_id: int) -> Optional[DpuPlan]:
        plan = lru_get(self._plans, plan_id, self.capacity)
        if plan is not None:
            self.hits += 1
        else:
            self.misses += 1
        return plan

    def _evicted(self, plan_id: int, _plan: DpuPlan) -> None:
        self.evictions += 1
        if self.ctx is not None:
            cluster = self.ctx.cluster
            cluster.metrics.add("proxy.plan_evictions")
            if cluster.bus is not None:
                cluster.bus.emit(
                    "cache", "evict", self.ctx.trace_name,
                    cache="plan.dpu", plan=plan_id,
                )

    def drop(self, plan_id: int) -> bool:
        """Remove one plan (stale-plan recovery); True if it existed."""
        return self._plans.pop(plan_id, None) is not None

    def __len__(self) -> int:
        return len(self._plans)
