"""Memory registration (``ibv_reg_mr`` equivalent) and key bookkeeping.

Every registration produces integer keys recorded in the cluster-wide
:class:`KeyTable`.  RDMA operations validate their keys against the
table, so protocol bugs (stale cache entries, keys for the wrong
buffer, using an rkey as an lkey) fault in simulation exactly as they
would on hardware.

A registration is one slotted record filed under each of its keys: a
:class:`MemoryRegionHandle` under its lkey and its rkey, an
:class:`Mkey` or :class:`Mkey2` under its one key.  A key's kind is
read from which record, and which of its keys, it is
(:func:`key_kind`); revocation is still per key.  A record also carries
the four slots a :class:`~repro.mpi.regcache.RegistrationCache` files it
by (``left``, ``right``, ``height``, ``far``): a cached registration is
its own cache node.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from repro.hw.memory import pages_spanned
from repro.hw.node import ProcessContext

__all__ = [
    "ProtectionError",
    "Mkey",
    "Mkey2",
    "MemoryRegionHandle",
    "KeyTable",
    "key_kind",
    "reg_mr",
    "dereg_mr",
    "registration_cost",
]

#: The first key number a :class:`KeyTable` draws.
FIRST_KEY = 0x1000
#: The tree slots of a record a registration cache holds (set when filed).
_CACHE_SLOTS = ("left", "right", "height", "far")


class ProtectionError(RuntimeError):
    """A key check failed -- the hardware would raise a protection fault."""


class MemoryRegionHandle:
    """One ``reg_mr`` registration (lkey + rkey over one range): the
    handle :func:`reg_mr` returns.  Building it draws its keys from
    ``table`` (lkey, then rkey) and files it there under both."""

    __slots__ = ("owner", "addr", "size", "epoch", "lkey", "rkey") + _CACHE_SLOTS

    def __init__(self, table: "KeyTable", owner: ProcessContext, addr: int,
                 size: int, epoch: int):
        #: The process whose address space the keys grant access to.
        self.owner = owner
        self.addr = addr
        self.size = size
        #: Owner address-space epoch at registration time.  A key whose
        #: epoch predates a free of its range is stale (docs/RESOURCES.md).
        self.epoch = epoch
        self.lkey = next(table._counter)
        self.rkey = next(table._counter)
        table._records += (self, self)

    def covers(self, addr: int, size: int) -> bool:
        return self.addr <= addr and addr + size <= self.addr + self.size


class Mkey:
    """A host buffer registered under a proxy's GVMI-ID: one ``mkey``.
    Building it draws its key from ``table`` and files it there."""

    __slots__ = ("key", "owner", "addr", "size", "epoch", "gvmi_id") + _CACHE_SLOTS
    kind = "mkey"

    def __init__(self, table: "KeyTable", owner: ProcessContext, addr: int,
                 size: int, epoch: int, gvmi_id: int):
        self.key = next(table._counter)
        table._records.append(self)
        self.owner = owner
        self.addr = addr
        self.size = size
        self.epoch = epoch
        self.gvmi_id = gvmi_id

    covers = MemoryRegionHandle.covers


class Mkey2:
    """A proxy's ``mkey2``, cross-registered from a host :class:`Mkey`
    (``parent_mkey``).  Like its parent it grants access to the *host*
    buffer (``owner``)."""

    __slots__ = ("key", "owner", "addr", "size", "epoch", "gvmi_id",
                 "parent_mkey") + _CACHE_SLOTS
    kind = "mkey2"

    def __init__(self, table: "KeyTable", parent: Mkey):
        self.key = next(table._counter)
        table._records.append(self)
        self.owner = parent.owner
        self.addr = parent.addr
        self.size = parent.size
        self.epoch = parent.epoch
        self.gvmi_id = parent.gvmi_id
        self.parent_mkey = parent.key

    covers = MemoryRegionHandle.covers


#: Any registration record.
Registration = Union[MemoryRegionHandle, Mkey, Mkey2]


def key_kind(record: Registration, key: int) -> str:
    """Which key of ``record`` ``key`` is: lkey, rkey, mkey or mkey2."""
    if isinstance(record, MemoryRegionHandle):
        return "lkey" if key == record.lkey else "rkey"
    return record.kind


class KeyTable:
    """Cluster-wide registry of keys: key -> its registration record.

    Keys are drawn in order from :data:`FIRST_KEY`, and every key drawn
    is filed at once, so the table is a list indexed by ``key -
    FIRST_KEY``.  A revoked key's slot holds None: a later use faults
    with a precise "stale" diagnosis instead of a generic unknown-key
    error -- that distinction is what lets the proxy's stale-key
    recovery path trigger re-registration rather than treat the fault as
    a protocol bug.  The Group executor's cached replay reads
    ``_records`` itself: one identity test per key, and no call.
    """

    def __init__(self) -> None:
        self._records: list[Optional[Registration]] = []
        self._counter = itertools.count(start=FIRST_KEY)
        #: When armed via :meth:`record_uses`: ("use"|"revoke", t, key,
        #: record) tuples consumed by the trace-invariant checker.
        self.use_log: Optional[list] = None
        self._clock = None

    def record_uses(self, clock) -> None:
        """Arm use/revoke logging; ``clock()`` supplies timestamps."""
        self.use_log = []
        self._clock = clock

    def lookup(self, key: int) -> Registration:
        i = key - FIRST_KEY
        if 0 <= i < len(self._records):
            info = self._records[i]
            if info is not None:
                if self.use_log is not None:
                    self.use_log.append(("use", self._clock(), key, info))
                return info
            raise ProtectionError(f"key {key:#x} is not registered (revoked: stale epoch)")
        raise ProtectionError(f"key {key:#x} is not registered (stale or bogus)")

    def revoke(self, key: int) -> None:
        i = key - FIRST_KEY
        info = self._records[i] if 0 <= i < len(self._records) else None
        if info is None:
            raise ProtectionError(f"cannot revoke unknown key {key:#x}")
        self._records[i] = None
        if self.use_log is not None:
            self.use_log.append(("revoke", self._clock(), key, info))

    def revoke_covering(self, owner: ProcessContext, addr: int,
                        size: int) -> list[tuple[int, Registration]]:
        """Revoke every live key of ``owner`` overlapping the range;
        returns the ``(key, record)`` pairs revoked.

        Called from :meth:`ProcessContext.free`: mkey2 cross-
        registrations are owned by the *host* context they grant access
        to, so revoking by owner kills them alongside the parent mkey.
        """
        doomed = [
            (FIRST_KEY + i, info)
            for i, info in enumerate(self._records)
            if info is not None and info.owner is owner
            and info.addr < addr + size and addr < info.addr + info.size
        ]
        for key, _info in doomed:
            self.revoke(key)
        return doomed

    def is_live(self, key: int) -> bool:
        i = key - FIRST_KEY
        return 0 <= i < len(self._records) and self._records[i] is not None

    def live_owned_by(self, owner: ProcessContext) -> list[tuple[int, Registration]]:
        """Live ``(key, record)`` pairs over ``owner``'s memory (leak checks)."""
        return [(key, info) for key, info in self.live_keys() if info.owner is owner]

    def live_keys(self) -> list[tuple[int, Registration]]:
        """Every live ``(key, record)`` pair, oldest key first."""
        return [(FIRST_KEY + i, info) for i, info in enumerate(self._records)
                if info is not None]


def registration_cost(ctx: ProcessContext, addr: int, size: int) -> float:
    """Time to pin + register [addr, addr+size) from ``ctx``'s cores."""
    p = ctx.cluster.params
    n = pages_spanned(addr, size)
    if ctx.kind == "host":
        return p.host_reg_base + n * p.host_reg_per_page
    return p.dpu_reg_base + n * p.dpu_reg_per_page


def reg_mr(ctx: ProcessContext, addr: int, size: int):
    """``ibv_reg_mr``: register [addr, addr+size); yields the time cost.

    Use as ``handle = yield from reg_mr(ctx, addr, size)``.
    """
    if not ctx.space.contains(addr, size):
        raise ProtectionError(
            f"{ctx!r}: registering unmapped range [{addr:#x}, +{size})"
        )
    from repro.verbs.rdma import verbs_state

    state = verbs_state(ctx.cluster)
    yield ctx.consume(registration_cost(ctx, addr, size))
    handle = MemoryRegionHandle(state.keys, ctx, addr, size, ctx.space.epoch)
    ctx.cluster.metrics.add(f"verbs.reg_mr.{ctx.kind}")
    bus = ctx.cluster.bus
    if bus is not None:
        bus.emit("reg", "mr", ctx.trace_name, size=size,
                 pages=pages_spanned(addr, size))
    return handle


def dereg_mr(ctx: ProcessContext, handle: MemoryRegionHandle) -> None:
    """Invalidate both keys of a registration (instantaneous)."""
    from repro.verbs.rdma import verbs_state

    state = verbs_state(ctx.cluster)
    state.keys.revoke(handle.lkey)
    state.keys.revoke(handle.rkey)
    ctx.cluster.metrics.add(f"verbs.dereg_mr.{ctx.kind}")
