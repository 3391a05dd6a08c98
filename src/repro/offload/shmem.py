"""An OpenSHMEM-flavoured one-sided front-end over the offload framework.

The paper claims its framework "is designed to be programming model
agnostic" (Section I-A): the primitives are not MPI-specific.  This
module substantiates that claim with a second front-end -- a partitioned
global address space API in the OpenSHMEM style:

* a **symmetric heap**: collective allocations that land at the same
  virtual address on every PE (our per-process bump allocators are
  deterministic, so symmetric allocation holds by construction and is
  asserted);
* one-sided ``put`` / ``get`` executed *by the DPU proxies* via
  cross-GVMI -- the initiating PE's CPU posts one control message and
  returns;
* ``quiet`` (complete my outstanding ops), ``wait_until`` (poll a local
  symmetric variable until a remote put lands), and a put-based
  dissemination ``barrier_all``.

Because puts are one-sided there is no RTS/RTR matching: the target's
heap rkeys are exchanged once at allocation time (the registry below),
exactly how OpenSHMEM implementations pre-register the symmetric heap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.hw.cluster import Cluster
from repro.mpi import schedules
from repro.mpi.regcache import RegistrationCache
from repro.offload.api import OffloadFramework
from repro.offload.gvmi_cache import host_gvmi_cache
from repro.offload.requests import OffloadError
from repro.sim import Event
from repro.verbs.gvmi import gvmi_id_of
from repro.verbs.rdma import post_control, rdma_read, rdma_write

__all__ = ["ShmemWorld", "ShmemEndpoint"]

_op_ids = itertools.count()


@dataclass
class _ShmemOp:
    """One outstanding one-sided operation."""

    kind: str  # "put" | "get"
    op_id: int = field(default_factory=lambda: next(_op_ids))
    complete: bool = False
    event: Optional[Event] = None


class ShmemWorld:
    """The SHMEM job: symmetric heap registry + per-PE endpoints.

    Reuses an :class:`OffloadFramework` in GVMI mode (one proxy set, one
    GVMI exchange); a job may drive both MPI-style and SHMEM-style
    traffic over the same proxies.
    """

    def __init__(self, cluster: Cluster, framework: Optional[OffloadFramework] = None):
        self.cluster = cluster
        self.framework = framework or OffloadFramework(cluster)
        if self.framework.mode != "gvmi":
            raise OffloadError("the SHMEM front-end requires cross-GVMI mode")
        self.endpoints = [
            ShmemEndpoint(self, rank) for rank in range(cluster.world_size)
        ]
        # Install the SHMEM handlers on every proxy engine.
        self.framework._shmem_world = self
        for engine in self.framework._proxy_engines.values():
            engine.extra_handlers["shmem_put"] = handle_shmem_put
            engine.extra_handlers["shmem_get"] = handle_shmem_get
        #: rkeys of symmetric-heap blocks: (pe, addr) -> rkey.
        self._rkeys: dict[tuple[int, int], int] = {}
        #: Collective-allocation bookkeeping (call index -> per-PE addr).
        self._alloc_calls: dict[int, dict[int, int]] = {}

    @property
    def n_pes(self) -> int:
        return self.cluster.world_size

    def endpoint(self, pe: int) -> "ShmemEndpoint":
        return self.endpoints[pe]

    def rkey_of(self, pe: int, addr: int) -> int:
        # The heap is registered in blocks; find the covering block.
        key = (pe, addr)
        rkey = self._rkeys.get(key)
        if rkey is not None:
            return rkey
        for (p, base), rk in self._rkeys.items():
            if p != pe:
                continue
            space = self.cluster.rank_ctx(pe).space
            size = space.size_of(base) if space.contains(base) else 0
            if base <= addr < base + size:
                return rk
        raise OffloadError(
            f"address {addr:#x} on PE {pe} is not in the symmetric heap "
            "(did every PE call symmetric_alloc collectively?)"
        )


class ShmemEndpoint:
    """Per-PE handle: the OpenSHMEM-style API surface."""

    def __init__(self, world: ShmemWorld, pe: int):
        self.world = world
        self.pe = pe
        self.ctx = world.cluster.rank_ctx(pe)
        self.sim = self.ctx.sim
        self.params = world.cluster.params
        self.gvmi_cache = host_gvmi_cache(self.ctx)
        self.ib_cache = RegistrationCache(self.ctx, name=f"shmem_{pe}")
        #: Outstanding one-sided ops awaiting proxy completion writes.
        self._pending: dict[int, _ShmemOp] = {}
        #: wait_until watchers: addr -> list[(predicate, event)].
        self._watchers: dict[int, list] = {}
        self._alloc_seq = 0
        self._barrier_flags: Optional[int] = None
        self._barrier_scratch: Optional[int] = None
        self._barrier_round_values: Optional[int] = None

    # ------------------------------------------------------------------
    # symmetric heap
    # ------------------------------------------------------------------
    def symmetric_alloc(self, size: int, fill: Optional[int] = None):
        """Collective: every PE allocates; addresses must agree.

        A generator; returns the symmetric address.  Registers the block
        (so remote PEs' proxies can address it) and publishes its rkey.
        """
        yield from self._ensure_ready()
        addr = self.ctx.space.alloc(size, fill=fill)
        handle = yield from self.ib_cache.get(addr, size)
        call = self._alloc_seq
        self._alloc_seq += 1
        record = self.world._alloc_calls.setdefault(call, {})
        record[self.pe] = addr
        others = [a for p, a in record.items() if p != self.pe]
        if any(a != addr for a in others):
            raise OffloadError(
                f"symmetric_alloc call {call}: PE {self.pe} got {addr:#x} but "
                f"peers got {sorted(set(others))} -- allocation orders diverged"
            )
        self.world._rkeys[(self.pe, addr)] = handle.rkey
        return addr

    # ------------------------------------------------------------------
    # one-sided ops
    # ------------------------------------------------------------------
    def put(self, dst_addr: int, src_addr: int, size: int, pe: int):
        """Non-blocking put: my [src_addr,+size) -> PE ``pe``'s dst_addr.

        The local DPU proxy moves the bytes via cross-GVMI; this call
        costs one GVMI-cache lookup and one control message.
        Returns an op handle; complete it with :meth:`quiet`.
        """
        yield from self._ensure_ready()
        yield from self._admit()
        proxy = self.world.cluster.proxy_for_rank(self.pe)
        gid = gvmi_id_of(proxy)
        mkey = yield from self.gvmi_cache.get(src_addr, size, proxy)
        rkey = self.world.rkey_of(pe, dst_addr)
        op = _ShmemOp("put")
        op.event = Event(self.sim)
        self._pending[op.op_id] = op
        self.ctx.cluster.metrics.add("shmem.puts")
        yield from post_control(
            self.ctx, proxy,
            ("shmem_put", {
                "src_pe": self.pe, "dst_pe": pe,
                "src_addr": src_addr, "dst_addr": dst_addr, "size": size,
                "mkey": mkey.key, "gvmi_id": gid,
                "reg_addr": mkey.addr, "reg_size": mkey.size,
                "rkey": rkey, "op_id": op.op_id,
            }),
        )
        return op

    def get(self, dst_addr: int, src_addr: int, size: int, pe: int):
        """Non-blocking get: PE ``pe``'s [src_addr,+size) -> my dst_addr."""
        yield from self._ensure_ready()
        yield from self._admit()
        proxy = self.world.cluster.proxy_for_rank(self.pe)
        gid = gvmi_id_of(proxy)
        # The proxy writes into *my* buffer: it needs an mkey2 over it.
        mkey = yield from self.gvmi_cache.get(dst_addr, size, proxy)
        rkey = self.world.rkey_of(pe, src_addr)
        op = _ShmemOp("get")
        op.event = Event(self.sim)
        self._pending[op.op_id] = op
        self.ctx.cluster.metrics.add("shmem.gets")
        yield from post_control(
            self.ctx, proxy,
            ("shmem_get", {
                "src_pe": pe, "dst_pe": self.pe,
                "src_addr": src_addr, "dst_addr": dst_addr, "size": size,
                "mkey": mkey.key, "gvmi_id": gid,
                "reg_addr": mkey.addr, "reg_size": mkey.size,
                "rkey": rkey, "op_id": op.op_id,
            }),
        )
        return op

    def quiet(self):
        """Block until every outstanding put/get of this PE completed."""
        while self._pending:
            op = next(iter(self._pending.values()))
            if not op.complete:
                yield op.event
            self._pending.pop(op.op_id, None)

    # fence == quiet here: proxy execution is FIFO per endpoint already.
    fence = quiet

    # ------------------------------------------------------------------
    # synchronisation
    # ------------------------------------------------------------------
    def wait_until(self, addr: int, predicate):
        """Suspend until ``predicate(first byte at addr)`` is true.

        Models OpenSHMEM's ``shmem_wait_until`` memory polling: remote
        puts into this PE trigger re-evaluation with no local CPU
        protocol work.
        """
        if predicate(int(self.ctx.space.view(addr, 1)[0])):
            return
        ev = Event(self.sim)
        self._watchers.setdefault(addr, []).append((predicate, ev))
        yield ev

    def barrier_all(self):
        """Put-based dissemination barrier over all PEs: the rounds of
        :func:`repro.mpi.schedules.barrier`, each a one-byte put of this
        barrier's value into the round peer's flag, then a wait for the
        same value in this PE's own flag of that round."""
        rounds = schedules.barrier(self.pe, self.world.n_pes).rounds
        if not rounds:
            return
        if self._barrier_flags is None:
            raise OffloadError("call ShmemWorld-wide barrier_init first")
        self._barrier_round_values += 1
        value = self._barrier_round_values % 250 + 1
        for send, _recv in rounds:
            flag = self._barrier_flags + send.off
            src = self._barrier_scratch + send.off
            self.ctx.space.view(src, 1)[0] = value
            yield from self.put(flag, src, 1, send.peer)
            yield from self.quiet()
            yield from self.wait_until(flag, lambda v: v == value)

    def barrier_init(self):
        """Collective: allocate the barrier's symmetric flag arrays."""
        slots = schedules.barrier(self.pe, self.world.n_pes).scratch_bytes
        self._barrier_flags = yield from self.symmetric_alloc(slots, fill=0)
        self._barrier_scratch = yield from self.symmetric_alloc(slots, fill=0)
        self._barrier_round_values = 0

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _ensure_ready(self):
        if not self.world.framework.ready.processed:
            yield self.world.framework.ready

    def _admit(self):
        """Backpressure: bound the per-PE outstanding one-sided window.

        With ``params.shmem_queue_depth`` set, a put/get whose window is
        full blocks (in simulated time) until an outstanding op
        completes -- the PGAS analogue of a bounded NIC work queue.
        Entries linger in ``_pending`` until :meth:`quiet`, so the
        window counts *incomplete* ops, not table entries.
        """
        depth = self.params.shmem_queue_depth
        if depth is None:
            return
        while True:
            incomplete = [op for op in self._pending.values() if not op.complete]
            if len(incomplete) < depth:
                return
            self.ctx.cluster.metrics.add("shmem.backpressure_stalls")
            bus = self.ctx.cluster.bus
            if bus is not None:
                bus.emit("req", "stall", self.ctx.trace_name,
                         outstanding=len(incomplete), api="shmem")
            yield self.sim.any_of(
                [op.event for op in incomplete if op.event is not None]
            )

    def _complete_op(self, op_id: int) -> None:
        op = self._pending.get(op_id)
        if op is None:
            raise OffloadError(f"completion for unknown SHMEM op {op_id}")
        op.complete = True
        if op.event is not None and not op.event.triggered:
            op.event.succeed(None)

    def _notify_write(self, addr: int, size: int) -> None:
        """A remote put landed on ``[addr, addr + size)``: wake the
        waiters on any byte of it whose predicate now holds."""
        for watched in [a for a in self._watchers if addr <= a < addr + size]:
            value = int(self.ctx.space.view(watched, 1)[0])
            still = []
            for predicate, ev in self._watchers[watched]:
                if predicate(value):
                    ev.succeed(value)
                else:
                    still.append((predicate, ev))
            if still:
                self._watchers[watched] = still
            else:
                del self._watchers[watched]


class _OpCompletionSink:
    """Adapter: a proxy completion write finishes a SHMEM op."""

    def __init__(self, endpoint: ShmemEndpoint):
        self.endpoint = endpoint

    def put(self, op_id: int) -> None:
        self.endpoint._complete_op(op_id)


# ---------------------------------------------------------------------------
# proxy-side handlers (installed onto ProxyEngine via its dispatch table)
# ---------------------------------------------------------------------------

def handle_shmem_put(engine, info: dict):
    """Proxy: cross-register the source, RDMA-write to the remote PE,
    then completion-write the initiator and nudge the target's waiters."""
    world: ShmemWorld = engine.framework._shmem_world
    mkey2 = yield from engine.gvmi_cache.get(
        info["reg_addr"], info["reg_size"],
        info["src_pe"], info["gvmi_id"], info["mkey"],
    )
    transfer = yield from rdma_write(
        engine.ctx,
        lkey=mkey2.key, src_addr=info["src_addr"],
        rkey=info["rkey"], dst_addr=info["dst_addr"],
        size=info["size"],
    )
    engine.ctx.cluster.metrics.add("proxy.shmem_puts")

    def _after():
        yield transfer.completed
        src_ep = world.endpoint(info["src_pe"])
        dst_ep = world.endpoint(info["dst_pe"])
        cl = engine.ctx.cluster
        cl.fabric.control(
            src_node=engine.ctx.node_id, dst_node=src_ep.ctx.node_id,
            initiator="dpu", inbox=_OpCompletionSink(src_ep),
            msg=info["op_id"], size=8, src_mem="dpu", dst_mem="host",
        )
        # Memory-polling wakeup at the target (no CPU protocol work).
        dst_ep._notify_write(info["dst_addr"], info["size"])

    engine.sim.process(_after())


def handle_shmem_get(engine, info: dict):
    """Proxy: cross-register the local PE's buffer, RDMA-read the remote."""
    world: ShmemWorld = engine.framework._shmem_world
    mkey2 = yield from engine.gvmi_cache.get(
        info["reg_addr"], info["reg_size"],
        info["dst_pe"], info["gvmi_id"], info["mkey"],
    )
    transfer = yield from rdma_read(
        engine.ctx,
        lkey=mkey2.key, local_addr=info["dst_addr"],
        rkey=info["rkey"], remote_addr=info["src_addr"],
        size=info["size"],
    )
    engine.ctx.cluster.metrics.add("proxy.shmem_gets")

    def _after():
        yield transfer.completed
        dst_ep = world.endpoint(info["dst_pe"])
        engine.ctx.cluster.fabric.control(
            src_node=engine.ctx.node_id, dst_node=dst_ep.ctx.node_id,
            initiator="dpu", inbox=_OpCompletionSink(dst_ep),
            msg=info["op_id"], size=8, src_mem="dpu", dst_mem="host",
        )

    engine.sim.process(_after())
