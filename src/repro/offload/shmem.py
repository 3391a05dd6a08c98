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

from functools import partial
from typing import Optional

from repro.hw.cluster import Cluster, LazySeq
from repro.mpi import schedules
from repro.offload.api import OffloadFramework
from repro.offload.requests import OffloadError, OffloadRequest
from repro.sim import Event
from repro.verbs.gvmi import gvmi_id_of
from repro.verbs.rdma import post_control, rdma_read, rdma_write

__all__ = ["ShmemWorld", "ShmemEndpoint"]


class ShmemWorld:
    """The SHMEM job: symmetric heap registry + per-PE endpoints.

    Reuses an :class:`OffloadFramework` in GVMI mode (one proxy set, one
    GVMI exchange); a job may drive both MPI-style and SHMEM-style
    traffic over the same proxies.  A PE is a front-end over its rank's
    :class:`~repro.offload.api.OffloadEndpoint`, built on first touch.
    SHMEM has no recovery protocol, so a framework with a
    ``RetryPolicy`` is rejected here rather than left to hang on the
    first lost put.
    """

    def __init__(self, cluster: Cluster, framework: Optional[OffloadFramework] = None):
        self.cluster = cluster
        self.framework = framework or OffloadFramework(cluster)
        if self.framework.mode != "gvmi":
            raise OffloadError("the SHMEM front-end requires cross-GVMI mode")
        if self.framework.resilient:
            raise OffloadError(
                "the SHMEM front-end has no recovery: a framework with a RetryPolicy "
                "(retry=, or an installed FaultPlan) cannot carry it (docs/FAULTS.md)"
            )
        self.endpoints = LazySeq("PE", cluster.world_size, partial(ShmemEndpoint, self))
        # Install the SHMEM handlers on every proxy engine.
        handlers = {"shmem_put": partial(handle_shmem_put, self),
                    "shmem_get": partial(handle_shmem_get, self)}
        for engine in self.framework._proxy_engines.values():
            engine.extra_handlers.update(handlers)
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
    """Per-PE handle: the OpenSHMEM-style API surface.

    Everything but the PGAS semantics is the PE's offload endpoint
    (``self.offload``): its readiness check, admission window
    (``max_outstanding_offloads``), request table, completion sink and
    registration caches.  A put or get is an ``OffloadRequest`` of kind
    ``"put"`` / ``"get"`` there, so a lost one shows in the deadlock
    report and in ``OffloadFramework.assert_quiescent``.
    """

    def __init__(self, world: ShmemWorld, pe: int):
        self.world = world
        self.pe = pe
        self.offload = world.framework.endpoint(pe)
        self.ctx = self.offload.ctx
        self.sim = self.ctx.sim
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
        yield from self.offload._ensure_ready()
        addr = self.ctx.space.alloc(size, fill=fill)
        handle = yield from self.offload.ib_cache.get(addr, size)
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
        return (yield from self._post("put", pe, src_addr, dst_addr, size))

    def get(self, dst_addr: int, src_addr: int, size: int, pe: int):
        """Non-blocking get: PE ``pe``'s [src_addr,+size) -> my dst_addr."""
        return (yield from self._post("get", pe, dst_addr, src_addr, size))

    def _post(self, kind: str, pe: int, local: int, remote: int, size: int):
        """One put or get through my offload endpoint: the proxy needs an
        mkey2 over my ``local`` buffer (it reads a put's source from it
        and writes a get's data into it) and PE ``pe``'s rkey over
        ``remote``."""
        offload = self.offload
        yield from offload._ensure_ready()
        yield from offload._admit()
        proxy = self.world.cluster.proxy_for_rank(self.pe)
        mkey = yield from offload.gvmi_cache.get(local, size, proxy)
        rkey = self.world.rkey_of(pe, remote)
        req = OffloadRequest(kind=kind, rank=self.pe, peer=pe, tag=0,
                             addr=local, size=size)
        offload._register_pending(req)
        self.ctx.cluster.metrics.add(f"shmem.{kind}s")
        src, dst = (self.pe, pe) if kind == "put" else (pe, self.pe)
        src_addr, dst_addr = (local, remote) if kind == "put" else (remote, local)
        req.post_time = self.sim.now
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("req", "post", self.ctx.trace_name, rid=req.req_id,
                     kind=kind, peer=pe, tag=0, size=size)
        yield from post_control(
            self.ctx, proxy,
            ("shmem_" + kind, {
                "src_pe": src, "dst_pe": dst,
                "src_addr": src_addr, "dst_addr": dst_addr, "size": size,
                "mkey": mkey.key, "gvmi_id": gvmi_id_of(proxy),
                "reg_addr": mkey.addr, "reg_size": mkey.size,
                "rkey": rkey, "req_id": req.req_id,
            }),
        )
        return req

    def quiet(self):
        """Block until every outstanding put/get of this PE completed
        (its offload endpoint drops a request when it completes)."""
        pending = self.offload._pending
        while True:
            req = next((r for r in pending.values() if r.kind in _ONE_SIDED), None)
            if req is None:
                return
            yield req.event

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


#: The request kinds :meth:`ShmemEndpoint.quiet` waits for.
_ONE_SIDED = ("put", "get")


# ---------------------------------------------------------------------------
# proxy-side handlers (installed onto ProxyEngine via its dispatch table,
# with the world bound in)
# ---------------------------------------------------------------------------

def handle_shmem_put(world: ShmemWorld, engine, info: dict):
    """Proxy: cross-register the source, RDMA-write to the remote PE;
    the write's CQE completes the initiator and nudges the target's
    waiters."""
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
    transfer.completed.callbacks.append(partial(_put_landed, world, engine, info))


def _put_landed(world: ShmemWorld, engine, info: dict, _cqe) -> None:
    _completion_write(engine, info["src_pe"], info)
    # Memory-polling wakeup at the target (no CPU protocol work).
    world.endpoint(info["dst_pe"])._notify_write(info["dst_addr"], info["size"])


def handle_shmem_get(world: ShmemWorld, engine, info: dict):
    """Proxy: cross-register the local PE's buffer, RDMA-read the remote;
    the read's CQE completes the initiator."""
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
    transfer.completed.callbacks.append(
        partial(_completion_write, engine, info["dst_pe"], info))


def _completion_write(engine, pe: int, info: dict, _cqe=None) -> None:
    """At the CQE, with no ARM charge: an 8-byte completion write into
    the initiating PE's completion sink."""
    engine._host_write(pe, info["req_id"], 8, "ctrl")
