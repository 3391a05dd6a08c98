"""The per-rank MPI runtime and its progress engine.

Design notes
------------

All protocol traffic lands in one per-rank :class:`~repro.sim.resources.Store`
(``incoming``); the progress engine is simply "drain the store and
handle each item".  Crucially, **the store is only drained from inside
MPI calls** -- ``isend``/``irecv``/``test``/``wait``/collectives.  While
the application computes, arrivals pile up unhandled.  This is the
faithful model of a host-progressed MPI and produces, by construction,
the CPU-intervention delays of the paper's Figure 1 case (1) and
Listing 1.

Protocols:

* **eager** (``size <= eager_threshold``): the sender snapshots the
  payload into a bounce buffer (CPU copy), hands it to the NIC and
  completes locally; the receiver pays a copy-out when it matches the
  arrival.  No receiver CPU is needed for delivery -- only for the
  match.
* **rendezvous** (large messages): the sender registers its buffer
  (through the registration cache) and sends an RTS carrying
  ``(addr, rkey, size)``.  When the *receiver* next enters an MPI call
  and matches the RTS, it registers its own buffer and issues an RDMA
  READ; on read completion it sends a FIN which completes the sender's
  request the next time the *sender* enters an MPI call.
* **intra-node**: a shared-memory copy (never offloaded; both sides
  pay CPU copies -- the reason the paper's 3DStencil overlap tops out
  around 78%).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.hw.node import ProcessContext
from repro.mpi.communicator import Communicator
from repro.mpi.datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    CollectiveRequest,
    Envelope,
    MpiError,
    MpiRequest,
)
from repro.mpi.matching import MatchingEngine, UnexpectedMessage
from repro.mpi.regcache import RegistrationCache
from repro.sim import Store
from repro.verbs.rdma import post_control, rdma_read

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import MpiWorld

__all__ = ["MpiRuntime"]


class MpiRuntime:
    """Everything rank-local: queues, matching, caches, accounting."""

    def __init__(self, world: "MpiWorld", ctx: ProcessContext):
        self.world = world
        self.ctx = ctx
        self.sim = ctx.sim
        self.rank = ctx.global_id
        self.params = ctx.cluster.params
        self.incoming = Store(self.sim)
        self.matching = MatchingEngine()
        self.regcache = RegistrationCache(ctx, name="ib")
        #: Rendezvous sends waiting for their FIN, by request id.
        self._awaiting_fin: dict[int, MpiRequest] = {}
        #: Active non-blocking collectives, in the order they started.
        self._collectives: list[CollectiveRequest] = []
        #: How many of them have a finished round whose successor is not
        #: started yet (``pending`` at 0).
        self._ready = 0
        #: ``(comm_id, dst) -> (dst world rank, same node?, peer runtime)``
        #: for every destination this rank has sent to.
        self._routes: dict[tuple[int, int], tuple] = {}
        #: Collectives started so far per communicator id (their tags).
        self._coll_seq: dict[int, int] = {}
        #: The dissemination barrier's bytes (never read), allocated once.
        self._barrier_pad: Optional[int] = None
        self.sim.watchdog_probes.append(self._watchdog_report)

    def _watchdog_report(self):
        """Lines for :class:`repro.sim.DeadlockError` when the sim hangs."""
        if self._awaiting_fin:
            yield (
                f"mpi rank {self.rank}: rendezvous send(s) "
                f"{sorted(self._awaiting_fin)} never saw a FIN"
            )
        posted = [(r.peer, r.tag) for r in self.matching._posted]
        if posted:
            yield (
                f"mpi rank {self.rank}: posted receive(s) unmatched "
                f"(peer, tag)={posted}"
            )
        if self._collectives:
            yield (
                f"mpi rank {self.rank}: {len(self._collectives)} "
                f"collective(s) still in flight"
            )

    # ------------------------------------------------------------------
    # point to point
    # ------------------------------------------------------------------
    def _route(self, comm: Communicator, dst: int) -> tuple:
        """Resolve and remember where ``comm``'s rank ``dst`` lives."""
        dst_world = comm.world_rank(dst)
        if dst_world == self.rank:
            raise MpiError("self-sends must be copied locally (copy_local)")
        route = self._routes[comm.comm_id, dst] = (
            dst_world, self.ctx.cluster.same_node(self.rank, dst_world),
            self.world.runtime(dst_world))
        return route

    def isend(self, comm: Communicator, dst: int, addr: int, size: int, tag: int = 0):
        """Non-blocking send; returns an :class:`MpiRequest`."""
        if tag < 0:
            raise MpiError("send tag must be non-negative")
        if size < 0:
            raise MpiError("negative message size")
        src_world = self.rank
        dst_world, same_node, peer_rt = (
            self._routes.get((comm.comm_id, dst)) or self._route(comm, dst))
        env = Envelope(src_world, dst_world, tag, comm.comm_id)
        req = MpiRequest("send", src_world, dst_world, tag, comm.comm_id, addr, size)
        yield self.ctx.consume(self.params.mpi_call_overhead)
        if same_node:
            proto = "shm"
        elif size <= self.params.eager_threshold:
            proto = "eager"
        else:
            proto = "rndv"
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("mpi", "isend", self.ctx.trace_name,
                     peer=dst_world, tag=tag, size=size, proto=proto)
        if proto == "shm":
            yield from self._shm_send(env, req, peer_rt)
        elif proto == "eager":
            yield from self._eager_send(env, req, peer_rt)
        else:
            yield from self._rndv_send(env, req, peer_rt)
        return req

    def _eager_send(self, env: Envelope, req: MpiRequest, peer_rt: "MpiRuntime") -> None:
        ctx = self.ctx
        # Copy into the bounce buffer: the snapshot is what eager means,
        # so this must be read_copy -- the app may overwrite the send
        # buffer the moment the request completes locally.
        yield ctx.consume(req.size / self.params.copy_bandwidth)
        payload = (
            ctx.space.read_copy(req.addr, req.size)
            if req.size and ctx.cluster.payloads
            else None
        )
        yield ctx.consume(ctx.hca.post_overhead("host"))
        ctx.cluster.metrics.add("mpi.eager_sends")
        ctx.cluster.fabric.transfer(
            src_node=ctx.node_id,
            dst_node=peer_rt.ctx.node_id,
            size=req.size,
            initiator="host",
            src_mem="host",
            dst_mem="host",
            on_deliver=lambda dv: peer_rt.incoming.put(("eager", env, payload, req.size)),
            kind="eager",
        )
        # Locally complete: the buffer is reusable once the NIC has it.
        self._complete(req)

    def _rndv_send(self, env: Envelope, req: MpiRequest, peer_rt: "MpiRuntime") -> None:
        handle = yield from self.regcache.get(req.addr, req.size)
        req.state = "rts_sent"
        self._awaiting_fin[req.req_id] = req
        self.ctx.cluster.metrics.add("mpi.rndv_sends")
        yield from post_control(
            self.ctx,
            peer_rt.ctx,
            ("rts", env, req.size, handle.rkey, req.addr, req.req_id),
            inbox=peer_rt.incoming,
        )

    def _shm_send(self, env: Envelope, req: MpiRequest, peer_rt: "MpiRuntime") -> None:
        ctx = self.ctx
        p = self.params
        # Snapshot semantics, as in _eager_send: the sender reuses the
        # buffer after local completion, so the payload must be a copy.
        yield ctx.consume(p.shm_cpu_cost + req.size / p.copy_bandwidth)
        payload = (
            ctx.space.read_copy(req.addr, req.size)
            if req.size and ctx.cluster.payloads
            else None
        )
        incoming = peer_rt.incoming
        item = ("shm", env, payload, req.size)
        delay = p.shm_latency + req.size / p.shm_bandwidth
        ctx.cluster.metrics.add("mpi.shm_sends")

        # Where a helper process would start, a kick arms the copy's delay.
        def _arm(_kick):
            self.sim.timeout(delay).callbacks.append(lambda _ev: incoming.put(item))

        self.sim.call_at(self.sim.now, _arm)
        self._complete(req)

    def irecv(self, comm: Communicator, src: int, addr: int, size: int, tag: int = ANY_TAG):
        """Non-blocking receive; ``src`` may be :data:`ANY_SOURCE`."""
        src_world = ANY_SOURCE if src == ANY_SOURCE else comm.world_rank(src)
        req = MpiRequest("recv", self.rank, src_world, tag, comm.comm_id, addr, size)
        yield self.ctx.consume(self.params.mpi_call_overhead)
        um = self.matching.post_recv(req)
        if um is not None:
            yield from self._serve_matched(req, um.kind, um.envelope, um.payload, um.meta)
        return req

    # ------------------------------------------------------------------
    # the progress engine
    # ------------------------------------------------------------------
    def _drain(self):
        """Handle everything currently queued, then advance collectives."""
        while True:
            ok, item = self.incoming.try_get()
            if not ok:
                break
            yield from self._handle(item)
        if self._ready:
            yield from self._advance_collectives()

    def test(self, req):
        """One progress pass; returns True if ``req`` is complete."""
        yield self.ctx.consume(self.params.mpi_call_overhead)
        yield from self._drain()
        return bool(req.complete)

    def wait(self, req):
        """Block (progressing) until ``req`` completes."""
        yield self.ctx.consume(self.params.mpi_call_overhead)
        yield from self._drain()
        while not req.complete:
            item = yield self.incoming.get()
            yield from self._handle(item)
            yield from self._drain()

    def _complete(self, req) -> None:
        req.complete = True
        req.complete_time = self.sim.now
        coll = req.coll
        if coll is not None:
            # One fewer request holds up the collective's round; the
            # link goes with it, so a request never outlives its round
            # pointing at the collective.
            req.coll = None
            coll.pending -= 1
            if not coll.pending:
                self._ready += 1
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("mpi", "complete", self.ctx.trace_name,
                     kind=req.kind, peer=req.peer, tag=req.tag, size=req.size)

    def _handle(self, item) -> None:
        kind = item[0]
        if kind in ("eager", "shm"):
            _, env, payload, size = item
            yield self.ctx.consume(self.params.host_handler_cost)
            matched = self.matching.match_arrival(env)
            if matched is None:
                self.matching.add_unexpected(
                    UnexpectedMessage(env, kind, payload, size, self.sim.now)
                )
            else:
                yield from self._serve_matched(matched, kind, env, payload, size)
        elif kind == "rts":
            _, env, size, rkey, raddr, send_req_id = item
            yield self.ctx.consume(self.params.host_handler_cost)
            matched = self.matching.match_arrival(env)
            meta = (rkey, raddr, send_req_id)
            if matched is None:
                self.matching.add_unexpected(
                    UnexpectedMessage(env, "rts", size, meta, self.sim.now)
                )
            else:
                yield from self._serve_matched(matched, "rts", env, size, meta)
        elif kind == "read_done":
            _, recv_req, env, send_req_id = item
            self._finish_recv(recv_req, env)
            sender_rt = self.world.runtime(env.src)
            yield from post_control(
                self.ctx, sender_rt.ctx, ("fin", send_req_id), inbox=sender_rt.incoming
            )
        elif kind == "fin":
            _, send_req_id = item
            req = self._awaiting_fin.pop(send_req_id, None)
            if req is None:
                raise MpiError(f"FIN for unknown send request {send_req_id}")
            self._complete(req)
        else:
            raise MpiError(f"unknown protocol item {kind!r}")

    def _serve_matched(self, req: MpiRequest, kind: str, env: Envelope, payload, meta):
        """A posted receive met its message (either order)."""
        if kind in ("eager", "shm"):
            size = meta
            if size > req.size:
                raise MpiError(
                    f"message of {size} bytes overflows posted receive of {req.size}"
                )
            yield self.ctx.consume(size / self.params.copy_bandwidth)
            if payload is not None and size:
                self.ctx.space.write(req.addr, payload)
            self._finish_recv(req, env)
        elif kind == "rts":
            size = payload  # for RTS items the payload slot carries the size
            rkey, raddr, send_req_id = meta
            if size > req.size:
                raise MpiError(
                    f"rendezvous message of {size} bytes overflows posted "
                    f"receive of {req.size}"
                )
            handle = yield from self.regcache.get(req.addr, req.size)
            transfer = yield from rdma_read(
                self.ctx,
                lkey=handle.lkey,
                local_addr=req.addr,
                rkey=rkey,
                remote_addr=raddr,
                size=size,
            )
            item = ("read_done", req, env, send_req_id)

            def _read_done(ev):
                if not ev._ok:
                    raise ev._value     # a failed read may not pass silently
                self.incoming.put(item)

            # Where a helper process would start, a kick hooks the read's
            # completion (an ack after delivery, so never this instant).
            completed = transfer.completed
            self.sim.call_at(self.sim.now,
                             lambda _kick: completed.callbacks.append(_read_done))
        else:  # pragma: no cover - defensive
            raise MpiError(f"unknown matched kind {kind!r}")

    def _finish_recv(self, req: MpiRequest, env: Envelope) -> None:
        req.matched_src = env.src
        req.matched_tag = env.tag
        self._complete(req)

    # ------------------------------------------------------------------
    # non-blocking collectives plumbing
    # ------------------------------------------------------------------
    def start_collective(self, coll: CollectiveRequest):
        """Register a collective and run its first round (a generator)."""
        self._collectives.append(coll)
        yield from self._start_round(coll)

    def _start_round(self, coll: CollectiveRequest):
        """The host interpreter of :mod:`repro.mpi.schedules`: post the
        next round's ops; a round that posts no request (nothing for
        this rank to do, or only local work) falls through.

        Posting completes no request but the one being posted, so the
        round's still-incomplete requests are counted into ``pending``
        as they are posted and each one's completion counts down."""
        rounds, comm, tag, bufs = coll.rounds, coll.comm, coll.tag, coll.bufs
        while coll.round_idx < len(rounds):
            posted = pending = 0
            for op in rounds[coll.round_idx]:
                kind = op.kind
                addr = bufs[op.buf] + op.off
                if kind == "send" or kind == "recv":
                    post = self.isend if kind == "send" else self.irecv
                    req = yield from post(comm, op.peer, addr, op.nbytes, tag + op.tag)
                    posted += 1
                    if not req.complete:
                        req.coll = coll
                        pending += 1
                elif kind == "copy":
                    yield from self.copy_local(bufs[op.src] + op.src_off, addr, op.nbytes)
                else:
                    yield from self._accumulate(bufs[op.src] + op.src_off, addr, op.nbytes)
            coll.round_idx += 1
            if posted:
                coll.pending = pending
                if not pending:
                    self._ready += 1
                return
        self._finish_collective(coll)

    def _advance_collectives(self):
        """Start the next round of every collective whose round has
        finished, in the order the collectives started, until none has."""
        while self._ready:
            for coll in list(self._collectives):
                if not coll.pending:
                    self._ready -= 1
                    yield from self._start_round(coll)

    def _finish_collective(self, coll: CollectiveRequest) -> None:
        coll.complete = True
        coll.complete_time = self.sim.now
        if coll in self._collectives:
            self._collectives.remove(coll)
        if coll.owned_scratch is not None:
            self.ctx.free(coll.owned_scratch)

    # ------------------------------------------------------------------
    # local data movement helper
    # ------------------------------------------------------------------
    def copy_local(self, src_addr: int, dst_addr: int, size: int):
        """memcpy within this rank (self-block of collectives)."""
        yield self.ctx.consume(size / self.params.copy_bandwidth)
        if size and self.ctx.cluster.payloads:
            self.ctx.space.write(dst_addr, self.ctx.space.read(src_addr, size))

    def _accumulate(self, src_addr: int, dst_addr: int, size: int):
        """``dst += src`` over float64 words, at the host's flop rate."""
        count = size // 8
        yield self.ctx.consume(count / self.params.host_flops_per_core)
        if self.ctx.cluster.payloads:
            space = self.ctx.space
            space.write(dst_addr, space.read_as(dst_addr, np.float64, count)
                        + space.read_as(src_addr, np.float64, count))
