"""Host-side API of the offload framework (paper Section VI).

Name mapping to the paper's C-style listings:

=============================  ==========================================
Paper                          Here
=============================  ==========================================
``Init_Offload()``             ``OffloadFramework(cluster)``
``Finalize_Offload()``         ``framework.finalize()``
``Send_Offload(...)``          ``yield from ep.send_offload(...)``
``Recv_Offload(...)``          ``yield from ep.recv_offload(...)``
``Wait(&req)``                 ``yield from ep.wait(req)``
``Group_Offload_start(&req)``  ``greq = ep.group_start()``
``Send_Goffload(...)``         ``ep.group_send(greq, ...)``
``Recv_Goffload(...)``         ``ep.group_recv(greq, ...)``
``Local_barrier_Goffload``     ``ep.group_barrier(greq)``
``Group_Offload_end(&req)``    ``ep.group_end(greq)``
``Group_Offload_call(&req)``   ``yield from ep.group_call(greq)``
``Group_Wait(&req)``           ``yield from ep.group_wait(greq)``
=============================  ==========================================

Recording functions (``group_send``/``group_recv``/``group_barrier``)
cost nothing in simulated time: they only append to the request's op
queue, as in the real library.  All cost is paid in ``group_call``
(registration through the caches, the descriptor gather, the packet
send) and then amortised away by the Section VII-D request caches on
repeat calls.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

from repro.hw.cluster import Cluster
from repro.hw.faults import RetryPolicy
from repro.hw.node import ProcessContext
from repro.mpi.regcache import RegistrationCache
from repro.offload.group_cache import HostGroupCache, SendEntry
from repro.offload.gvmi_cache import host_gvmi_cache
from repro.offload.proxy import ProxyEngine
from repro.offload.recovery import (
    EndpointRecovery,
    ProxyRecovery,
    arm_kills,
    check_kills,
)
from repro.offload.requests import (
    BARRIER,
    GroupOp,
    OffloadError,
    OffloadGroupRequest,
    OffloadRequest,
)
from repro.sim import Event, Store
from repro.verbs.gvmi import gvmi_id_of
from repro.verbs.rdma import post_control

__all__ = ["OffloadFramework", "OffloadEndpoint"]


class _CompletionSink:
    """Inbox adapter modelling the completion counter in host memory.

    The proxy's FIN is an RDMA write to pinned host memory; observing it
    costs the host nothing but a load.  Arrival therefore completes the
    request and triggers its event directly, with no host-CPU protocol
    handling -- the property that gives the framework its perfect
    overlap.
    """

    def __init__(self, endpoint: "OffloadEndpoint"):
        self.endpoint = endpoint

    def put(self, msg) -> None:
        ep = self.endpoint
        if isinstance(msg, tuple):  # a group completion: (req_id, call_no)
            msg, call_no = msg
            if ep.recovery is not None and ep.recovery.stale_fin(msg, call_no):
                return
        ep._complete_by_id(msg)


class OffloadFramework:
    """``Init_Offload``: proxies launched, ranks assigned, GVMI-IDs shared.

    The GVMI-ID generation happens "only once per protection domain ...
    inside Init_Offload() and exchanged with all other processes"
    (Section VII-A).  We model that one-time exchange as a setup delay
    (an allgather over world + proxies) rather than simulating each of
    the O(ranks x proxies) tiny messages individually.
    """

    def __init__(self, cluster: Cluster, mode: str = "gvmi",
                 group_caching: bool = True, gvmi_caching: bool = True,
                 retry: Optional[RetryPolicy] = None):
        if mode not in ("gvmi", "staged"):
            raise OffloadError(f"unknown offload mode {mode!r}")
        self.cluster = cluster
        self.sim = cluster.sim
        #: Admission window: max incomplete requests per endpoint before
        #: further posts block in simulated time (None = unbounded).
        self.max_outstanding = cluster.params.max_outstanding_offloads
        #: "gvmi": the proposed direct cross-GVMI mechanism.
        #: "staged": bounce through DPU DRAM (the BluesMPI-style baseline).
        self.mode = mode
        #: Section VII-D request caching (off reproduces the unoptimised /
        #: state-of-the-art per-call metadata exchange).
        self.group_caching = group_caching
        #: Section VII-B registration caching (off = register every time;
        #: the ablation for the array-of-BST cache design).
        self.gvmi_caching = gvmi_caching

        #: Fault/recovery wiring (docs/FAULTS.md).  A cluster with an
        #: installed FaultPlan gets the default RetryPolicy implicitly;
        #: the recovery layer (repro.offload.recovery) is installed iff
        #: there is a policy, so a clean run (no plan, no policy) is
        #: bit-identical to a build without the chaos machinery.
        self.fault_plan = cluster.fault_plan
        cluster.offload_initialized = True
        if retry is None and self.fault_plan is not None:
            retry = RetryPolicy()
        self.retry = retry
        self.resilient = retry is not None
        if retry is None and cluster.params.plan_cache_capacity is not None:
            raise OffloadError(
                f"MachineParams.plan_cache_capacity={cluster.params.plan_cache_capacity} "
                "needs a RetryPolicy (retry=, or an installed FaultPlan): an evicted "
                "plan comes back by plan_nack + re-ship, which is recovery (docs/RESOURCES.md)"
            )
        if self.fault_plan is not None:
            check_kills(self.fault_plan, len(cluster.proxies))
        #: (time, rank, kind, req_id) records of graceful degradations
        #: (requests that abandoned their proxy for the host path).
        self.fallback_log: list[tuple] = []

        #: Per-rank endpoints are built on first use; the proxy engines
        #: -- O(nodes), and the paper launches the DPU proxy processes
        #: inside Init_Offload (Section VII-A) -- all start here, so a
        #: control message never lands in an inbox nobody drains.
        self._endpoints: dict[int, OffloadEndpoint] = {}
        self._proxy_engines = {
            ctx.global_id: ProxyEngine(self, ctx) for ctx in cluster.proxies
        }
        if retry is not None:
            for engine in self._proxy_engines.values():
                ProxyRecovery(engine, retry)
            if self.fault_plan is not None:
                arm_kills(self)
        p = cluster.params
        world = cluster.world_size + len(cluster.proxies)
        setup = 2 * p.ctrl_latency + max(1, world - 1).bit_length() * (
            p.wire_latency + p.switch_hop_latency + p.host_injection_gap
        )
        self.ready: Event = self.sim.timeout(setup)
        self.finalized = False

    def endpoint(self, rank: int) -> "OffloadEndpoint":
        ep = self._endpoints.get(rank)
        if ep is None:
            ep = self._endpoints[rank] = OffloadEndpoint(
                self, self.cluster.ranks[rank]
            )
            if self.retry is not None:
                EndpointRecovery(ep, self.retry)
        return ep

    def proxy_engine(self, proxy_ctx: ProcessContext) -> ProxyEngine:
        return self._proxy_engines[proxy_ctx.global_id]

    def finalize(self) -> None:
        """``Finalize_Offload``: stop every proxy loop (each stops when the
        simulation next runs; :meth:`close` is the variant for a job that
        will not run again).  Posting afterwards raises ``OffloadError``."""
        if self.finalized:
            return
        self.finalized = True
        for ep in self._endpoints.values():
            ep._ready_seen = False  # next post takes _ensure_ready's slow path
        for engine in self._proxy_engines.values():
            engine.ctx.inbox.put(("stop",))

    def close(self) -> None:
        """``Finalize_Offload`` for a framework that will never run again:
        every proxy loop and recovery process is closed where it is
        parked, and the endpoints, engines and their inbox handlers (each
        points back here) are let go, processing no event."""
        self.finalized = True
        for owner in chain(self._proxy_engines.values(), self._endpoints.values()):
            if owner.recovery is not None:
                owner.recovery.close()
            owner.framework = owner.recovery = None
            owner.extra_handlers.clear()
        for engine in self._proxy_engines.values():
            engine.core.close()
            engine._parked.clear()
        for ep in self._endpoints.values():
            ep.completion_sink = None
            ep._ready_seen = False

    # -- diagnostics --------------------------------------------------------
    def assert_quiescent(self) -> None:
        """Raise if any proxy still holds unmatched or in-flight work."""
        for engine in self._proxy_engines.values():
            if engine.queued_rts or engine.queued_rtr:
                raise OffloadError(
                    f"proxy {engine.ctx.global_id}: unmatched RTS={engine.queued_rts} "
                    f"RTR={engine.queued_rtr}"
                )
            if engine.counters.pending_waits:
                raise OffloadError(
                    f"proxy {engine.ctx.global_id}: executors still waiting on counters"
                )
        for ep in self._endpoints.values():
            if ep._pending:
                raise OffloadError(f"rank {ep.rank}: incomplete offload requests")


class OffloadEndpoint:
    """Per-host-rank handle to the framework (owns the host-side caches)."""

    def __init__(self, framework: OffloadFramework, ctx: ProcessContext):
        if ctx.kind != "host":
            raise OffloadError("endpoints live on host ranks")
        self.framework = framework
        self.ctx = ctx
        self.sim = ctx.sim
        self.rank = ctx.global_id
        self.params = ctx.cluster.params
        self.gvmi_cache = host_gvmi_cache(ctx, enabled=framework.gvmi_caching)
        #: IB registration cache for *receive* buffers (Fig 9: "receive
        #: buffers are registered using IB registration cache").
        self.ib_cache = RegistrationCache(ctx, name=f"offload_ib_{self.rank}")
        self.group_cache = HostGroupCache(ctx=ctx)
        self.max_outstanding = framework.max_outstanding
        #: Control-message inbox (remote receive descriptors).
        self.inbox = Store(self.sim)
        self.completion_sink = _CompletionSink(self)
        #: Requests awaiting their completion write, by req_id.
        self._pending: dict[int, object] = {}
        #: Remote receive descriptors gathered for my sends, keyed by
        #: (destination rank, tag) -- Fig 9's matching key.  FIFO per
        #: key, mirroring the proxy's queue discipline; a key goes once
        #: its last descriptor is consumed.
        self._recv_descs: dict[tuple[int, int], list[dict]] = {}
        self._ready_seen = False
        #: Extension point, as on ProxyEngine: extra inbox-item handlers,
        #: kind -> generator(endpoint, payload).
        self.extra_handlers: dict[str, object] = {}
        #: The recovery policy layer (repro.offload.recovery), installed
        #: by the framework iff it has a RetryPolicy; None otherwise.
        self.recovery: Optional[EndpointRecovery] = None
        self.sim.watchdog_probes.append(self._watchdog_report)

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _ensure_ready(self):
        if not self._ready_seen:
            fw = self.framework
            if fw is None or fw.finalized:
                raise OffloadError(f"rank {self.rank}: post after Finalize_Offload")
            if not fw.ready.processed:
                yield fw.ready
            self._ready_seen = True

    def _complete_by_id(self, req_id: int) -> None:
        req = self._pending.pop(req_id, None)
        if req is None:
            if self.recovery is None:
                raise OffloadError(f"completion write for unknown request {req_id}")
            self.recovery.duplicate_completion()
            return
        req.complete = True
        req.complete_time = self.sim.now
        if req.post_time is not None:
            self.ctx.cluster.metrics.observe(
                "offload.req_latency", self.sim.now - req.post_time
            )
        bus = self.ctx.cluster.bus
        if bus is not None:
            if isinstance(req, OffloadGroupRequest):
                bus.emit("group", "done", self.ctx.trace_name, call=req.req_id)
            else:
                bus.emit("req", "complete", self.ctx.trace_name, rid=req.req_id)
        if req.event is not None and not req.event.triggered:
            req.event.succeed(None)

    def _register_pending(self, req) -> None:
        req.event = Event(self.sim)
        self._pending[req.req_id] = req

    def _watchdog_report(self):
        """Lines for :class:`repro.sim.DeadlockError` when the sim hangs."""
        if self._pending:
            ids = sorted(self._pending)
            yield f"rank {self.rank}: offload request(s) {ids} never completed"

    # ------------------------------------------------------------------
    # admission control (backpressure)
    # ------------------------------------------------------------------
    def _admit(self):
        """Block (in simulated time) while the outstanding window is full.

        A generator run before every post.  With a recovery policy
        installed the stall doubles as a mini recovery driver
        (:meth:`EndpointRecovery.admission_stall`) -- otherwise a lost
        control message could wedge the window shut forever.
        """
        limit = self.max_outstanding
        if limit is None:
            return
        timeout = None
        while len(self._pending) >= limit:
            events = [r.event for r in self._pending.values()
                      if r.event is not None and not r.event.processed]
            if not events:
                return
            self.ctx.cluster.metrics.add("offload.admission_stalls")
            bus = self.ctx.cluster.bus
            if bus is not None:
                bus.emit("req", "stall", self.ctx.trace_name,
                         outstanding=len(self._pending))
            if self.recovery is None:
                yield self.sim.any_of(events)
            else:
                timeout = yield from self.recovery.admission_stall(
                    events, limit, timeout)

    # ------------------------------------------------------------------
    # Basic primitives (Listing 2, Section VII-A)
    # ------------------------------------------------------------------
    def send_offload(self, addr: int, size: int, dst: int, tag: int):
        """``Send_Offload``: GVMI-register, RTS to my proxy; returns request."""
        yield from self._ensure_ready()
        yield from self._admit()
        req = OffloadRequest(kind="send", rank=self.rank, peer=dst, tag=tag,
                             addr=addr, size=size)
        self._register_pending(req)
        proxy = self.ctx.cluster.proxy_for_rank(self.rank)
        self.ctx.cluster.metrics.add("offload.basic_sends")
        if self.framework.mode == "staged":
            # Staging: the proxy will RDMA-READ the source buffer, so a
            # plain IB registration (rkey) suffices -- no GVMI involved.
            handle = yield from self.ib_cache.get(addr, size)
            rts = {
                "src": self.rank, "dst": dst, "tag": tag,
                "addr": addr, "size": size,
                "rkey": handle.rkey,
                "req_id": req.req_id,
            }
        else:
            gvmi = gvmi_id_of(proxy)
            mkey = yield from self.gvmi_cache.get(addr, size, proxy)
            rts = {
                "src": self.rank, "dst": dst, "tag": tag,
                "addr": addr, "size": size,
                # The mkey's own registered range (may cover more than
                # this transfer): the proxy cross-registers exactly it.
                "reg_addr": mkey.addr, "reg_size": mkey.size,
                "mkey": mkey.key, "gvmi_id": gvmi,
                "req_id": req.req_id,
            }
        if self.recovery is not None:
            req.resend = (proxy, ("rts", rts))
        req.post_time = self.sim.now
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("req", "post", self.ctx.trace_name, rid=req.req_id,
                     kind="send", peer=dst, tag=tag, size=size)
        yield from post_control(self.ctx, proxy, ("rts", rts), kind="rts")
        return req

    def recv_offload(self, addr: int, size: int, src: int, tag: int):
        """``Recv_Offload``: IB-register, RTR to the *sender's* proxy."""
        yield from self._ensure_ready()
        yield from self._admit()
        req = OffloadRequest(kind="recv", rank=self.rank, peer=src, tag=tag,
                             addr=addr, size=size)
        self._register_pending(req)
        handle = yield from self.ib_cache.get(addr, size)
        proxy = self.ctx.cluster.proxy_for_rank(src)
        self.ctx.cluster.metrics.add("offload.basic_recvs")
        rtr = {
            "src": src, "dst": self.rank, "tag": tag,
            "addr": addr, "size": size,
            "rkey": handle.rkey,
            "req_id": req.req_id,
        }
        if self.recovery is not None:
            req.resend = (proxy, ("rtr", rtr))
        req.post_time = self.sim.now
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("req", "post", self.ctx.trace_name, rid=req.req_id,
                     kind="recv", peer=src, tag=tag, size=size)
        yield from post_control(self.ctx, proxy, ("rtr", rtr), kind="rtr")
        return req

    def wait(self, req) -> None:
        """``Wait``/``Group_Wait``: block until the completion write lands.

        No protocol work happens here -- the host merely observes the
        completion counter (so an application that computes instead of
        waiting loses nothing: perfect overlap).  With a recovery policy
        installed the wait doubles as the recovery driver
        (:meth:`EndpointRecovery.await_completion`).
        """
        if not req.complete:
            if self.recovery is not None:
                yield from self.recovery.await_completion(req)
            else:
                yield req.event
        if isinstance(req, OffloadGroupRequest):
            req.state = "ready"

    def waitall(self, reqs) -> None:
        for req in reqs:
            yield from self.wait(req)

    # ------------------------------------------------------------------
    # Group primitives (Listing 4, Sections VII-C/D)
    # ------------------------------------------------------------------
    def group_start(self) -> OffloadGroupRequest:
        """``Group_Offload_start``: a fresh recording request object."""
        return OffloadGroupRequest(rank=self.rank)

    def group_send(self, greq: OffloadGroupRequest, addr: int, size: int, dst: int, tag: int) -> None:
        """``Send_Goffload``: record a send (no simulated cost)."""
        greq.record(GroupOp("send", addr=addr, size=size, peer=dst, tag=tag))

    def group_recv(self, greq: OffloadGroupRequest, addr: int, size: int, src: int, tag: int) -> None:
        """``Recv_Goffload``: record a receive."""
        greq.record(GroupOp("recv", addr=addr, size=size, peer=src, tag=tag))

    def group_reduce(self, greq: OffloadGroupRequest, src_addr: int,
                     dst_addr: int, size: int) -> None:
        """Record a DPU-side accumulate: ``dst += src`` over float64 words.

        The proxy's executor performs the arithmetic on its ARM cores
        (host buffers reached through the GVMI mapping), which is what
        lets a whole reduction collective progress with zero host CPU
        inside the window.  Place it *after* the barrier that awaits the
        receive feeding ``src_addr`` -- entries execute in recorded
        order, and only a barrier orders remote data arrival.
        """
        if size % 8:
            raise OffloadError("group_reduce operates on float64 words "
                               "(size must be a multiple of 8)")
        greq.record(GroupOp("reduce", addr=src_addr, addr2=dst_addr, size=size))

    def group_barrier(self, greq: OffloadGroupRequest) -> None:
        """``Local_barrier_Goffload``: everything after starts only after
        everything before completes (local to this rank's pattern)."""
        greq.record(BARRIER)

    def group_end(self, greq: OffloadGroupRequest) -> None:
        """``Group_Offload_end``: seal the recording (its cache signature
        is built here, once, not per call)."""
        if greq.state != "recording":
            raise OffloadError(f"Group_Offload_end in state {greq.state!r}")
        greq.seal()
        greq.state = "ready"

    def group_call(self, greq: OffloadGroupRequest):
        """``Group_Offload_call``: offload the recorded pattern (Fig 9).

        Cache miss: register every send buffer through the GVMI cache
        and every receive buffer through the IB cache, exchange receive
        descriptors with the sending hosts, match send entries against
        the gathered remote receive entries by (rank, tag), and ship the
        whole matched queue to the proxy as one contiguous packet.

        Cache hit: ship only the request/plan ID.
        """
        yield from self._ensure_ready()
        yield from self._admit()
        if greq.state == "recording":
            raise OffloadError("Group_Offload_call before Group_Offload_end")
        if greq.state == "inflight":
            raise OffloadError("Group_Offload_call while a previous call is in flight")
        greq.calls += 1
        greq.complete = False
        self._register_pending(greq)
        greq.state = "inflight"

        # Apply any descriptor updates that arrived since the last call
        # (keeps cached plans from going stale; see group_cache).
        yield from self._drain_inbox()

        caching = self.framework.group_caching
        plan = self.group_cache.lookup(greq.signature()) if caching else None
        metrics = self.ctx.cluster.metrics
        if plan is None:
            mode = "build"
            metrics.add("offload.group_call_build")
            plan = yield from self._build_plan(greq)
        elif plan.sent_to_proxy and not plan.dirty:
            mode = "cached"
            metrics.add("offload.group_call_cached")
        else:
            mode = "reship"
            metrics.add("offload.group_call_reship")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("group", "call", self.ctx.trace_name, mode=mode,
                     sig=plan.plan_id, call=greq.req_id)
        if self.recovery is not None:
            greq.resend_plan = plan
        greq.post_time = self.sim.now
        yield from self._ship_plan(greq, plan)
        if bus is not None:
            bus.emit("group", "offloaded", self.ctx.trace_name,
                     call=greq.req_id, sig=plan.plan_id)
        return greq

    def group_wait(self, greq: OffloadGroupRequest):
        """``Group_Wait`` (alias of :meth:`wait` for group requests)."""
        yield from self.wait(greq)

    # ------------------------------------------------------------------
    # group_call internals: prepare (build through the caches) + ship
    # ------------------------------------------------------------------
    def _ship_plan(self, greq: OffloadGroupRequest, plan) -> None:
        """Hand one call of ``plan`` to my proxy (a generator).

        The request/plan ID alone when the proxy holds a current copy
        (Section VII-D), else the whole matched queue as one contiguous
        packet.
        """
        proxy = self.ctx.cluster.proxy_for_rank(self.rank)
        packet = {"plan_id": plan.plan_id, "host_rank": self.rank,
                  "req_id": greq.req_id, "call_no": greq.calls}
        if plan.sent_to_proxy and not plan.dirty:
            yield from post_control(self.ctx, proxy, ("group_call", packet),
                                    kind="group_call")
            return
        packet["entries"] = plan.entries
        nbytes = max(
            self.params.ctrl_bytes,
            len(plan.entries) * self.params.group_op_bytes,
        )
        yield from post_control(self.ctx, proxy, ("group_plan", packet),
                                size=nbytes, kind="group_plan")
        plan.sent_to_proxy = True
        plan.dirty = False

    def _build_plan(self, greq: OffloadGroupRequest):
        """Cache miss: prepare the pattern (Fig 9's registration, descriptor
        exchange and matching) and file it under a new plan ID."""
        proxy = self.ctx.cluster.proxy_for_rank(self.rank)
        gvmi = gvmi_id_of(proxy)
        entries: list = []
        # Per-op bookkeeping cost of walking the recorded queue.
        yield self.ctx.consume(self.params.host_cache_lookup * max(1, len(greq.ops)))

        # Pass 1: register local buffers; send my receive descriptors to
        # the hosts that will write into them.
        staged = self.framework.mode == "staged"
        for op in greq.ops:
            if op.kind == "send":
                # dst_addr / rkey are resolved in pass 2.
                if staged:
                    handle = yield from self.ib_cache.get(op.addr, op.size)
                    entries.append(SendEntry(op, src_rkey=handle.rkey))
                else:
                    mkey = yield from self.gvmi_cache.get(op.addr, op.size, proxy)
                    entries.append(SendEntry(op, mkey=mkey.key, reg_addr=mkey.addr,
                                             reg_size=mkey.size, gvmi_id=gvmi))
                continue
            # A recv, reduce or barrier entry is the recorded op itself.
            # A reduce's two buffers are this rank's own memory, which the
            # proxy reaches through the GVMI mapping it already holds: no
            # registration or descriptor exchange.
            entries.append(op)
            if op.kind == "recv":
                handle = yield from self.ib_cache.get(op.addr, op.size)
                peer_ep = self.framework.endpoint(op.peer)
                desc = {
                    "src": op.peer, "dst": self.rank, "tag": op.tag,
                    "addr": op.addr, "size": op.size, "rkey": handle.rkey,
                }
                if self.recovery is not None:
                    self.recovery.stamp_descriptor(desc)
                yield from post_control(
                    self.ctx, peer_ep.ctx,
                    ("gdesc", desc),
                    inbox=peer_ep.inbox,
                    kind="gdesc",
                )

        # Pass 2: gather remote receive descriptors for my sends and
        # match by (destination rank, tag) -- Fig 9's matching step.
        for entry in entries:
            if entry.kind != "send":
                continue
            desc = yield from self._await_descriptor((entry.peer, entry.tag))
            if desc["size"] < entry.size:
                raise OffloadError(
                    f"group send of {entry.size} bytes overflows remote "
                    f"receive of {desc['size']} (dst={entry.peer} tag={entry.tag})"
                )
            entry.dst_addr = desc["addr"]
            entry.rkey = desc["rkey"]
        return self.group_cache.insert(greq.signature(), entries,
                                       keep=self.framework.group_caching)

    def _await_descriptor(self, key: tuple[int, int]) -> dict:
        while True:
            bucket = self._recv_descs.get(key)
            if bucket:
                desc = bucket.pop(0)
                if not bucket:
                    del self._recv_descs[key]
                return desc
            if self.recovery is None:
                item = yield self.inbox.get()
                yield from self._handle_inbox_item(item)
            else:
                yield from self.recovery.await_descriptor(key)

    def _drain_inbox(self):
        while True:
            ok, item = self.inbox.try_get()
            if not ok:
                return
            yield from self._handle_inbox_item(item)

    def _handle_inbox_item(self, item):
        kind = item[0]
        yield self.ctx.consume(self.params.host_handler_cost)
        if kind == "gdesc":
            desc = item[1]
            if self.recovery is not None and self.recovery.duplicate_descriptor(desc):
                return
            key = (desc["dst"], desc["tag"])
            self._recv_descs.setdefault(key, []).append(desc)
            # Patch cached plans if this supersedes an old descriptor.
            self.group_cache.patch_descriptor(desc["src"], desc["tag"], desc["dst"], desc)
        elif kind in self.extra_handlers:
            yield from self.extra_handlers[kind](self, item[1])
        else:  # pragma: no cover - defensive
            raise OffloadError(f"endpoint: unknown inbox item {kind!r}")
