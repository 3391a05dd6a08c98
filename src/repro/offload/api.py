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

import itertools
from typing import Optional

from repro.hw.cluster import Cluster
from repro.hw.faults import RetryPolicy
from repro.hw.node import ProcessContext
from repro.mpi.regcache import RegistrationCache
from repro.offload.group_cache import HostGroupCache
from repro.offload.gvmi_cache import HostGvmiCache
from repro.offload.proxy import ProxyEngine
from repro.offload.requests import (
    GroupOp,
    OffloadError,
    OffloadGroupRequest,
    OffloadRequest,
)
from repro.sim import Event, Store
from repro.verbs.gvmi import gvmi_id_of
from repro.verbs.rdma import post_control, rdma_read

__all__ = ["OffloadFramework", "OffloadEndpoint"]

#: Unique ids stamped on group receive descriptors so the receiving
#: endpoint can discard fault-injected duplicates/replays.
_desc_ids = itertools.count(1)


class _RecoverySink:
    """Inbox adapter for proxy recovery notifications.

    ``stale_nack``/``oom_nack`` control messages land here.  Each
    arrival spawns an independent handler process, so recovery makes
    progress even while the application computes or sits in a plain
    (non-resilient) wait -- draining the shared endpoint inbox from
    ``wait`` would change clean-run timing, which the golden traces
    forbid.
    """

    def __init__(self, endpoint: "OffloadEndpoint"):
        self.endpoint = endpoint

    def put(self, item) -> None:
        kind, info = item
        ep = self.endpoint
        ep.sim.process(ep._on_recovery(kind, info))


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
        if isinstance(msg, tuple):
            req_id, call_no = msg
            req = self.endpoint._pending.get(req_id)
            if req is not None and getattr(req, "calls", call_no) != call_no:
                # FIN for an earlier call of this re-used group request
                # (a retransmit raced the next call): the live call has
                # its own FIN coming, so this one must not complete it.
                self.endpoint.ctx.cluster.metrics.add(
                    "offload.stale_fins_dropped")
                return
            self.endpoint._complete_by_id(req_id)
            return
        self.endpoint._complete_by_id(msg)


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
                 retry: Optional[RetryPolicy] = None,
                 max_outstanding: Optional[int] = None):
        if mode not in ("gvmi", "staged"):
            raise OffloadError(f"unknown offload mode {mode!r}")
        self.cluster = cluster
        self.sim = cluster.sim
        #: Admission window: max incomplete requests per endpoint before
        #: further posts block in simulated time (None = unbounded).
        if max_outstanding is None:
            max_outstanding = cluster.params.max_outstanding_offloads
        self.max_outstanding = max_outstanding
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
        #: ``resilient`` gates EVERY recovery branch in the stack so a
        #: clean run (no plan, no policy) is bit-identical to a build
        #: without the chaos machinery.
        self.fault_plan = cluster.fault_plan
        if retry is None and self.fault_plan is not None:
            retry = RetryPolicy()
        self.retry = retry
        self.resilient = retry is not None
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
        if self.fault_plan is not None:
            for kill in self.fault_plan.kills:
                self.sim.process(self._execute_kill(kill))
        p = cluster.params
        world = cluster.world_size + len(cluster.proxies)
        setup = 2 * p.ctrl_latency + max(1, world - 1).bit_length() * (
            p.wire_latency + p.switch_hop_latency + p.host_injection_gap
        )
        self.ready: Event = self.sim.timeout(setup)
        self.finalized = False

    def _execute_kill(self, kill):
        """Arm one scheduled ProxyKillPlan (a simulation process)."""
        plan = self.fault_plan
        engine = self.proxy_engine(self.cluster.proxies[kill.proxy_gid])
        yield self.sim.timeout(max(0.0, kill.at - self.sim.now))
        plan.stats["kills"] += 1
        plan.record("kill", f"proxy{kill.proxy_gid}")
        engine.kill()
        if kill.restart_after is not None:
            yield self.sim.timeout(kill.restart_after)
            plan.stats["restarts"] += 1
            plan.record("restart", f"proxy{kill.proxy_gid}")
            engine.restart()

    def endpoint(self, rank: int) -> "OffloadEndpoint":
        ep = self._endpoints.get(rank)
        if ep is None:
            ep = self._endpoints[rank] = OffloadEndpoint(
                self, self.cluster.ranks[rank]
            )
        return ep

    def proxy_engine(self, proxy_ctx: ProcessContext) -> ProxyEngine:
        return self._proxy_engines[proxy_ctx.global_id]

    def proxy_engine_for_rank(self, rank: int) -> ProxyEngine:
        return self.proxy_engine(self.cluster.proxy_for_rank(rank))

    def finalize(self) -> None:
        """``Finalize_Offload``: stop every proxy loop."""
        if self.finalized:
            return
        self.finalized = True
        for engine in self._proxy_engines.values():
            engine.ctx.inbox.put(("stop",))

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
        self.gvmi_cache = HostGvmiCache(ctx, enabled=framework.gvmi_caching)
        #: IB registration cache for *receive* buffers (Fig 9: "receive
        #: buffers are registered using IB registration cache").
        self.ib_cache = RegistrationCache(ctx, name=f"offload_ib_{self.rank}")
        self.group_cache = HostGroupCache(ctx=ctx)
        self.max_outstanding = framework.max_outstanding
        #: Control-message inbox (remote receive descriptors).
        self.inbox = Store(self.sim)
        self.completion_sink = _CompletionSink(self)
        #: Proxy recovery notifications (stale_nack / oom_nack) land
        #: here and run in their own processes.
        self.recovery_sink = _RecoverySink(self)
        #: Requests awaiting their completion write, by req_id.
        self._pending: dict[int, object] = {}
        #: Remote receive descriptors gathered for my sends, keyed by
        #: (destination rank, tag) -- Fig 9's matching key.  FIFO per
        #: key, mirroring the proxy's queue discipline.
        self._recv_descs: dict[tuple[int, int], list[dict]] = {}
        self._ready_seen = False

        # -- resilience state (only touched when framework.resilient) ---
        self.retry = framework.retry
        self.resilient = framework.resilient
        #: Fallback offers (fb_rts) not yet matched to a local receive.
        self._fb_rts: list[dict] = []
        #: src_req ids already served by a fallback pull (idempotent
        #: fb_fin resend on duplicate offers).
        self._fb_served: dict[int, int] = {}
        #: desc_ids of group descriptors already applied (dup discard).
        self._gdesc_seen: set[int] = set()
        #: Descriptors I sent, keyed (sender rank, tag), replayed on a
        #: gdesc_req when the original was lost.
        self._gdesc_sent: dict[tuple[int, int], list[dict]] = {}
        self.sim.watchdog_probes.append(self._watchdog_report)

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _ensure_ready(self):
        if not self._ready_seen:
            if not self.framework.ready.processed:
                yield self.framework.ready
            self._ready_seen = True

    def _complete_by_id(self, req_id: int) -> None:
        req = self._pending.pop(req_id, None)
        if req is None:
            if self.resilient:
                # Duplicate FIN: a retransmit-triggered resend, or a
                # revived proxy finishing work the fallback path already
                # completed.  Benign under recovery -- count and drop.
                self.ctx.cluster.metrics.add("offload.dup_completions")
                return
            raise OffloadError(f"completion write for unknown request {req_id}")
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
            req.event.succeed(req)

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

        A generator run before every post.  With resilience armed the
        stall doubles as a mini recovery driver: it drains the inbox,
        serves fallback offers, and nudges the oldest request with a
        retransmit when nothing completes -- otherwise a lost control
        message could wedge the window shut forever.
        """
        limit = self.max_outstanding
        if limit is None:
            return
        timeout = self.retry.timeout if self.resilient else 0.0
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
            if not self.resilient:
                yield self.sim.any_of(events)
                continue
            yield self.sim.any_of(events + [self.sim.timeout(timeout)])
            yield from self._drain_inbox()
            yield from self._try_fb_matches()
            if len(self._pending) >= limit and not any(e.processed for e in events):
                oldest = next(iter(self._pending.values()))
                if not oldest.complete:
                    yield from self._retransmit(oldest)
                timeout = min(timeout * self.retry.backoff, self.retry.max_timeout)

    # ------------------------------------------------------------------
    # proxy recovery notifications (stale keys, memory exhaustion)
    # ------------------------------------------------------------------
    def _on_recovery(self, kind: str, info: dict):
        """Handle one stale_nack / oom_nack (its own simulation process)."""
        yield self.ctx.consume(self.params.host_handler_cost)
        req = self._pending.get(info["req_id"])
        if req is None or req.complete or not isinstance(req, OffloadRequest):
            return
        if kind == "stale_key":
            yield from self._repost_stale(req)
        elif kind == "oom_nack":
            if not req.fallback:
                self.ctx.cluster.metrics.add("offload.oom_fallbacks")
                yield from self._engage_fallback(req)
        else:  # pragma: no cover - defensive
            raise OffloadError(f"endpoint: unknown recovery item {kind!r}")

    def _repost_stale(self, req: OffloadRequest):
        """The proxy faulted on one of my revoked keys: re-register and
        re-post.

        The free that revoked the keys also invalidated the host-side
        caches (free listeners), so going back through them mints fresh
        registrations over the buffer's current incarnation.  Requires
        the range to be mapped again -- re-registering a still-freed
        buffer faults loudly, which is correct: the data to send no
        longer exists.
        """
        self.ctx.cluster.metrics.add("offload.stale_reposts")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("req", "repost", self.ctx.trace_name, rid=req.req_id,
                     kind=req.kind)
        cluster = self.framework.cluster
        if req.kind == "send":
            proxy = cluster.proxy_for_rank(self.rank)
            if self.framework.mode == "gvmi":
                gvmi = gvmi_id_of(proxy)
                mkey = yield from self.gvmi_cache.get(proxy, gvmi, req.addr, req.size)
                msg = ("rts", {
                    "src": self.rank, "dst": req.peer, "tag": req.tag,
                    "addr": req.addr, "size": req.size,
                    "reg_addr": mkey.addr, "reg_size": mkey.size,
                    "mkey": mkey.key, "gvmi_id": gvmi,
                    "req_id": req.req_id,
                })
            else:
                handle = yield from self.ib_cache.get(req.addr, req.size)
                msg = ("rts", {
                    "src": self.rank, "dst": req.peer, "tag": req.tag,
                    "addr": req.addr, "size": req.size,
                    "rkey": handle.rkey,
                    "req_id": req.req_id,
                })
        else:
            proxy = cluster.proxy_for_rank(req.peer)
            handle = yield from self.ib_cache.get(req.addr, req.size)
            msg = ("rtr", {
                "src": req.peer, "dst": self.rank, "tag": req.tag,
                "addr": req.addr, "size": req.size,
                "rkey": handle.rkey,
                "req_id": req.req_id,
            })
        if self.resilient:
            req.resend = (proxy, msg)
        yield from post_control(self.ctx, proxy, msg, kind=msg[0])

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
            mkey = yield from self.gvmi_cache.get(proxy, gvmi, addr, size)
            rts = {
                "src": self.rank, "dst": dst, "tag": tag,
                "addr": addr, "size": size,
                # The mkey's own registered range (may cover more than
                # this transfer): the proxy cross-registers exactly it.
                "reg_addr": mkey.addr, "reg_size": mkey.size,
                "mkey": mkey.key, "gvmi_id": gvmi,
                "req_id": req.req_id,
            }
        if self.resilient:
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
        if self.resilient:
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
        waiting loses nothing: perfect overlap).  With resilience armed
        the wait doubles as the recovery driver: it retransmits the
        request's control message with exponential backoff, serves
        fallback offers from peers, and -- past the liveness deadline --
        degrades a basic operation to the host-driven path.
        """
        if not req.complete:
            if self.resilient:
                yield from self._wait_resilient(req)
            else:
                yield req.event
        if isinstance(req, OffloadGroupRequest):
            req.state = "ready"

    def _wait_resilient(self, req) -> None:
        pol = self.retry
        start = self.sim.now
        timeout = pol.timeout
        attempts = 0
        while not req.complete:
            yield self.sim.any_of([req.event, self.sim.timeout(timeout)])
            if req.complete:
                break
            yield from self._drain_inbox()
            yield from self._try_fb_matches()
            if req.complete:
                break
            attempts += 1
            if attempts > pol.max_attempts:
                raise OffloadError(
                    f"rank {self.rank}: request {req.req_id} still incomplete "
                    f"after {pol.max_attempts} retransmits"
                )
            if (
                isinstance(req, OffloadRequest)
                and not req.fallback
                and self.sim.now - start >= pol.fallback_after
            ):
                yield from self._engage_fallback(req)
            else:
                yield from self._retransmit(req)
            timeout = min(timeout * pol.backoff, pol.max_timeout)
        if attempts:
            # Recovery latency: how long a request that needed at least
            # one retransmit/fallback took from the first wait to its
            # completion.  The soak harness's SLO report (p50/p95/p99)
            # is built from this histogram; clean waits (attempts == 0)
            # record nothing, so fault-free runs are unchanged.
            self.ctx.cluster.metrics.observe(
                "offload.recovery_latency", self.sim.now - start
            )

    def _retransmit(self, req) -> None:
        self.ctx.cluster.metrics.add("offload.retransmits")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("req", "retransmit", self.ctx.trace_name, rid=req.req_id)
        if isinstance(req, OffloadGroupRequest):
            yield from self._retransmit_group(req)
            return
        if req.fallback and req.kind == "send":
            # The offer itself may have been lost: repeat it.
            yield from self._send_fb_rts(req)
            return
        proxy, msg = req.resend
        yield from post_control(self.ctx, proxy, msg, kind=msg[0])

    def _retransmit_group(self, greq: OffloadGroupRequest) -> None:
        plan = greq.resend_plan
        if plan is None:  # pragma: no cover - defensive
            raise OffloadError("group retransmit without a saved plan")
        if greq.needs_rebuild:
            yield from self._rebuild_group(greq)
            return
        proxy = self.ctx.cluster.proxy_for_rank(self.rank)
        if plan.sent_to_proxy and not plan.dirty:
            yield from post_control(
                self.ctx, proxy,
                ("group_call", {"plan_id": plan.plan_id, "host_rank": self.rank,
                                "req_id": greq.req_id,
                                "call_no": greq.calls}),
                kind="group_call",
            )
            return
        packet = {
            "plan_id": plan.plan_id,
            "host_rank": self.rank,
            "entries": plan.entries,
            "req_id": greq.req_id,
            "call_no": greq.calls,
        }
        nbytes = max(
            self.params.ctrl_bytes,
            len(plan.entries) * self.params.group_op_bytes,
        )
        yield from post_control(self.ctx, proxy, ("group_plan", packet),
                                size=nbytes, kind="group_plan")
        plan.sent_to_proxy = True
        plan.dirty = False

    def _rebuild_group(self, greq: OffloadGroupRequest) -> None:
        """Stale-plan recovery: rebuild from scratch and ship the result.

        The proxy faulted on a revoked key inside the plan, so the saved
        entries are poison -- re-shipping them would fault again.  A
        full rebuild runs the registrations back through the (since-
        invalidated) caches and redoes the descriptor exchange; the
        ``desc_id`` dedupe set is cleared first so peers' replayed
        descriptors are accepted afresh.
        """
        greq.needs_rebuild = False
        self.ctx.cluster.metrics.add("offload.group_rebuilds")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("group", "rebuild", self.ctx.trace_name, call=greq.req_id)
        self._gdesc_seen.clear()
        proxy = self.ctx.cluster.proxy_for_rank(self.rank)
        entries = yield from self._build_entries(greq, proxy)
        if self.framework.group_caching:
            plan = self.group_cache.insert(greq.signature(), entries)
        else:
            from repro.offload.group_cache import HostPlan, _plan_ids

            plan = HostPlan(plan_id=next(_plan_ids), signature=greq.signature(),
                            entries=entries)
        greq.resend_plan = plan
        packet = {
            "plan_id": plan.plan_id,
            "host_rank": self.rank,
            "entries": plan.entries,
            "req_id": greq.req_id,
            "call_no": greq.calls,
        }
        nbytes = max(
            self.params.ctrl_bytes,
            len(plan.entries) * self.params.group_op_bytes,
        )
        yield from post_control(self.ctx, proxy, ("group_plan", packet),
                                size=nbytes, kind="group_plan")
        plan.sent_to_proxy = True
        plan.dirty = False

    # ------------------------------------------------------------------
    # graceful degradation: the host-driven fallback path
    # ------------------------------------------------------------------
    def _engage_fallback(self, req: OffloadRequest) -> None:
        """The proxy missed its liveness deadline: leave the offload path.

        A send offers its (IB-registered) buffer straight to the peer
        endpoint; the peer pulls with a host-initiated RDMA READ and
        FINs back -- the classic host rendezvous, with no proxy in the
        loop.  A receive degrades passively: it simply waits for the
        sender's offer (or a revived proxy, whichever is first).
        Logged, never fatal.
        """
        req.fallback = True
        self.ctx.cluster.metrics.add("offload.fallbacks")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("req", "fallback", self.ctx.trace_name, rid=req.req_id,
                     kind=req.kind)
        self.framework.fallback_log.append(
            (round(self.sim.now, 9), self.rank, req.kind, req.req_id)
        )
        if req.kind == "send":
            yield from self._send_fb_rts(req)

    def _send_fb_rts(self, req: OffloadRequest) -> None:
        handle = yield from self.ib_cache.get(req.addr, req.size)
        peer_ep = self.framework.endpoint(req.peer)
        self.ctx.cluster.metrics.add("offload.fb_rts")
        yield from post_control(
            self.ctx, peer_ep.ctx,
            ("fb_rts", {
                "src": self.rank, "dst": req.peer, "tag": req.tag,
                "addr": req.addr, "size": req.size, "rkey": handle.rkey,
                "src_req": req.req_id,
            }),
            inbox=peer_ep.inbox,
            kind="fb_rts",
        )

    def _try_fb_matches(self) -> None:
        """Serve queued fallback offers against my pending receives."""
        if not self._fb_rts:
            return
        remaining = []
        for fb in self._fb_rts:
            if fb["src_req"] in self._fb_served:
                # Duplicate offer for a pull already done: only the
                # sender's FIN can have been lost -- resend it.
                yield from self._send_fb_fin(fb["src"], fb["src_req"])
                continue
            req = self._match_fb(fb)
            if req is None:
                remaining.append(fb)
                continue
            yield from self._fb_pull(fb, req)
        self._fb_rts = remaining

    def _match_fb(self, fb: dict):
        for req in self._pending.values():
            if (
                isinstance(req, OffloadRequest)
                and req.kind == "recv"
                and not req.complete
                and req.peer == fb["src"]
                and req.tag == fb["tag"]
            ):
                return req
        return None

    def _fb_pull(self, fb: dict, req: OffloadRequest) -> None:
        """Host-initiated pull of a fallback offer into my receive buffer."""
        if fb["size"] > req.size:
            raise OffloadError(
                f"fallback send of {fb['size']} bytes overflows receive of "
                f"{req.size} (src={fb['src']} tag={fb['tag']})"
            )
        handle = yield from self.ib_cache.get(req.addr, req.size)
        self.ctx.cluster.metrics.add("offload.fb_pulls")
        attempt = 1
        while True:
            transfer = yield from rdma_read(
                self.ctx,
                lkey=handle.lkey,
                local_addr=req.addr,
                rkey=fb["rkey"],
                remote_addr=fb["addr"],
                size=fb["size"],
            )
            dv = yield transfer.completed
            if getattr(dv, "via", "event") == "flow":
                # Fluid hybrid mode: this CQE was signaled from a flow
                # drain, not the exact chunk FSM (never hit in exact mode).
                self.ctx.cluster.metrics.add("offload.flow_cqes")
            if getattr(dv, "status", "ok") != "error":
                break
            attempt += 1
            if attempt > self.retry.rdma_retry_limit:
                raise OffloadError("fallback pull exceeded the RDMA re-post limit")
            yield self.sim.timeout(self.retry.rdma_backoff * attempt)
        req.fallback = True
        self._fb_served[fb["src_req"]] = fb["src"]
        self._complete_by_id(req.req_id)
        yield from self._send_fb_fin(fb["src"], fb["src_req"])

    def _send_fb_fin(self, src_rank: int, src_req: int) -> None:
        """Complete the offering sender directly (its completion sink)."""
        peer_ep = self.framework.endpoint(src_rank)
        yield self.ctx.consume(self.ctx.hca.post_overhead("host"))
        self.ctx.cluster.metrics.add("offload.fb_fins")
        self.ctx.cluster.fabric.control(
            src_node=self.ctx.node_id,
            dst_node=peer_ep.ctx.node_id,
            initiator="host",
            inbox=peer_ep.completion_sink,
            msg=src_req,
            src_mem="host",
            dst_mem="host",
            kind="fb_fin",
        )

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
        greq.record(GroupOp("barrier"))

    def group_end(self, greq: OffloadGroupRequest) -> None:
        """``Group_Offload_end``: seal the recording."""
        if greq.state != "recording":
            raise OffloadError(f"Group_Offload_end in state {greq.state!r}")
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

        proxy = self.ctx.cluster.proxy_for_rank(self.rank)
        caching = self.framework.group_caching
        plan = self.group_cache.lookup(greq.signature()) if caching else None
        metrics = self.ctx.cluster.metrics
        bus = self.ctx.cluster.bus
        if plan is not None and plan.sent_to_proxy and not plan.dirty:
            metrics.add("offload.group_call_cached")
            if bus is not None:
                bus.emit("group", "call", self.ctx.trace_name, mode="cached",
                         sig=plan.plan_id, call=greq.req_id)
            if self.resilient:
                greq.resend_plan = plan
            greq.post_time = self.sim.now
            yield from post_control(
                self.ctx, proxy,
                ("group_call", {"plan_id": plan.plan_id, "host_rank": self.rank,
                                "req_id": greq.req_id,
                                "call_no": greq.calls}),
                kind="group_call",
            )
            if bus is not None:
                bus.emit("group", "offloaded", self.ctx.trace_name,
                         call=greq.req_id, sig=plan.plan_id)
            return greq

        if plan is None:
            metrics.add("offload.group_call_build")
            entries = yield from self._build_entries(greq, proxy)
            if caching:
                plan = self.group_cache.insert(greq.signature(), entries)
            else:
                from repro.offload.group_cache import HostPlan, _plan_ids

                plan = HostPlan(plan_id=next(_plan_ids), signature=greq.signature(),
                                entries=entries)
            if bus is not None:
                bus.emit("group", "call", self.ctx.trace_name, mode="build",
                         sig=plan.plan_id, call=greq.req_id)
        else:
            metrics.add("offload.group_call_reship")
            if bus is not None:
                bus.emit("group", "call", self.ctx.trace_name, mode="reship",
                         sig=plan.plan_id, call=greq.req_id)

        packet = {
            "plan_id": plan.plan_id,
            "host_rank": self.rank,
            "entries": plan.entries,
            "req_id": greq.req_id,
            "call_no": greq.calls,
        }
        nbytes = max(
            self.params.ctrl_bytes,
            len(plan.entries) * self.params.group_op_bytes,
        )
        if self.resilient:
            greq.resend_plan = plan
        greq.post_time = self.sim.now
        yield from post_control(self.ctx, proxy, ("group_plan", packet),
                                size=nbytes, kind="group_plan")
        plan.sent_to_proxy = True
        plan.dirty = False
        if bus is not None:
            bus.emit("group", "offloaded", self.ctx.trace_name,
                     call=greq.req_id, sig=plan.plan_id)
        return greq

    def group_wait(self, greq: OffloadGroupRequest):
        """``Group_Wait`` (alias of :meth:`wait` for group requests)."""
        yield from self.wait(greq)

    # ------------------------------------------------------------------
    # group_call internals
    # ------------------------------------------------------------------
    def _build_entries(self, greq: OffloadGroupRequest, proxy: ProcessContext) -> list[dict]:
        gvmi = gvmi_id_of(proxy)
        entries: list[dict] = []
        # Per-op bookkeeping cost of walking the recorded queue.
        yield self.ctx.consume(self.params.host_cache_lookup * max(1, len(greq.ops)))

        # Pass 1: register local buffers; send my receive descriptors to
        # the hosts that will write into them.
        needed: dict[tuple[int, int], int] = {}  # (dst=peer, tag) -> count needed
        staged = self.framework.mode == "staged"
        for op in greq.ops:
            if op.kind == "send":
                if staged:
                    handle = yield from self.ib_cache.get(op.addr, op.size)
                    entry = {
                        "kind": "send", "addr": op.addr, "size": op.size,
                        "dst": op.peer, "tag": op.tag,
                        "src_rkey": handle.rkey,
                        "dst_addr": None, "rkey": None,  # resolved in pass 2
                    }
                else:
                    mkey = yield from self.gvmi_cache.get(proxy, gvmi, op.addr, op.size)
                    entry = {
                        "kind": "send", "addr": op.addr, "size": op.size,
                        "dst": op.peer, "tag": op.tag,
                        "reg_addr": mkey.addr, "reg_size": mkey.size,
                        "mkey": mkey.key, "gvmi_id": gvmi,
                        "dst_addr": None, "rkey": None,  # resolved in pass 2
                    }
                entries.append(entry)
                needed[(op.peer, op.tag)] = needed.get((op.peer, op.tag), 0) + 1
            elif op.kind == "recv":
                handle = yield from self.ib_cache.get(op.addr, op.size)
                entries.append({
                    "kind": "recv", "addr": op.addr, "size": op.size,
                    "src": op.peer, "tag": op.tag,
                })
                peer_ep = self.framework.endpoint(op.peer)
                desc = {
                    "src": op.peer, "dst": self.rank, "tag": op.tag,
                    "addr": op.addr, "size": op.size, "rkey": handle.rkey,
                }
                if self.resilient:
                    # Stamp for receiver-side dedupe and keep for replay
                    # should the sender ask (gdesc_req) after a loss.
                    desc["desc_id"] = next(_desc_ids)
                    self._gdesc_sent.setdefault((op.peer, op.tag), []).append(desc)
                yield from post_control(
                    self.ctx, peer_ep.ctx,
                    ("gdesc", desc),
                    inbox=peer_ep.inbox,
                    kind="gdesc",
                )
            elif op.kind == "reduce":
                # Both buffers are this rank's own memory; the proxy
                # reaches them through the GVMI mapping it already holds,
                # so no registration or descriptor exchange is needed.
                entries.append({
                    "kind": "reduce", "addr": op.addr,
                    "dst_addr": op.addr2, "size": op.size,
                })
            else:
                entries.append({"kind": "barrier"})

        # Pass 2: gather remote receive descriptors for my sends and
        # match by (destination rank, tag) -- Fig 9's matching step.
        for entry in entries:
            if entry["kind"] != "send":
                continue
            key = (entry["dst"], entry["tag"])
            desc = yield from self._await_descriptor(key)
            if desc["size"] < entry["size"]:
                raise OffloadError(
                    f"group send of {entry['size']} bytes overflows remote "
                    f"receive of {desc['size']} (dst={entry['dst']} tag={entry['tag']})"
                )
            entry["dst_addr"] = desc["addr"]
            entry["rkey"] = desc["rkey"]
        return entries

    def _await_descriptor(self, key: tuple[int, int]) -> dict:
        while True:
            bucket = self._recv_descs.get(key)
            if bucket:
                return bucket.pop(0)
            if not self.resilient:
                item = yield self.inbox.get()
                yield from self._handle_inbox_item(item)
            else:
                yield from self._await_descriptor_resilient(key)

    def _await_descriptor_resilient(self, key: tuple[int, int]) -> None:
        """One bounded wait for a descriptor; nudges the peer on timeout.

        The gdesc may have been dropped in flight, so the get races a
        timeout; on expiry a ``gdesc_req`` asks the receiving endpoint to
        replay everything it recorded for me under this (rank, tag).
        """
        timeout = self.retry.timeout
        while not self._recv_descs.get(key):
            get_ev = self.inbox.get()
            yield self.sim.any_of([get_ev, self.sim.timeout(timeout)])
            if get_ev.triggered:
                yield from self._handle_inbox_item(get_ev.value)
                return
            self.inbox.cancel(get_ev)
            peer_ep = self.framework.endpoint(key[0])
            self.ctx.cluster.metrics.add("offload.gdesc_reqs")
            yield from post_control(
                self.ctx, peer_ep.ctx,
                ("gdesc_req", {"src": self.rank, "tag": key[1]}),
                inbox=peer_ep.inbox,
                kind="gdesc_req",
            )
            timeout = min(timeout * self.retry.backoff, self.retry.max_timeout)

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
            desc_id = desc.get("desc_id")
            if desc_id is not None:
                if desc_id in self._gdesc_seen:
                    self.ctx.cluster.metrics.add("offload.dup_gdesc_dropped")
                    return
                self._gdesc_seen.add(desc_id)
            key = (desc["dst"], desc["tag"])
            self._recv_descs.setdefault(key, []).append(desc)
            # Patch cached plans if this supersedes an old descriptor.
            self.group_cache.patch_descriptor(desc["src"], desc["tag"], desc["dst"], desc)
        elif kind == "gdesc_req":
            info = item[1]
            # A sender never saw one of my descriptors: replay everything
            # recorded for it (desc_id dedupe on its side keeps this
            # idempotent).
            peer_ep = self.framework.endpoint(info["src"])
            for desc in self._gdesc_sent.get((info["src"], info["tag"]), []):
                self.ctx.cluster.metrics.add("offload.gdesc_replays")
                yield from post_control(
                    self.ctx, peer_ep.ctx, ("gdesc", desc),
                    inbox=peer_ep.inbox, kind="gdesc",
                )
        elif kind == "plan_nack":
            info = item[1]
            self.ctx.cluster.metrics.add("offload.plan_nacks")
            stale = info.get("stale", False)
            if stale:
                # The proxy faulted on a revoked key: the saved entries
                # are poison, drop the plan entirely and force a full
                # rebuild on the next retransmit.
                self.group_cache.drop_plan(info["plan_id"])
            else:
                self.group_cache.invalidate(info["plan_id"])
            req = self._pending.get(info["req_id"])
            call_no = info.get("call_no")
            if (req is not None and call_no is not None
                    and getattr(req, "calls", call_no) != call_no):
                # NACK for a superseded call of this re-used request.
                return
            plan = getattr(req, "resend_plan", None)
            if plan is not None and plan.plan_id == info["plan_id"]:
                plan.sent_to_proxy = False
                plan.dirty = True
                if stale:
                    req.needs_rebuild = True
        elif kind == "fb_rts":
            self._fb_rts.append(item[1])
        else:  # pragma: no cover - defensive
            raise OffloadError(f"endpoint: unknown inbox item {kind!r}")
