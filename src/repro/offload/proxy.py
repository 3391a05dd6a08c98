"""DPU proxy (worker) processes.

Each proxy is one simulation process pinned to its own ARM core.  Its
main loop drains the proxy inbox and dispatches (paper Figs. 8 and 10):

* ``rts`` / ``rtr`` -- Basic-primitive control messages.  The proxy
  keeps a send-request queue and a receive-request queue (headers
  ordered by destination rank, as in Fig. 8); an arriving RTS searches
  the receive queue, an arriving RTR searches the send queue; a match
  moves the pair to the combined queue and is processed: cross-GVMI
  registration (through the DPU cache), an RDMA write on the host's
  behalf, then FIN "packets" -- completion-counter RDMA writes -- to
  both host processes.
* ``group_plan`` / ``group_call`` -- Group-primitive packets, executed
  by :mod:`repro.offload.group_exec`.
* internal items (``xfer_done``, ``resume``) that keep all ARM-time
  serialized through this single loop.

Deadlock avoidance follows Algorithm 1: an executor that must wait (for
send completions at a barrier, or for peer barrier counters) *parks* --
returns control to this progress engine -- so a proxy serving several
host ranks keeps making progress for the others.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any

from repro.hw.memory import OutOfMemoryError
from repro.hw.node import ProcessContext
from repro.offload.group_cache import DpuPlan, DpuPlanCache
from repro.offload.gvmi_cache import dpu_gvmi_cache
from repro.offload.requests import OffloadError
from repro.offload.staging import StagingChannel
from repro.sim import Event, Interrupt
from repro.verbs.mr import ProtectionError
from repro.verbs.rdma import rdma_read, rdma_write

if TYPE_CHECKING:  # pragma: no cover
    from repro.offload.api import OffloadFramework

__all__ = ["ProxyEngine", "CounterBoard", "PARK"]

#: Sentinel executors yield as ``(PARK, event)`` to suspend without
#: holding the ARM core.
PARK = "park"


class CounterBoard:
    """Barrier/flow counters written by peer proxies via RDMA.

    Keys are ``(src_rank, dst_rank, seq)`` -- the host-process pair plus
    a per-pair call sequence number that keeps concurrent group requests
    (e.g. P3DFFT's two in-flight Ialltoalls) from colliding.  Values are
    monotone epochs; a waiter for epoch *e* fires as soon as the counter
    reaches *e* (counters arrive without ARM involvement: they are RDMA
    writes to pre-registered memory that the executor polls).
    """

    def __init__(self, sim):
        self.sim = sim
        self._values: dict[tuple, int] = {}
        self._waiters: dict[tuple, list[tuple[int, Event]]] = {}

    def write(self, key: tuple, epoch: int) -> None:
        # Monotone max; a stale/duplicate write (epoch <= current) must
        # still initialise a never-seen key rather than KeyError on the
        # read-back below.
        value = max(self._values.get(key, 0), epoch)
        self._values[key] = value
        waiters = self._waiters.get(key)
        if waiters:
            still = []
            for want, ev in waiters:
                if value >= want:
                    ev.succeed(value)
                else:
                    still.append((want, ev))
            if still:
                self._waiters[key] = still
            else:
                del self._waiters[key]

    def wait(self, key: tuple, epoch: int) -> Event:
        ev = Event(self.sim)
        if self._values.get(key, 0) >= epoch:
            ev.succeed(self._values[key])
        else:
            self._waiters.setdefault(key, []).append((epoch, ev))
        return ev

    def clear(self, key: tuple) -> None:
        """Drop a counter after its group completes (the paper clears them)."""
        self._values.pop(key, None)

    @property
    def pending_waits(self) -> int:
        return sum(len(v) for v in self._waiters.values())


class _CounterSink:
    """Inbox adapter: an arriving counter write lands straight in the board."""

    def __init__(self, board: CounterBoard):
        self.board = board

    def put(self, msg) -> None:
        key, epoch = msg
        self.board.write(key, epoch)


class ProxyEngine:
    """Protocol engine of one DPU worker process."""

    def __init__(self, framework: "OffloadFramework", ctx: ProcessContext):
        if ctx.kind != "dpu":
            raise OffloadError("ProxyEngine must run on a DPU context")
        self.framework = framework
        self.ctx = ctx
        self.sim = ctx.sim
        self.params = ctx.cluster.params
        #: "gvmi" (proposed, direct cross-GVMI writes) or "staged"
        #: (state-of-the-art bounce through DPU DRAM).
        self.mode = framework.mode
        self.gvmi_cache = dpu_gvmi_cache(ctx, enabled=framework.gvmi_caching)
        self.plan_cache = DpuPlanCache(ctx=ctx)
        self.staging = StagingChannel(ctx)
        self.counters = CounterBoard(self.sim)
        self.counter_sink = _CounterSink(self.counters)
        #: Fig 8's request queues, keyed (src, dst, tag), FIFO within a
        #: key; each entry is the RTS / RTR info dict awaiting its match.
        self._send_q: dict[tuple, list[dict]] = {}
        self._recv_q: dict[tuple, list[dict]] = {}
        #: Outbound per-(src,dst) group-call sequence numbers.
        self._seq_out: dict[tuple[int, int], int] = {}
        #: Inbound per-(src,dst) group-call sequence numbers.
        self._seq_in: dict[tuple[int, int], int] = {}
        #: Extension point: front-ends (the SHMEM layer, the recovery
        #: policy) register extra inbox-item handlers here:
        #: kind -> generator(engine, payload).
        self.extra_handlers: dict[str, object] = {}
        #: The recovery policy layer (repro.offload.recovery), installed
        #: by the framework iff it has a RetryPolicy.  Every recovery
        #: branch is one ``is not None`` test: clean runs stay bit-identical.
        self.recovery = None
        #: Bumped when recovery kills this worker; items tagged with an
        #: older incarnation belong to a previous life and are discarded.
        self.incarnation = 0
        self.alive = True
        #: Executors parked on an event (Algorithm 1's return to the
        #: progress engine); process-local, so it dies with the worker.
        self._parked: dict[Any, Event] = {}

        self.sim.watchdog_probes.append(self._watchdog_report)
        self.process = self.sim.process(self._main_loop())
        self.process.name = f"proxy{ctx.global_id}"
        bus = ctx.cluster.bus
        if bus is not None:
            bus.emit("proxy", "start", ctx.trace_name, gid=ctx.global_id)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _main_loop(self):
        """The one progress loop: wake, drain, charge once, dispatch.

        Each ARM wakeup serves up to ``proxy_batch_drain or 1`` queued
        items under a single ``dpu_handler_cost`` charge.  The paper's
        proxy rings through the doorbell/event path once per message --
        that is the default (one item per wakeup); at thousand-rank
        scale the handler wakeups themselves dominate ARM time, so
        ``MachineParams.proxy_batch_drain`` lets one wakeup drain
        whatever is already queued (capped at the batch size).  Per-item
        protocol costs (match cost, post overheads, transfer time) are
        the same either way; only the per-message wakeup tax is
        amortized.  The knob is data, not a second loop: it sets the
        drain cap, and turns on the drain accounting
        (``proxy.wakeups`` / ``proxy.drained_items`` and one
        ``queue.drain`` bus event carrying the item count), which
        default runs leave untouched.

        The dispatch chain lives inline rather than in a helper
        generator: ``yield from helper(item)`` would allocate a fresh
        generator and add a delegation frame to every message.
        """
        ctx = self.ctx
        handler_cost = self.params.dpu_handler_cost
        batch_drain = self.params.proxy_batch_drain
        batch_max = batch_drain or 1
        metrics = ctx.cluster.metrics
        while True:
            get_ev = ctx.inbox.get()
            try:
                item = yield get_ev
            except Interrupt:
                # Killed while parked on the inbox: withdraw the getter
                # so the (surviving) inbox does not hand the next item to
                # a dead process.
                ctx.inbox.cancel(get_ev)
                return
            if item[0] == "stop":
                return
            batch = [item]
            while len(batch) < batch_max:
                ok, nxt = ctx.inbox.try_get()
                if not ok:
                    break
                batch.append(nxt)
            if batch_drain:
                metrics.add("proxy.wakeups")
                metrics.add("proxy.drained_items", len(batch))
                bus = ctx.cluster.bus
                if bus is not None:
                    bus.emit("queue", "drain", ctx.trace_name, n=len(batch))
            try:
                yield ctx.consume(handler_cost)
                for item in batch:
                    kind = item[0]
                    if kind == "rts":
                        yield from self._match(item[1], self._send_q, self._recv_q)
                    elif kind == "rtr":
                        yield from self._match(item[1], self._recv_q, self._send_q)
                    elif kind == "xfer_done":
                        yield from self._on_xfer_done(item[1])
                    elif kind == "group_plan":
                        yield from self._on_group_plan(item[1])
                    elif kind == "group_call":
                        yield from self._on_group_call(item[1])
                    elif kind == "staged_write":
                        yield from self._post_staged_write(item[1], 1, item[2])
                    elif kind == "resume":
                        if item[3] == self.incarnation:
                            yield from self._drive_executor(item[1], item[2])
                    elif kind == "stop":
                        return
                    elif kind in self.extra_handlers:
                        yield from self.extra_handlers[kind](self, item[1])
                    else:  # pragma: no cover - defensive
                        raise OffloadError(f"proxy: unknown inbox item {kind!r}")
            except Interrupt:
                return

    # ------------------------------------------------------------------
    # Basic primitives: RTS/RTR matching (Fig 8)
    # ------------------------------------------------------------------
    def _match(self, info: dict, own_q: dict, other_q: dict) -> None:
        """One arriving RTS (``own_q`` is the send queue) or RTR (the
        receive queue): search the other side's queue, pair up or wait."""
        key = (info["src"], info["dst"], info["tag"])
        yield self.ctx.consume(self.params.dpu_match_cost)
        if self.recovery is not None and (
                yield from self.recovery.duplicate_ctrl(info)):
            return
        waiting = other_q.get(key)
        if not waiting:
            own_q.setdefault(key, []).append(info)
            return
        peer = waiting.pop(0)
        if not waiting:
            del other_q[key]
        if own_q is self._send_q:
            yield from self._process_pair(info, peer)
        else:
            yield from self._process_pair(peer, info)

    def _process_pair(self, rts: dict, rtr: dict) -> None:
        """A matched send/recv: move the bytes on the hosts' behalf.

        GVMI mode: cross-register, then a single direct host-to-host
        RDMA write.  Staged mode: bounce through DPU DRAM (Fig 6).
        """
        if rts["size"] > rtr["size"]:
            raise OffloadError(
                f"offloaded send of {rts['size']} bytes overflows receive of "
                f"{rtr['size']} (src={rts['src']} dst={rts['dst']} tag={rts['tag']})"
            )
        self.ctx.cluster.metrics.add("proxy.basic_pairs")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("proxy", "pair", self.ctx.trace_name,
                     src=rts["src"], dst=rts["dst"], tag=rts["tag"],
                     size=rts["size"])
        pair = {"rts": rts, "rtr": rtr}
        yield from self._post_pair_transfer(pair, attempt=1)

    def _post_pair_transfer(self, pair: dict, attempt: int) -> None:
        rts, rtr = pair["rts"], pair["rtr"]
        try:
            if self.mode == "staged":
                done = yield from self.staged_send_start(
                    src_rkey=rts["rkey"], src_addr=rts["addr"], size=rts["size"],
                    dst_rkey=rtr["rkey"], dst_addr=rtr["addr"],
                    pair=pair,
                )
            else:
                mkey2 = yield from self.gvmi_cache.get(
                    rts.get("reg_addr", rts["addr"]), rts.get("reg_size", rts["size"]),
                    rts["src"], rts["gvmi_id"], rts["mkey"],
                )
                transfer = yield from rdma_write(
                    self.ctx,
                    lkey=mkey2.key,
                    src_addr=rts["addr"],
                    rkey=rtr["rkey"],
                    dst_addr=rtr["addr"],
                    size=rts["size"],
                )
                done = transfer.completed
        except ProtectionError as exc:
            yield from self._pair_key_fault(pair, exc)
            return
        except OutOfMemoryError as exc:  # only staging allocates DPU DRAM
            yield from self._pair_out_of_memory(pair, exc)
            return
        # The staged path re-posts its own legs and completes with status ok.
        done.callbacks.append(
            partial(self._on_cqe, "pair", pair, attempt, self.incarnation))

    def _on_cqe(self, leg: str, state: dict, attempt: int, inc: int, ev) -> None:
        """A posted transfer completed: a direct callback on the CQE event
        (no watcher process) that hands the next step to the inbox, so
        all ARM work stays serialized through the main loop.  ``leg`` is
        ``"pair"`` (a basic pair's data landed), ``"read"`` (staged source
        leg: the write leg is next) or ``"write"`` (staged transfer done).
        """
        dv = ev.value
        if getattr(dv, "via", "event") == "flow":
            # Fluid hybrid mode: the CQE was fired from a flow drain, not
            # the exact port walk; the differential harness counts these
            # to confirm completions really rode the FlowEngine.
            self.ctx.cluster.metrics.add("proxy.flow_cqes")
        if self.recovery is not None and getattr(dv, "status", "ok") == "error":
            self.recovery.repost_after_error(leg, state, attempt, inc)
        elif leg == "pair":
            self.ctx.inbox.put(("xfer_done", state))
        elif leg == "read":
            self.ctx.inbox.put(("staged_write", state, inc))
        else:
            self.staging.release(state["buf"])
            state["done"].succeed(None)

    # ------------------------------------------------------------------
    # staged transfers (Fig 6's bounce path; used by BluesMPI-style mode)
    # ------------------------------------------------------------------
    def staged_send_start(self, *, src_rkey: int, src_addr: int, size: int,
                          dst_rkey: int, dst_addr: int, pair: dict = None):
        """Begin a staged transfer; returns an event that fires when the
        bytes have landed at the destination host (a generator).

        Phase 1 (here, ARM-serialized): acquire + RDMA-READ the source
        buffer into DPU DRAM.  Phase 2 (via the inbox, so other work
        interleaves): RDMA-WRITE from DPU DRAM to the destination.
        """
        done = Event(self.sim)
        buf = yield from self.staging.acquire(size)
        self.ctx.cluster.metrics.add("staging.transfers")
        st = {
            "buf": buf, "size": size,
            "src_rkey": src_rkey, "src_addr": src_addr,
            "dst_rkey": dst_rkey, "dst_addr": dst_addr,
            "done": done,
            # Basic-pair context for stale-key recovery (None for group
            # segments, which recover at plan granularity).
            "pair": pair,
        }
        try:
            yield from self._post_staged_read(st, attempt=1)
        except ProtectionError:
            # Stale source rkey detected at WQE post: hand the buffer
            # back before the caller runs pair-level recovery.
            self.staging.release(st["buf"])
            raise
        return done

    def _post_staged_read(self, st: dict, attempt: int) -> None:
        # Fault-free runs skip materializing the bounce buffer: the read
        # leg records where the bytes live and the write leg forwards
        # them straight to the destination (timing unchanged -- both
        # legs still run; only the intermediate memcpy is elided).  With
        # a FaultPlan armed, an error completion could leave the source
        # rescinded before the retry, so the copy must be eager.
        lazy = self.ctx.cluster.fabric.fault_plan is None
        read = yield from rdma_read(
            self.ctx,
            lkey=st["buf"].lkey,
            local_addr=st["buf"].addr,
            rkey=st["src_rkey"],
            remote_addr=st["src_addr"],
            size=st["size"],
            lazy_payload=lazy,
        )
        if lazy:
            st["payload_src"] = read.payload_src
        read.completed.callbacks.append(
            partial(self._on_cqe, "read", st, attempt, self.incarnation))

    def _post_staged_write(self, st: dict, attempt: int, inc: int) -> None:
        if inc != self.incarnation:
            # The read leg of a worker that has died since (only the
            # recovery layer kills workers).
            self.recovery.release_stale(st)
            return
        try:
            write = yield from rdma_write(
                self.ctx,
                lkey=st["buf"].lkey,
                src_addr=st["buf"].addr,
                rkey=st["dst_rkey"],
                dst_addr=st["dst_addr"],
                size=st["size"],
                payload_src=st.get("payload_src"),
            )
        except ProtectionError as exc:
            # Stale destination rkey (freed/evicted between the read and
            # write legs).  Recover at pair granularity when we can.
            self.staging.release(st["buf"])
            if st.get("pair") is not None:
                yield from self._pair_key_fault(st["pair"], exc)
                return
            raise
        write.completed.callbacks.append(
            partial(self._on_cqe, "write", st, attempt, inc))

    def _on_xfer_done(self, pair: dict) -> None:
        """Data landed: send FIN completion writes to both host processes."""
        for info, host_rank in ((pair["rts"], pair["rts"]["src"]),
                                (pair["rtr"], pair["rtr"]["dst"])):
            req_id = info["req_id"]
            if self.recovery is not None:
                self.recovery.fin_sent(req_id, host_rank)
            ep = self.framework.endpoint(host_rank)
            yield self.ctx.consume(self.ctx.hca.post_overhead("dpu"))
            bus = self.ctx.cluster.bus
            if bus is not None:
                bus.emit("proxy", "fin", self.ctx.trace_name,
                         rid=req_id, to=host_rank)
            self._control_write(ep.ctx, ep.completion_sink, req_id, "fin",
                                "proxy.fin_writes")

    def _control_write(self, target: ProcessContext, inbox, msg, kind: str,
                       metric: str, size: int = None) -> None:
        """One control write from this ARM core into ``inbox`` -- a host
        endpoint's sink or a peer proxy's -- counted as ``metric``; the
        caller has paid ``post_overhead("dpu")``.  Not
        :func:`post_control`: that would also count it under
        ``ctrl.dpu_to_*``, which the benchmark ledger adds *to*
        ``proxy.fin_writes`` and ``proxy.group_completions``.
        """
        self.ctx.cluster.metrics.add(metric)
        self.ctx.cluster.fabric.control(
            src_node=self.ctx.node_id,
            dst_node=target.node_id,
            initiator="dpu",
            inbox=inbox,
            msg=msg,
            size=size,
            src_mem="dpu",
            dst_mem=target.mem_kind,
            kind=kind,
        )

    # ------------------------------------------------------------------
    # loud failures of the bare protocol: stale keys, memory exhaustion
    # ------------------------------------------------------------------
    def _pair_key_fault(self, pair: dict, exc: ProtectionError) -> None:
        """A matched pair faulted on a revoked key at WQE post.

        The host freed (or its cache evicted) the registration after
        posting the control message -- the race the epoch protocol
        exists for.  A bare framework fails loudly instead of silently
        writing through recycled memory.
        """
        rts = pair["rts"]
        self.ctx.cluster.metrics.add("proxy.stale_keys")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("reg", "stale_use", self.ctx.trace_name,
                     src=rts["src"], dst=rts["dst"], tag=rts["tag"])
        if self.recovery is None:
            raise OffloadError(
                f"stale registration in offloaded pair src={rts['src']} "
                f"dst={rts['dst']} tag={rts['tag']}: {exc}"
            ) from exc
        yield from self.recovery.on_stale_pair(pair, exc)

    def _pair_out_of_memory(self, pair: dict, exc: OutOfMemoryError) -> None:
        """DPU DRAM exhausted: this pair cannot be staged."""
        rts = pair["rts"]
        self.ctx.cluster.metrics.add("proxy.oom_degrades")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("proxy", "degrade", self.ctx.trace_name,
                     src=rts["src"], dst=rts["dst"], tag=rts["tag"],
                     size=rts["size"])
        if self.recovery is None:
            raise OffloadError(
                f"proxy {self.ctx.global_id} out of staging memory for pair "
                f"src={rts['src']} dst={rts['dst']} tag={rts['tag']} "
                f"({exc})"
            ) from exc
        yield from self.recovery.degrade_pair(pair)

    # ------------------------------------------------------------------
    # Group primitives (Figs 9-10, Algorithm 1)
    # ------------------------------------------------------------------
    def _on_group_plan(self, packet: dict) -> None:
        """Full plan arriving (host cache miss or dirty plan re-ship)."""
        # Per-entry unpack cost: the packet is a contiguous message the
        # ARM walks once.
        yield self.ctx.consume(
            self.params.dpu_handler_cost * 0.25 * max(1, len(packet["entries"]))
        )
        plan = DpuPlan(packet["plan_id"], packet["host_rank"], packet["entries"])
        # Kept for calls by ID: the host's cached calls and recovery's
        # retransmits.  With neither (the uncached ablation, BluesMPI)
        # nobody asks again, and keeping it would grow per call.
        if self.framework.group_caching or self.recovery is not None:
            self.plan_cache.store(packet["plan_id"], plan)
        yield from self._launch_plan(plan, packet["req_id"], cached=False,
                                     call_no=packet.get("call_no", 1))

    def _on_group_call(self, packet: dict) -> None:
        """Request-ID-only invocation (host cache hit, Section VII-D)."""
        plan = self.plan_cache.fetch(packet["plan_id"])
        if plan is None:
            if self.recovery is None:
                raise OffloadError(
                    f"group_call for unknown plan {packet['plan_id']} "
                    f"(host cache believed the proxy had it)"
                )
            yield from self.recovery.plan_nack(packet["host_rank"], packet["plan_id"],
                                               packet["req_id"], packet.get("call_no"))
            return
        yield from self._launch_plan(plan, packet["req_id"], cached=True,
                                     call_no=packet.get("call_no", 1))

    def _launch_plan(self, plan: DpuPlan, req_id: int, cached: bool,
                     call_no: int = 1) -> None:
        from repro.offload.group_exec import GroupExecutor

        host_rank = plan.host_rank
        seqs = None
        if self.recovery is not None:
            # Idempotent launch: a retransmitted or replayed invocation
            # may need no executor at all (False), or the ORIGINAL
            # sequence numbers of the launch a kill interrupted.
            seqs = yield from self.recovery.relaunch(plan, req_id, call_no)
            if seqs is False:
                return
        if seqs is None:
            seqs = {}
            for entry in plan.entries:
                if entry.kind == "send":
                    pair = (host_rank, entry.peer)
                    if pair not in seqs:
                        self._seq_out[pair] = self._seq_out.get(pair, 0) + 1
                        seqs[pair] = self._seq_out[pair]
                elif entry.kind == "recv":
                    pair = (entry.peer, host_rank)
                    if pair not in seqs:
                        self._seq_in[pair] = self._seq_in.get(pair, 0) + 1
                        seqs[pair] = self._seq_in[pair]
            if self.recovery is not None:
                self.recovery.record_launch(req_id, seqs, call_no)
        executor = GroupExecutor(self, plan, req_id, seqs, cached=cached,
                                 call_no=call_no)
        self.ctx.cluster.metrics.add("proxy.group_plans_cached" if cached else "proxy.group_plans_full")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("group", "launch", self.ctx.trace_name,
                     plan=plan.plan_id, call=req_id, cached=cached)
        yield from self._drive_executor(executor, None)

    def _send_group_completion(self, host_rank: int, req_id: int,
                               call_no: int = 1):
        """Completion-counter RDMA write into host memory (Group_Wait)."""
        ep = self.framework.endpoint(host_rank)
        yield self.ctx.consume(self.ctx.hca.post_overhead("dpu"))
        self._control_write(ep.ctx, ep.completion_sink, (req_id, call_no),
                            "fin", "proxy.group_completions", size=8)

    def _drive_executor(self, executor, send_value) -> None:
        """Advance an executor until it finishes or parks (Alg 1's 'break')."""
        gen = executor.gen
        self._parked.pop(executor, None)
        while True:
            try:
                yielded = gen.send(send_value)
            except StopIteration:
                return
            if isinstance(yielded, tuple) and yielded and yielded[0] is PARK:
                event = yielded[1]
                inc = self.incarnation

                def _rearm(ev, executor=executor, inc=inc):
                    self.ctx.inbox.put(("resume", executor, ev.value, inc))

                self._parked[executor] = event
                if event.processed:
                    # Already satisfied: requeue immediately (still goes
                    # through the inbox so other work interleaves).
                    self.ctx.inbox.put(("resume", executor, event.value, inc))
                else:
                    event.callbacks.append(_rearm)
                return
            # A plain sim event: ARM-bound work, hold the core inline.
            send_value = yield yielded

    # ------------------------------------------------------------------
    # counter writes (barrier/flow notifications)
    # ------------------------------------------------------------------
    def write_counter_to(self, dst_rank: int, key: tuple, epoch: int):
        """RDMA-write a barrier counter to ``dst_rank``'s proxy (a generator)."""
        peer = self.ctx.cluster.proxy_for_rank(dst_rank)
        if self.recovery is not None:
            self.recovery.counter_written(key, epoch)
        yield self.ctx.consume(self.ctx.hca.post_overhead("dpu"))
        self._control_write(peer, self.framework.proxy_engine(peer).counter_sink,
                            (key, epoch), "counter", "proxy.counter_writes", size=8)

    # -- diagnostics --------------------------------------------------------
    @property
    def queued_rts(self) -> int:
        return sum(len(v) for v in self._send_q.values())

    @property
    def queued_rtr(self) -> int:
        return sum(len(v) for v in self._recv_q.values())

    def _watchdog_report(self):
        """Lines for :class:`repro.sim.DeadlockError` when the sim hangs."""
        gid = self.ctx.global_id
        if not self.alive:
            yield f"proxy{gid}: DEAD (killed, never restarted)"
        for executor, event in self._parked.items():
            yield (
                f"proxy{gid}: group req={executor.req_id} "
                f"host={executor.plan.host_rank} parked on {event!r}"
            )
        for key, ops in self._send_q.items():
            yield f"proxy{gid}: {len(ops)} unmatched RTS for (src, dst, tag)={key}"
        for key, ops in self._recv_q.items():
            yield f"proxy{gid}: {len(ops)} unmatched RTR for (src, dst, tag)={key}"
        for key, waiters in self.counters._waiters.items():
            wants = sorted(want for want, _ev in waiters)
            have = self.counters._values.get(key, 0)
            yield (
                f"proxy{gid}: counter {key} stuck at {have}, "
                f"waited for epoch(s) {wants}"
            )
