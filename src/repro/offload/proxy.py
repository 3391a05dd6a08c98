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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.hw.memory import OutOfMemoryError
from repro.hw.node import ProcessContext
from repro.offload.group_cache import DpuPlanCache
from repro.offload.gvmi_cache import DpuGvmiCache
from repro.offload.requests import OffloadError
from repro.offload.staging import StagingChannel
from repro.sim import Event, Interrupt
from repro.verbs.mr import ProtectionError
from repro.verbs.rdma import rdma_read, rdma_write, verbs_state

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


@dataclass
class _PendingOp:
    """One side of a Basic-primitive pair waiting for its match."""

    kind: str  # "rts" | "rtr"
    src: int
    dst: int
    tag: int
    info: dict[str, Any] = field(default_factory=dict)


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
        self.gvmi_cache = DpuGvmiCache(ctx, enabled=framework.gvmi_caching)
        self.plan_cache = DpuPlanCache(ctx=ctx)
        self.staging = StagingChannel(ctx)
        self.counters = CounterBoard(self.sim)
        self.counter_sink = _CounterSink(self.counters)
        #: Fig 8's request queues, keyed (src, dst, tag), FIFO within a key.
        self._send_q: dict[tuple, list[_PendingOp]] = {}
        self._recv_q: dict[tuple, list[_PendingOp]] = {}
        #: Outbound per-(src,dst) group-call sequence numbers.
        self._seq_out: dict[tuple[int, int], int] = {}
        #: Inbound per-(src,dst) group-call sequence numbers.
        self._seq_in: dict[tuple[int, int], int] = {}
        #: Extension point: front-ends (e.g. the SHMEM layer) register
        #: extra inbox-item handlers here: kind -> generator(engine, payload).
        self.extra_handlers: dict[str, object] = {}

        # -- resilience state (see docs/FAULTS.md) ----------------------
        self.retry = framework.retry
        self.fault_plan = ctx.cluster.fault_plan
        #: True when any fault/retry machinery is armed; every recovery
        #: branch is gated on this so clean runs stay bit-identical.
        self.resilient = framework.resilient
        #: Bumped on kill; items tagged with an older incarnation belong
        #: to a previous life of this worker and are discarded.
        self.incarnation = 0
        self.alive = True
        #: Process-local (dies with the worker): parked executors and
        #: the req_ids of in-flight basic pairs.
        self._parked: dict[Any, Event] = {}
        self._live_reqs: set[int] = set()
        #: DPU-DRAM durable records (survive kill/restart): FINs already
        #: sent (req_id -> host rank, for idempotent resend), group
        #: launches (req_id -> {seqs, incarnation, done}, for replay with
        #: the original sequence numbers), and the last counter epoch
        #: written per key (re-written when a peer probes for a loss).
        self._fin_sent: dict[int, int] = {}
        self._group_launches: dict[int, dict] = {}
        self._counters_sent: dict[tuple, int] = {}

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
                        yield from self._on_rts(item[1])
                    elif kind == "rtr":
                        yield from self._on_rtr(item[1])
                    elif kind == "xfer_done":
                        yield from self._on_xfer_done(item[1])
                    elif kind == "retry_xfer":
                        yield from self._on_retry_xfer(item[1], item[2], item[3])
                    elif kind == "group_plan":
                        yield from self._on_group_plan(item[1])
                    elif kind == "group_call":
                        yield from self._on_group_call(item[1])
                    elif kind == "staged_read":
                        yield from self._on_staged_read(item[1], item[2], item[3])
                    elif kind == "staged_write":
                        yield from self._on_staged_write(item[1], item[2], item[3])
                    elif kind == "counter_probe":
                        yield from self._on_counter_probe(item[1])
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
    # fault injection: kill / restart
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Crash this worker process (chaos testing).

        Process-local state dies with it: the RTS/RTR matching queues,
        in-flight pair tracking, parked executors.  What lives in DPU
        DRAM survives for the next incarnation: the plan cache, counter
        board, sequence counters, staging pool, and the durable
        FIN/launch/counter records used for idempotent recovery.
        """
        if not self.alive:
            return
        self.alive = False
        self.incarnation += 1
        self._send_q.clear()
        self._recv_q.clear()
        self._live_reqs.clear()
        self._parked.clear()
        self.ctx.cluster.metrics.add("proxy.kills")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("proxy", "kill", self.ctx.trace_name,
                     incarnation=self.incarnation)
        # Fluid mode: this worker's in-flight bulk flows die with its
        # QPs.  Each aborts into a flush-error CQE; the dead
        # incarnation's watchers discard it, and the host-side
        # retransmit / group-replay machinery redoes the work against
        # the next incarnation.
        fabric = self.ctx.cluster.fabric
        if fabric.flow_engine is not None:
            aborted = fabric.abort_flows(self.ctx)
            if aborted:
                self.ctx.cluster.metrics.add("proxy.flows_aborted", aborted)
        if self.process.is_alive:
            self.process.interrupt("proxy killed")

    def restart(self) -> None:
        """Boot a fresh worker over the surviving DPU-DRAM state."""
        if self.alive:
            return
        self.alive = True
        self.ctx.cluster.metrics.add("proxy.restarts")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("proxy", "restart", self.ctx.trace_name,
                     incarnation=self.incarnation)
        self.process = self.sim.process(self._main_loop())
        self.process.name = f"proxy{self.ctx.global_id}.inc{self.incarnation}"

    # ------------------------------------------------------------------
    # Basic primitives: RTS/RTR matching (Fig 8)
    # ------------------------------------------------------------------
    def _dup_ctrl_handled(self, info: dict):
        """Idempotent receive of a (possibly retransmitted) RTS/RTR.

        Returns True when the message is a duplicate and has been fully
        handled: already-finished requests get their FIN resent (the
        original FIN may have been the loss that triggered the
        retransmit); requests still queued or in flight are dropped.
        Generator -- the FIN resend pays post overhead.
        """
        req_id = info["req_id"]
        if req_id in self._fin_sent:
            yield from self._resend_fin(req_id)
            return True
        if req_id in self._live_reqs:
            self.ctx.cluster.metrics.add("proxy.dup_ctrl_dropped")
            return True
        self._live_reqs.add(req_id)
        return False

    def _on_rts(self, info: dict) -> None:
        key = (info["src"], info["dst"], info["tag"])
        yield self.ctx.consume(self.params.dpu_match_cost)
        if self.resilient and (yield from self._dup_ctrl_handled(info)):
            return
        recvs = self._recv_q.get(key)
        if recvs:
            rtr = recvs.pop(0)
            if not recvs:
                del self._recv_q[key]
            yield from self._process_pair(info, rtr.info)
        else:
            self._send_q.setdefault(key, []).append(
                _PendingOp("rts", info["src"], info["dst"], info["tag"], info)
            )

    def _on_rtr(self, info: dict) -> None:
        key = (info["src"], info["dst"], info["tag"])
        yield self.ctx.consume(self.params.dpu_match_cost)
        if self.resilient and (yield from self._dup_ctrl_handled(info)):
            return
        sends = self._send_q.get(key)
        if sends:
            rts = sends.pop(0)
            if not sends:
                del self._send_q[key]
            yield from self._process_pair(rts.info, info)
        else:
            self._recv_q.setdefault(key, []).append(
                _PendingOp("rtr", info["src"], info["dst"], info["tag"], info)
            )

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

    def _note_cqe(self, dv) -> None:
        """Account which engine signaled a completed WQE.

        In fluid hybrid mode a bulk transfer's CQE is fired from a flow
        drain instead of the exact port walk; counting those here lets
        the differential harness confirm the proxy's completions really
        rode the FlowEngine.  Exact runs never take the branch, so clean
        metrics snapshots are untouched.
        """
        if getattr(dv, "via", "event") == "flow":
            self.ctx.cluster.metrics.add("proxy.flow_cqes")

    def _post_pair_transfer(self, pair: dict, attempt: int) -> None:
        rts, rtr = pair["rts"], pair["rtr"]
        if self.mode == "staged":
            try:
                done = yield from self.staged_send_start(
                    src_rkey=rts["rkey"], src_addr=rts["addr"], size=rts["size"],
                    dst_rkey=rtr["rkey"], dst_addr=rtr["addr"],
                    pair=pair,
                )
            except OutOfMemoryError as exc:
                yield from self._degrade_pair(pair, exc)
                return
            except ProtectionError as exc:
                yield from self._on_stale_pair(pair, exc)
                return
        else:
            try:
                mkey2 = yield from self.gvmi_cache.get(
                    rts["src"], rts["gvmi_id"], rts["mkey"],
                    rts.get("reg_addr", rts["addr"]), rts.get("reg_size", rts["size"]),
                )
                transfer = yield from rdma_write(
                    self.ctx,
                    lkey=mkey2.key,
                    src_addr=rts["addr"],
                    rkey=rtr["rkey"],
                    dst_addr=rtr["addr"],
                    size=rts["size"],
                )
            except ProtectionError as exc:
                yield from self._on_stale_pair(pair, exc)
                return
            done = transfer.completed
        inc = self.incarnation

        def _watch_cb(ev):
            # Direct completion callback on the CQE event (no watcher
            # process).  Error CQE (fault injection): back off, then
            # re-post through the inbox so the retry stays
            # ARM-serialized.  The staged path retries its legs itself
            # and completes with status ok.
            dv = ev.value
            self._note_cqe(dv)
            if self.resilient and getattr(dv, "status", "ok") == "error":
                backoff = self.sim.timeout(self.retry.rdma_backoff * attempt)
                backoff.callbacks.append(
                    lambda _t: self.ctx.inbox.put(
                        ("retry_xfer", pair, attempt + 1, inc))
                )
            else:
                self.ctx.inbox.put(("xfer_done", pair))

        done.callbacks.append(_watch_cb)

    def _on_retry_xfer(self, pair: dict, attempt: int, inc: int) -> None:
        if inc != self.incarnation:
            return  # a previous life's transfer; the retransmit redoes it
        if attempt > self.retry.rdma_retry_limit:
            raise OffloadError(
                f"basic pair src={pair['rts']['src']} dst={pair['rtr']['dst']} "
                f"tag={pair['rts']['tag']} exceeded "
                f"{self.retry.rdma_retry_limit} RDMA re-posts"
            )
        self.ctx.cluster.metrics.add("proxy.rdma_retries")
        yield from self._post_pair_transfer(pair, attempt)

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
        inc = self.incarnation

        def _after_read_cb(ev):
            dv = ev.value
            self._note_cqe(dv)
            if self.resilient and dv.status == "error":
                backoff = self.sim.timeout(self.retry.rdma_backoff * attempt)
                backoff.callbacks.append(
                    lambda _t: self.ctx.inbox.put(
                        ("staged_read", st, attempt + 1, inc))
                )
            else:
                self.ctx.inbox.put(("staged_write", st, 1, inc))

        read.completed.callbacks.append(_after_read_cb)

    def _release_stale(self, st: dict) -> None:
        """Return a dead incarnation's bounce buffer to the pool (once)."""
        if not st.get("released"):
            st["released"] = True
            self.staging.release(st["buf"])

    def _on_staged_read(self, st: dict, attempt: int, inc: int) -> None:
        if inc != self.incarnation:
            self._release_stale(st)
            return
        if attempt > self.retry.rdma_retry_limit:
            raise OffloadError("staged RDMA read exceeded the re-post limit")
        self.ctx.cluster.metrics.add("proxy.rdma_retries")
        yield from self._post_staged_read(st, attempt)

    def _on_staged_write(self, st: dict, attempt: int, inc: int) -> None:
        if inc != self.incarnation:
            self._release_stale(st)
            return
        if attempt > 1:
            # Only resilient runs ever enqueue a re-post (attempt > 1).
            if attempt > self.retry.rdma_retry_limit:
                raise OffloadError("staged RDMA write exceeded the re-post limit")
            self.ctx.cluster.metrics.add("proxy.rdma_retries")
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
                yield from self._on_stale_pair(st["pair"], exc)
                return
            raise

        def _after_write_cb(ev):
            dv = ev.value
            self._note_cqe(dv)
            if self.resilient and dv.status == "error":
                backoff = self.sim.timeout(self.retry.rdma_backoff * attempt)
                backoff.callbacks.append(
                    lambda _t: self.ctx.inbox.put(
                        ("staged_write", st, attempt + 1, inc))
                )
                return
            self.staging.release(st["buf"])
            st["done"].succeed(None)

        write.completed.callbacks.append(_after_write_cb)

    def _on_xfer_done(self, pair: dict) -> None:
        """Data landed: send FIN completion writes to both host processes."""
        fw = self.framework
        for side in ("rts", "rtr"):
            info = pair[side]
            host_rank = info["src"] if side == "rts" else info["dst"]
            req_id = info["req_id"]
            if self.resilient:
                self._live_reqs.discard(req_id)
                self._fin_sent[req_id] = host_rank
            ep = fw.endpoint(host_rank)
            yield self.ctx.consume(self.ctx.hca.post_overhead("dpu"))
            self.ctx.cluster.metrics.add("proxy.fin_writes")
            bus = self.ctx.cluster.bus
            if bus is not None:
                bus.emit("proxy", "fin", self.ctx.trace_name,
                         rid=req_id, to=host_rank)
            self.ctx.cluster.fabric.control(
                src_node=self.ctx.node_id,
                dst_node=ep.ctx.node_id,
                initiator="dpu",
                inbox=ep.completion_sink,
                msg=req_id,
                src_mem="dpu",
                dst_mem="host",
                kind="fin",
            )

    def _resend_fin(self, req_id: int) -> None:
        """A duplicate RTS/RTR for a finished request: the FIN was lost."""
        host_rank = self._fin_sent[req_id]
        ep = self.framework.endpoint(host_rank)
        yield self.ctx.consume(self.ctx.hca.post_overhead("dpu"))
        self.ctx.cluster.metrics.add("proxy.fin_resends")
        self.ctx.cluster.fabric.control(
            src_node=self.ctx.node_id,
            dst_node=ep.ctx.node_id,
            initiator="dpu",
            inbox=ep.completion_sink,
            msg=req_id,
            src_mem="dpu",
            dst_mem="host",
            kind="fin",
        )

    # ------------------------------------------------------------------
    # resource governance: stale keys and memory exhaustion
    # ------------------------------------------------------------------
    def _on_stale_pair(self, pair: dict, exc: ProtectionError) -> None:
        """A matched pair faulted on a revoked key at WQE post.

        The host freed (or its cache evicted) the registration after
        posting the control message -- the race the epoch protocol
        exists for.  Probe which side is stale, requeue the surviving
        side at the FRONT of its queue (so the recovered repost matches
        it), and nack the stale side so its Wait re-registers and
        re-posts.  Non-resilient runs fail loudly instead of silently
        writing through recycled memory.
        """
        rts, rtr = pair["rts"], pair["rtr"]
        self.ctx.cluster.metrics.add("proxy.stale_keys")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("reg", "stale_use", self.ctx.trace_name,
                     src=rts["src"], dst=rts["dst"], tag=rts["tag"])
        keys = verbs_state(self.ctx.cluster).keys
        if self.mode == "staged":
            send_live = keys.is_live(rts["rkey"])
        else:
            send_live = keys.is_live(rts["mkey"])
            # Drop the cached cross-registration so recovery registers
            # a fresh chain rather than rediscovering the stale one.
            self.gvmi_cache.invalidate(
                rts["src"],
                rts.get("reg_addr", rts["addr"]),
                rts.get("reg_size", rts["size"]),
            )
        recv_live = keys.is_live(rtr["rkey"])
        if not self.resilient:
            raise OffloadError(
                f"stale registration in offloaded pair src={rts['src']} "
                f"dst={rts['dst']} tag={rts['tag']}: {exc}"
            ) from exc
        if send_live and recv_live:
            # Only the mkey2 was stale (e.g. evicted under DPU memory
            # pressure): one re-post cross-registers afresh.
            if pair.get("stale_retries", 0) >= 1:
                raise OffloadError(
                    f"pair src={rts['src']} dst={rts['dst']} tag={rts['tag']} "
                    f"keeps faulting with live endpoint keys: {exc}"
                ) from exc
            pair["stale_retries"] = pair.get("stale_retries", 0) + 1
            yield from self._post_pair_transfer(pair, attempt=1)
            return
        key = (rts["src"], rts["dst"], rts["tag"])
        if send_live:
            self._send_q.setdefault(key, []).insert(
                0, _PendingOp("rts", rts["src"], rts["dst"], rts["tag"], rts)
            )
        if recv_live:
            self._recv_q.setdefault(key, []).insert(
                0, _PendingOp("rtr", rtr["src"], rtr["dst"], rtr["tag"], rtr)
            )
        for info, host_rank, live in (
            (rts, rts["src"], send_live),
            (rtr, rtr["dst"], recv_live),
        ):
            if live:
                continue
            # Forget the request so the recovered repost (same req_id,
            # fresh keys) is not dropped as a duplicate.
            self._live_reqs.discard(info["req_id"])
            yield from self._nack_recovery(host_rank, "stale_key",
                                           info["req_id"], kind="stale_nack")

    def _degrade_pair(self, pair: dict, exc: OutOfMemoryError) -> None:
        """DPU DRAM exhausted: this pair cannot be staged.

        Resilient runs push the sender onto the host-driven fallback
        path (mirroring the proxy-death degradation of PR 1); the pair's
        req_ids stay in ``_live_reqs`` so control retransmits are
        dropped quietly while the hosts finish over the fallback.
        """
        rts = pair["rts"]
        self.ctx.cluster.metrics.add("proxy.oom_degrades")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("proxy", "degrade", self.ctx.trace_name,
                     src=rts["src"], dst=rts["dst"], tag=rts["tag"],
                     size=rts["size"])
        if not self.resilient:
            raise OffloadError(
                f"proxy {self.ctx.global_id} out of staging memory for pair "
                f"src={rts['src']} dst={rts['dst']} tag={rts['tag']} "
                f"({exc})"
            ) from exc
        yield from self._nack_recovery(rts["src"], "oom_nack",
                                       rts["req_id"], kind="oom_nack")

    def _nack_recovery(self, host_rank: int, what: str, req_id: int,
                       kind: str) -> None:
        """Deliver a recovery notification to a host endpoint's sink."""
        ep = self.framework.endpoint(host_rank)
        yield self.ctx.consume(self.ctx.hca.post_overhead("dpu"))
        self.ctx.cluster.metrics.add(f"proxy.{kind}s")
        self.ctx.cluster.fabric.control(
            src_node=self.ctx.node_id,
            dst_node=ep.ctx.node_id,
            initiator="dpu",
            inbox=ep.recovery_sink,
            msg=(what, {"req_id": req_id}),
            src_mem="dpu",
            dst_mem="host",
            kind=kind,
        )

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
        plan = {
            "plan_id": packet["plan_id"],
            "host_rank": packet["host_rank"],
            "entries": packet["entries"],
        }
        self.plan_cache.store(packet["plan_id"], plan)
        yield from self._launch_plan(plan, packet["req_id"], cached=False,
                                     call_no=packet.get("call_no", 1))

    def _on_group_call(self, packet: dict) -> None:
        """Request-ID-only invocation (host cache hit, Section VII-D)."""
        plan = self.plan_cache.fetch(packet["plan_id"])
        if plan is None:
            if self.resilient:
                # The plan never made it here (a dropped group_plan, or a
                # group_call racing ahead of it): NACK so the host marks
                # its cached copy stale and re-ships the full plan on the
                # next retransmit.
                self.ctx.cluster.metrics.add("proxy.plan_nacks")
                ep = self.framework.endpoint(packet["host_rank"])
                yield self.ctx.consume(self.ctx.hca.post_overhead("dpu"))
                self.ctx.cluster.fabric.control(
                    src_node=self.ctx.node_id,
                    dst_node=ep.ctx.node_id,
                    initiator="dpu",
                    inbox=ep.inbox,
                    msg=("plan_nack", {"plan_id": packet["plan_id"],
                                       "req_id": packet["req_id"],
                                       "call_no": packet.get("call_no")}),
                    src_mem="dpu",
                    dst_mem="host",
                    kind="plan_nack",
                )
                return
            raise OffloadError(
                f"group_call for unknown plan {packet['plan_id']} "
                f"(host cache believed the proxy had it)"
            )
        yield from self._launch_plan(plan, packet["req_id"], cached=True,
                                     call_no=packet.get("call_no", 1))

    def _launch_plan(self, plan: dict, req_id: int, cached: bool,
                     call_no: int = 1) -> None:
        from repro.offload.group_exec import GroupExecutor

        host_rank = plan["host_rank"]
        rec = self._group_launches.get(req_id) if self.resilient else None
        if rec is not None and rec.get("call_no", 1) != call_no:
            if call_no < rec.get("call_no", 1):
                # Duplicate of an already-superseded call: its FIN is the
                # only thing the host could still be missing.
                yield from self._send_group_completion(host_rank, req_id,
                                                       call_no)
                return
            # A recorded pattern being re-called: a fresh invocation, not
            # a replay of the finished one -- launch anew with new seqs.
            rec = None
        if rec is not None:
            if rec["done"]:
                # Finished in an earlier life/attempt: the completion
                # write must have been lost -- resend it idempotently.
                yield from self._send_group_completion(host_rank, req_id,
                                                       call_no)
                return
            if rec["incarnation"] == self.incarnation:
                # Duplicate invocation while the executor still runs.
                self.ctx.cluster.metrics.add("proxy.dup_ctrl_dropped")
                return
            # Killed mid-run: replay with the ORIGINAL per-pair sequence
            # numbers so peer proxies' (src, dst, seq) counter keys still
            # line up with what they already wrote or await.
            rec["incarnation"] = self.incarnation
            seqs = dict(rec["seqs"])
            self.ctx.cluster.metrics.add("proxy.group_replays")
            if self.ctx.cluster.bus is not None:
                self.ctx.cluster.bus.emit(
                    "group", "replay", self.ctx.trace_name,
                    plan=plan["plan_id"], call=req_id,
                )
        else:
            seqs = {}
            for entry in plan["entries"]:
                if entry["kind"] == "send":
                    pair = (host_rank, entry["dst"])
                    if pair not in seqs:
                        self._seq_out[pair] = self._seq_out.get(pair, 0) + 1
                        seqs[pair] = self._seq_out[pair]
                elif entry["kind"] == "recv":
                    pair = (entry["src"], host_rank)
                    if pair not in seqs:
                        self._seq_in[pair] = self._seq_in.get(pair, 0) + 1
                        seqs[pair] = self._seq_in[pair]
            if self.resilient:
                self._group_launches[req_id] = {
                    "seqs": dict(seqs),
                    "incarnation": self.incarnation,
                    "done": False,
                    "call_no": call_no,
                }
        executor = GroupExecutor(self, plan, req_id, seqs, cached=cached,
                                 call_no=call_no)
        self.ctx.cluster.metrics.add("proxy.group_plans_cached" if cached else "proxy.group_plans_full")
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("group", "launch", self.ctx.trace_name,
                     plan=plan["plan_id"], call=req_id, cached=cached)
        yield from self._drive_executor(executor, None)

    def finish_group(self, host_rank: int, req_id: int, call_no: int = 1):
        """Executor epilogue: durably mark done, then write completion."""
        if self.resilient:
            rec = self._group_launches.get(req_id)
            if rec is not None and rec.get("call_no", 1) == call_no:
                rec["done"] = True
        yield from self._send_group_completion(host_rank, req_id, call_no)

    def _send_group_completion(self, host_rank: int, req_id: int,
                               call_no: int = 1):
        """Completion-counter RDMA write into host memory (Group_Wait)."""
        ep = self.framework.endpoint(host_rank)
        yield self.ctx.consume(self.ctx.hca.post_overhead("dpu"))
        self.ctx.cluster.metrics.add("proxy.group_completions")
        self.ctx.cluster.fabric.control(
            src_node=self.ctx.node_id,
            dst_node=ep.ctx.node_id,
            initiator="dpu",
            inbox=ep.completion_sink,
            msg=(req_id, call_no),
            size=8,
            src_mem="dpu",
            dst_mem="host",
            kind="fin",
        )

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
        peer_engine = self.framework.proxy_engine(peer)
        if self.resilient:
            # Durable record: a peer probing for a lost write gets this
            # epoch re-written (see _on_counter_probe).
            self._counters_sent[key] = max(self._counters_sent.get(key, 0), epoch)
        yield self.ctx.consume(self.ctx.hca.post_overhead("dpu"))
        self.ctx.cluster.metrics.add("proxy.counter_writes")
        self.ctx.cluster.fabric.control(
            src_node=self.ctx.node_id,
            dst_node=peer.node_id,
            initiator="dpu",
            inbox=peer_engine.counter_sink,
            msg=(key, epoch),
            size=8,
            src_mem="dpu",
            dst_mem="dpu",
            kind="counter",
        )

    def write_counters_batch(self, writes):
        """Chained counter post: one doorbell arms many WQEs (a generator).

        ``writes`` is ``[(dst_rank, key, epoch), ...]``.  With
        ``MachineParams.counter_doorbell_batch`` the ARM links the
        counter WQEs into one chain and pays a single post overhead for
        the lot; the fabric still carries one 8-byte control write per
        counter, so peers observe exactly the same messages in the same
        (sorted-destination) order as the unbatched path.
        """
        yield self.ctx.consume(self.ctx.hca.post_overhead("dpu"))
        self.ctx.cluster.metrics.add("proxy.counter_doorbells")
        for dst_rank, key, epoch in writes:
            peer = self.ctx.cluster.proxy_for_rank(dst_rank)
            peer_engine = self.framework.proxy_engine(peer)
            if self.resilient:
                self._counters_sent[key] = max(self._counters_sent.get(key, 0), epoch)
            self.ctx.cluster.metrics.add("proxy.counter_writes")
            self.ctx.cluster.fabric.control(
                src_node=self.ctx.node_id,
                dst_node=peer.node_id,
                initiator="dpu",
                inbox=peer_engine.counter_sink,
                msg=(key, epoch),
                size=8,
                src_mem="dpu",
                dst_mem="dpu",
                kind="counter",
            )

    def arm_counter_probe(self, key: tuple, ev: Event,
                          writer_rank: int, my_rank: int) -> None:
        """Chase a possibly-lost counter write while ``ev`` is unfired.

        Spawns a prober that, with backoff, asks the proxy serving
        ``writer_rank`` to re-write counter ``key`` toward ``my_rank``'s
        proxy (this engine).  No-op on clean runs.
        """
        if not self.resilient or self.fault_plan is None or ev.triggered:
            return
        peer = self.ctx.cluster.proxy_for_rank(writer_rank)
        inc = self.incarnation

        def _prober():
            delay = self.retry.counter_probe_after
            while True:
                yield self.sim.timeout(delay)
                if ev.triggered or self.incarnation != inc or not self.alive:
                    return
                self.ctx.cluster.metrics.add("proxy.counter_probes")
                self.ctx.cluster.fabric.control(
                    src_node=self.ctx.node_id,
                    dst_node=peer.node_id,
                    initiator="dpu",
                    inbox=peer.inbox,
                    msg=("counter_probe", {"key": key, "rank": my_rank}),
                    size=16,
                    src_mem="dpu",
                    dst_mem="dpu",
                    kind="counter_probe",
                )
                delay = min(delay * self.retry.backoff, 4 * self.retry.max_timeout)

        self.sim.process(_prober())

    def _on_counter_probe(self, info: dict) -> None:
        """A peer suspects it lost one of my counter writes: re-write it."""
        key = info["key"]
        epoch = self._counters_sent.get(key)
        if epoch is None:
            return  # not written yet; the peer will probe again
        self.ctx.cluster.metrics.add("proxy.counter_rewrites")
        yield from self.write_counter_to(info["rank"], key, epoch)

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
                f"host={executor.plan['host_rank']} parked on {event!r}"
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
