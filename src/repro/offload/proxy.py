"""DPU proxy (worker) processes.

Each proxy serializes its work on its own ARM core, :class:`ArmCore`,
which drains the proxy inbox and dispatches (paper Figs. 8 and 10):

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
  serialized through the one core.

Deadlock avoidance follows Algorithm 1: an executor that must wait (for
send completions at a barrier, or for peer barrier counters) *parks* --
returns control to this progress engine -- so a proxy serving several
host ranks keeps making progress for the others.  Every entry the core
files is filed at the instant, float and turn a generator process would
have used (``tests/test_proxy_walk_pin.py``).
"""

from __future__ import annotations

from functools import partial
from types import GeneratorType
from typing import TYPE_CHECKING, Any

from repro.hw.memory import OutOfMemoryError
from repro.hw.node import ProcessContext
from repro.offload.group_cache import DpuPlan, DpuPlanCache
from repro.offload.group_exec import GroupExecutor, _noop
from repro.offload.gvmi_cache import dpu_gvmi_cache
from repro.offload.requests import OffloadError
from repro.offload.staging import StagingChannel
from repro.sim import Event, Interrupt
from repro.sim.core import PENDING
from repro.verbs.mr import ProtectionError
from repro.verbs.rdma import rdma_read, rdma_write, verbs_state

if TYPE_CHECKING:  # pragma: no cover
    from repro.offload.api import OffloadFramework

__all__ = ["ProxyEngine", "CounterBoard", "ArmCore"]


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


class ArmCore(Event):
    """One incarnation of a proxy's ARM core: a FIFO slot for its work.

    The core holds one inbox item at a time and is its own calendar
    entry, as a fabric message is (:class:`repro.hw.fabric._Message`)
    and as an HCA port hands itself on (:class:`repro.hw.nic.Port`): it
    waits for an item as the inbox's getter, and every ARM charge files
    it at ``now + cost`` -- the float a ``Timeout`` of that cost would
    get -- with the next step, an *unbound* function, as its
    ``callbacks``.  A Group executor runs as steps on it; cold handlers
    that still ``yield`` -- Basic matching and FINs, the staged bounce,
    the recovery hooks, SHMEM's ``extra_handlers`` -- run through one
    adapter, :func:`_run_gen`, that waits on whatever event they yield.
    ``interrupt`` and ``close`` end it as they would a process.
    """

    __slots__ = ("engine", "name", "batch", "pos", "job", "gen", "then",
                 "waiting", "arg", "ended")

    def __init__(self, engine: "ProxyEngine", name: str):
        sim = self.sim = engine.sim
        self._value = None
        self._ok = True
        self._scheduled = self._defused = self.ended = False
        self.engine = engine
        self.name = name
        self.batch = self.job = self.gen = self.then = self.waiting = self.arg = None
        self.pos = 0
        if sim.bus is not None:
            # The row a proxy's worker process has always started with.
            sim.bus.emit("proc", "start", "sim", name="_main_loop")
        self.callbacks = _TAKE
        sim._schedule_at(self, sim.now)

    def _resumed(self, event: Event) -> None:
        """What a cold generator waited on has fired."""
        self.waiting = None
        if event._ok:
            held = _gen_send(self, event._value, None)
        else:
            event._defused = True
            held = _gen_send(self, None, event._value)
        if not held:
            _next(self)

    def interrupt(self, cause: Any = None) -> None:
        """Kill: drop the wait in hand and end at the next turn of now."""
        waiting = self.waiting
        if not isinstance(waiting, Event):
            self.callbacks = _IDLE
        elif waiting.callbacks is not None:
            waiting.callbacks.remove(self._resumed)
        carrier = Event(self.sim)
        carrier._ok, carrier._value, carrier._defused = False, Interrupt(cause), True
        carrier.callbacks.append(self._interrupted)
        self.sim._schedule_at(carrier, self.sim.now)

    def _interrupted(self, carrier: Event) -> None:
        if self.waiting is not None and not isinstance(self.waiting, Event):
            self.waiting.cancel(self)  # still the inbox's getter
        if self.gen is not None:
            # A cold handler lets go of what it holds; a fresh exception,
            # as the carrier's would hold this frame in its traceback.
            try:
                self.gen.throw(Interrupt(carrier._value.cause))
            except Interrupt:
                pass
        _end(self)

    def close(self) -> None:
        """End of life without simulating: let go of the inbox, the work
        in hand and the engine; a pending entry of this core fires as a
        no-op."""
        waiting = self.waiting
        if isinstance(waiting, Event) and waiting.callbacks is not None:
            waiting.callbacks.remove(self._resumed)
        elif waiting is not None:
            waiting.cancel(self)
        if self.gen is not None:
            self.gen.close()
        self.callbacks = _IDLE
        self.ended = True
        self.batch = self.job = self.gen = self.then = self.waiting = None
        self.arg = self.engine = None


# -- the core's steps (each is ``callbacks[0](core)``) -----------------------
def _take(core) -> None:
    """Wait for the next inbox item, as the inbox's getter."""
    engine = core.engine
    inbox = engine.inbox
    if inbox is None:
        inbox = engine.inbox = engine.ctx.inbox
    core.callbacks = _GOT
    core._value = PENDING
    core._scheduled = False
    inbox.get(into=core)
    if not core._scheduled:
        core.waiting = inbox


def _got(core) -> None:
    """Wake, drain, charge once.

    Each ARM wakeup serves up to ``proxy_batch_drain or 1`` queued items
    under a single ``dpu_handler_cost`` charge.  The paper's proxy rings
    through the doorbell/event path once per message -- that is the
    default (one item per wakeup); at thousand-rank scale the handler
    wakeups themselves dominate ARM time, so
    ``MachineParams.proxy_batch_drain`` lets one wakeup drain whatever is
    already queued (capped at the batch size).  Per-item protocol costs
    are the same either way; only the per-message wakeup tax is
    amortized.  The knob sets the drain cap and turns on the drain
    accounting (``proxy.wakeups`` / ``proxy.drained_items`` and one
    ``queue.drain`` bus event carrying the item count).
    """
    core.waiting = None
    item = core._value
    if item[0] == "stop":
        _end(core)
        return
    engine = core.engine
    batch = [item]
    batch_drain = engine.params.proxy_batch_drain
    if batch_drain:
        inbox = engine.inbox
        while len(batch) < batch_drain:
            ok, nxt = inbox.try_get()
            if not ok:
                break
            batch.append(nxt)
        engine.wakeups += 1
        engine.drained_items += len(batch)
        bus = engine.ctx.cluster.bus
        if bus is not None:
            bus.emit("queue", "drain", engine.ctx.trace_name, n=len(batch))
    core.batch, core.pos = batch, 0
    _charge(core, engine.params.dpu_handler_cost, _NEXT)


def _charge(core, cost: float, steps) -> None:
    """Hold the core for ``cost`` seconds, then run ``steps``: what
    ``ProcessContext.consume`` charges, filed where its ``Timeout`` would
    be."""
    ctx = core.engine.ctx
    ctx.busy_time += cost
    sim = core.sim
    now = sim.now
    bus = ctx.cluster.bus
    if bus is not None and cost > 0:
        bus.span(ctx.trace_name, now, now + cost)
    core.callbacks = steps
    core._scheduled = False
    sim._schedule_at(core, now + cost)


def _next(core) -> None:
    """Serve the rest of the wakeup's batch, then wait for more."""
    batch = core.batch
    while core.pos < len(batch):
        item = batch[core.pos]
        core.pos += 1
        if _serve(core, item):
            return
    core.batch = None
    _take(core)


def _serve(core, item) -> bool:
    """Dispatch one item; True while it holds the core."""
    engine = core.engine
    kind = item[0]
    if kind == "resume":
        if item[3] != engine.incarnation:
            return False
        engine._parked.pop(item[1], None)
        core.job = item[1]
        return _run_job(core)
    if kind == "group_call":
        return engine._on_group_call(core, item[1])
    if kind == "group_plan":
        packet = core.arg = item[1]
        # Per-entry unpack cost: the packet is a contiguous message the
        # ARM walks once.
        _charge(core, engine.params.dpu_handler_cost * 0.25
                * max(1, len(packet["entries"])), _PLAN)
        return True
    if kind == "rts":
        return _run_gen(core, engine._match(item[1], engine._send_q, engine._recv_q))
    if kind == "rtr":
        return _run_gen(core, engine._match(item[1], engine._recv_q, engine._send_q))
    if kind == "xfer_done":
        return _run_gen(core, engine._on_xfer_done(item[1]))
    if kind == "staged_write":
        return _run_gen(core, engine._post_staged_write(item[1], 1, item[2]))
    if kind == "stop":
        _end(core)
        return True
    if kind in engine.extra_handlers:
        return _run_gen(core, engine.extra_handlers[kind](engine, item[1]))
    raise OffloadError(f"proxy: unknown inbox item {kind!r}")  # pragma: no cover


def _run_job(core) -> bool:
    """Step the executor in hand until it holds or lets go of the core."""
    ex = core.job
    held = ex.step(ex)
    if held is None:
        core.job = None
        return False
    if type(held) is GeneratorType:
        return _run_gen(core, held, _job_got)
    _charge(core, held, _JOB)
    return True


def _job_step(core) -> None:
    """:func:`_run_job` as the step after an executor's charge (inlined:
    it runs once per charge of every Group executor)."""
    ex = core.job
    held = ex.step(ex)
    if held is None:
        core.job = None
        _next(core)
    elif type(held) is GeneratorType:
        if not _run_gen(core, held, _job_got):
            _next(core)
    else:
        _charge(core, held, _JOB)


def _job_got(core, value) -> bool:
    core.job.got = value
    return _run_job(core)


def _run_gen(core, gen, then=None) -> bool:
    """Drive a cold generator on the core; ``then(core, value)`` runs
    when it returns."""
    core.gen, core.then = gen, then
    return _gen_send(core, None, None)


def _gen_send(core, value, exc) -> bool:
    gen = core.gen
    while True:
        try:
            event = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            then = core.then
            core.gen = core.then = None
            return then is not None and then(core, stop.value)
        if event.callbacks is not None:
            event.callbacks.append(core._resumed)
            core.waiting = event
            return True
        value, exc = (event._value, None) if event._ok else (None, event._value)


def _end(core) -> None:
    """``stop`` or a kill: the worker ends."""
    core.ended = True
    core.batch = core.job = core.gen = core.then = None
    if core.sim.bus is not None:
        core.sim.bus.emit("proc", "end", "sim", name=core.name)
    core.sim.event().succeed(None)  # the worker process's own completion


def _unpacked(core) -> None:
    """A ``group_plan`` packet's unpack charge is over: launch it."""
    if not core.engine._on_group_plan(core):
        _next(core)


_TAKE = (_take,)
_GOT = (_got,)
_NEXT = (_next,)
_JOB = (_job_step,)
_PLAN = (_unpacked,)
_IDLE = (_noop,)  # a core killed or closed while filed


#: The engine's hot counters: (metric, slot, the slot whose count makes
#: the metric exist).
_COUNTERS = tuple(("proxy." + name, name, witness) for name, witness in (
    ("fin_writes", "fin_writes"), ("counter_writes", "counter_writes"),
    ("group_completions", "group_completions"),
    ("group_plans_cached", "group_plans_cached"),
    ("group_plans_full", "group_plans_full"), ("basic_pairs", "basic_pairs"),
    ("reduces", "reduces"), ("reduced_bytes", "reduces"),
    ("wakeups", "wakeups"), ("drained_items", "wakeups")))


class ProxyEngine:
    """Protocol engine of one DPU worker process."""

    __slots__ = (
        "framework", "ctx", "sim", "params", "inbox", "hca", "fabric", "verbs",
        "post_cost", "mode", "gvmi_cache", "plan_cache", "staging",
        "counters", "counter_sink", "_send_q", "_recv_q", "_seq_out", "_seq_in",
        "_peers", "_hosts", "extra_handlers", "recovery", "incarnation", "alive",
        "_parked", "core") + tuple(name for _key, name, _witness in _COUNTERS)

    def __init__(self, framework: "OffloadFramework", ctx: ProcessContext):
        if ctx.kind != "dpu":
            raise OffloadError("ProxyEngine must run on a DPU context")
        self.framework = framework
        self.ctx = ctx
        self.sim = ctx.sim
        self.params = ctx.cluster.params
        #: The context's inbox, bound when the core first waits on it
        #: (an inbox is built on first touch).
        self.inbox = None
        self.hca = ctx.hca
        self.fabric = ctx.cluster.fabric
        self.verbs = verbs_state(ctx.cluster)
        #: ARM cost of posting one work request.
        self.post_cost = ctx.hca.post_overhead("dpu")
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
        #: Control routes worked out once: (peer proxy, size) -> (counter
        #: sink, route); (host rank, size) -> (endpoint, route).
        self._peers: dict[tuple, tuple] = {}
        self._hosts: dict[tuple, tuple] = {}
        #: Extension point: front-ends (the SHMEM layer, the recovery
        #: policy) register extra inbox-item handlers here:
        #: kind -> generator(engine, payload), run on the core.
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
        # Hot counters, read through the metrics as ``proxy.*``.
        self.fin_writes = self.counter_writes = self.group_completions = 0
        self.group_plans_cached = self.group_plans_full = self.basic_pairs = 0
        self.reduces = self.reduced_bytes = self.wakeups = self.drained_items = 0
        ctx.cluster.metrics.slots(self, _COUNTERS)

        self.sim.watchdog_probes.append(self._watchdog_report)
        self.start(f"proxy{ctx.global_id}")
        bus = ctx.cluster.bus
        if bus is not None:
            bus.emit("proxy", "start", ctx.trace_name, gid=ctx.global_id)

    def start(self, name: str) -> None:
        """Boot a worker: a fresh ARM core that starts at this instant."""
        self.core = ArmCore(self, name)

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
        self.basic_pairs += 1
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
        all ARM work stays serialized through the core.  ``leg`` is
        ``"pair"`` (a basic pair's data landed), ``"read"`` (staged source
        leg: the write leg is next) or ``"write"`` (staged transfer done).
        """
        dv = ev.value
        if getattr(dv, "via", "event") == "flow":
            # On a fat-tree the bulk bytes rode a flow, not the port
            # walk; the count confirms completions really came that way.
            self.ctx.cluster.metrics.add("proxy.flow_cqes")
        if self.recovery is not None and getattr(dv, "status", "ok") == "error":
            self.recovery.repost_after_error(leg, state, attempt, inc)
        elif leg == "pair":
            self.inbox.put(("xfer_done", state))
        elif leg == "read":
            self.inbox.put(("staged_write", state, inc))
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
        lazy = self.fabric.fault_plan is None
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
            yield self.ctx.consume(self.post_cost)
            bus = self.ctx.cluster.bus
            if bus is not None:
                bus.emit("proxy", "fin", self.ctx.trace_name,
                         rid=req_id, to=host_rank)
            self.fin_writes += 1
            self._host_write(host_rank, req_id, None)

    def _host_write(self, host_rank: int, msg, size, kind: str = "fin",
                    sink=None) -> None:
        """One control write of ``kind`` into ``host_rank``'s completion
        sink, or into ``sink`` of that endpoint, over the engine's cached
        route there (the caller has paid the post and counted it).  Not
        :func:`post_control`: that would also count it under
        ``ctrl.dpu_to_*``, which the benchmark ledger adds *to*
        ``proxy.fin_writes`` and ``proxy.group_completions``."""
        to = self._hosts.get((host_rank, size))
        if to is None:
            ep = self.framework.endpoint(host_rank)
            to = self._hosts[host_rank, size] = (ep, self.fabric.control_route(
                self.ctx.node_id, ep.ctx.node_id, "dpu", size, "dpu", ep.ctx.mem_kind))
        self.fabric.send_control(to[1], to[0].completion_sink if sink is None else sink,
                                 msg, kind)

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
    def _on_group_plan(self, core: ArmCore) -> bool:
        """Full plan arriving (host cache miss or dirty plan re-ship),
        its unpack already charged."""
        packet, core.arg = core.arg, None
        plan = DpuPlan(packet["plan_id"], packet["host_rank"], packet["entries"])
        # Kept for calls by ID: the host's cached calls and recovery's
        # retransmits.  With neither (the uncached ablation, BluesMPI)
        # nobody asks again, and keeping it would grow per call.
        if self.framework.group_caching or self.recovery is not None:
            self.plan_cache.store(packet["plan_id"], plan)
        return self._launch_plan(core, plan, packet["req_id"], False,
                                 packet.get("call_no", 1))

    def _on_group_call(self, core: ArmCore, packet: dict) -> bool:
        """Request-ID-only invocation (host cache hit, Section VII-D)."""
        plan = self.plan_cache.fetch(packet["plan_id"])
        if plan is None:
            if self.recovery is None:
                raise OffloadError(
                    f"group_call for unknown plan {packet['plan_id']} "
                    f"(host cache believed the proxy had it)"
                )
            return _run_gen(core, self.recovery.plan_nack(
                packet["host_rank"], packet["plan_id"], packet["req_id"],
                packet.get("call_no")))
        return self._launch_plan(core, plan, packet["req_id"], True,
                                 packet.get("call_no", 1))

    def _launch_plan(self, core: ArmCore, plan: DpuPlan, req_id: int, cached: bool,
                     call_no: int) -> bool:
        core.job = GroupExecutor(self, plan, req_id, cached, call_no)
        if self.recovery is not None:
            # Idempotent launch: a retransmitted or replayed invocation
            # may need no executor at all (False), or the ORIGINAL
            # sequence numbers of the launch a kill interrupted.
            return _run_gen(core, self.recovery.relaunch(plan, req_id, call_no),
                            self._launch)
        return self._launch(core, None)

    def _launch(self, core: ArmCore, seqs) -> bool:
        ex = core.job
        if seqs is False:
            core.job = None
            return False
        plan, host_rank = ex.plan, ex.plan.host_rank
        if seqs is None:
            seqs = {}
            for entry in plan.entries:
                if entry.kind == "send":
                    pair = (host_rank, entry.peer)
                    if pair not in seqs:
                        seqs[pair] = self._seq_out[pair] = self._seq_out.get(pair, 0) + 1
                elif entry.kind == "recv":
                    pair = (entry.peer, host_rank)
                    if pair not in seqs:
                        seqs[pair] = self._seq_in[pair] = self._seq_in.get(pair, 0) + 1
            if self.recovery is not None:
                self.recovery.record_launch(ex.req_id, seqs, ex.call_no)
        ex.seqs = seqs
        if ex.cached:
            self.group_plans_cached += 1
        else:
            self.group_plans_full += 1
        bus = self.ctx.cluster.bus
        if bus is not None:
            bus.emit("group", "launch", self.ctx.trace_name,
                     plan=plan.plan_id, call=ex.req_id, cached=ex.cached)
        return _run_job(core)

    def completion_write(self, host_rank: int, req_id: int, call_no: int) -> None:
        """Completion-counter RDMA write into host memory (Group_Wait);
        the caller has paid the post."""
        self.group_completions += 1
        self._host_write(host_rank, (req_id, call_no), 8)

    # ------------------------------------------------------------------
    # counter writes (barrier/flow notifications)
    # ------------------------------------------------------------------
    def counter_route(self, dst_rank: int, size: int = 8) -> tuple:
        """Where a barrier counter for ``dst_rank`` goes: its proxy's
        counter sink and the control route there for ``size``-byte
        writes (one per peer proxy and size)."""
        peer = self.ctx.cluster.proxy_for_rank(dst_rank)
        key = (peer.global_id, size)
        to = self._peers.get(key)
        if to is None:
            to = self._peers[key] = (
                self.framework.proxy_engine(peer).counter_sink,
                self.fabric.control_route(self.ctx.node_id, peer.node_id, "dpu", size,
                                          "dpu", peer.mem_kind))
        return to

    def counter_write(self, to: tuple, key: tuple, epoch: int) -> None:
        """RDMA-write a barrier counter along a :meth:`counter_route`; the
        caller has paid the post."""
        self.counter_writes += 1
        self.fabric.send_control(to[1], to[0], (key, epoch), "counter")

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
