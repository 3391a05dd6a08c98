"""Proxy-side execution of a Group_Offload_packet (Fig 10, Algorithm 1).

The executor walks the Group_op queue:

* **send** -- resolve mkey2 (from the entry's cached key if the plan is
  cached, else through the DPU GVMI cache), post the RDMA write on the
  host's behalf, remember the destination rank in ``sendRankSet``;
* **recv** -- remember the source rank in ``recvRankSet``;
* **barrier** (``Local_barrier_Goffload``) -- bump ``numBarriers``;
  wait for every send posted since the previous barrier to complete;
  RDMA-write the barrier count to the proxies of every rank in
  ``sendRankSet``; then wait until the local counters from every rank
  in ``recvRankSet`` reach ``numBarriers``.

After the last entry an implicit final epoch (``numBarriers + 1``)
flushes trailing sends' counters and waits for trailing receives; then
one RDMA write sets the completion counter in host memory
(``Group_Wait`` returns without any host-CPU protocol work).

The executor is data -- a plan index, a barrier epoch, the pending sends
and the two rank sets -- advanced by step functions on the proxy's ARM
core (:class:`repro.offload.proxy.ArmCore`).  ``ex.step(ex)`` returns the
seconds to hold the core before the next step, a cold generator to
drive first (a first cross-registration, a staged bounce, a recovery
hook; its value lands in ``ex.got``), or ``None``: done, or *parked*.
Parking is a return -- Algorithm 1's "break from the function to the
progress engine", which avoids deadlock when one proxy carries both
sides of a dependence; the wait's end queues a ``resume`` item.  A
cached send entry carries its resolved work request (``SendEntry``'s
``mkey2`` and ``wqe_*`` slots): a replay checks that both keys still map
to the very registration records they were checked against and posts
straight to the fabric.

Like the paper's algorithm, barrier matching assumes the communicating
ranks record the same number of barriers (true for every pattern in the
evaluation: rings, alltoalls, stencils).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.offload.requests import OffloadError
from repro.sim.core import PENDING, Event
from repro.verbs.mr import FIRST_KEY, ProtectionError
from repro.verbs.rdma import work_request

if TYPE_CHECKING:  # pragma: no cover
    from repro.offload.group_cache import DpuPlan
    from repro.offload.proxy import ProxyEngine

__all__ = ["GroupExecutor"]


class GroupExecutor(Event):
    """One in-flight Group_Offload_packet on one proxy; its own calendar
    entry for the end of a segment's sends (see :func:`_flush`)."""

    __slots__ = ("engine", "plan", "req_id", "seqs", "cached", "call_no",
                 "i", "epoch", "pending", "send_set", "recv_set", "step",
                 "todo", "k", "waiting", "inc", "entry", "failed",
                 "attempt", "got")

    def __init__(self, engine: "ProxyEngine", plan: "DpuPlan", req_id: int,
                 cached: bool, call_no: int = 1):
        self.sim = engine.sim
        self.callbacks = _REARM
        self._value = PENDING
        self._ok = True
        self._scheduled = self._defused = False
        self.engine = engine
        self.plan = plan
        self.req_id = req_id
        #: per host-pair sequence numbers, assigned at launch.
        self.seqs = None
        self.cached = cached
        #: Which Group_Offload_call of the (re-usable) request this is --
        #: disambiguates a replay of call N from a fresh call N+1.
        self.call_no = call_no
        self.i = self.epoch = self.k = self.waiting = 0
        #: (entry, completion event) of the sends since the last barrier.
        self.pending: list = []
        #: ``sendRankSet``: peer rank -> a send entry to it.
        self.send_set: dict = {}
        self.recv_set: set[int] = set()
        self.step = _walk
        self.todo = self.entry = self.failed = self.got = None
        self.attempt = 1

    # -- parking ----------------------------------------------------------
    def _rearm(self, _event=None) -> None:
        """The parked-on wait is over: queue a resume on the proxy."""
        self.engine.inbox.put(("resume", self, None, self.inc))

    def _sent(self, _event) -> None:
        self.waiting -= 1
        if not self.waiting:
            self._value = None
            self._scheduled = True
            self.sim._cur.append(self)

    def park_on(self, event: Event, step) -> None:
        """Let go of the core until ``event`` fires, then run ``step``."""
        engine = self.engine
        self.step = step
        self.inc = engine.incarnation
        engine._parked[self] = event
        event.callbacks.append(self._rearm)


_REARM = (GroupExecutor._rearm,)


def _walk(ex):
    """Run entries from ``ex.i`` until one holds the core."""
    entries = ex.plan.entries
    i, n = ex.i, len(entries)
    while i < n:
        entry = entries[i]
        kind = entry.kind
        if kind == "send":
            ex.i = i
            return _post_send(ex, entry)
        if kind == "recv":
            ex.recv_set.add(entry.peer)
        elif kind == "reduce":
            # ``dst += src`` over float64 words: the ARM core streams both
            # operands in and the result out through the DPU's memory path
            # (3 x size bytes) and adds at about a third of a host core's
            # flop rate (the BlueField-2 A72 ratio the defaults encode).
            ex.i = i
            ex.step = _reduced
            params = ex.engine.params
            return (3 * entry.size / params.dpu_memory_bandwidth
                    + 3 * (entry.size // 8) / params.host_flops_per_core)
        elif kind == "barrier":
            ex.i = i
            ex.epoch += 1
            ex.step = _flush
            return ex.engine.params.dpu_handler_cost * 0.5
        else:  # pragma: no cover - defensive
            raise OffloadError(f"unknown Group_op kind {kind!r}")
        i += 1
    # Implicit final epoch: flush trailing sends, await trailing recvs.
    ex.i = n
    ex.epoch += 1
    return _flush(ex)


def _reduced(ex):
    entry = ex.plan.entries[ex.i]
    engine = ex.engine
    size, count = entry.size, entry.size // 8
    engine.reduces += 1
    engine.reduced_bytes += size
    cluster = engine.ctx.cluster
    if cluster.payloads and count:
        import numpy as np

        space = cluster.rank_ctx(ex.plan.host_rank).space
        acc = space.read_as(entry.addr2, np.float64, count)
        inc = space.read_as(entry.addr, np.float64, count)
        space.write(entry.addr2, acc + inc)
    ex.i += 1
    return _walk(ex)


# -- sends -------------------------------------------------------------------
def _post_send(ex, entry):
    """Check ``entry``'s keys and charge its post.  A replay revalidates
    its resolved work request by identity; a first call cross-registers
    (a cold generator), and staged mode bounces through DPU DRAM."""
    ex.entry = entry
    engine = ex.engine
    if engine.mode == "staged":
        ex.step = _got_send
        return _guarded(engine.staged_send_start(
            src_rkey=entry.reg.rkey, src_addr=entry.op.addr, size=entry.op.size,
            dst_rkey=entry.rkey, dst_addr=entry.dst_addr))
    keys = engine.verbs.keys
    mkey2, dst, records = entry.mkey2, entry.wqe_dst, keys._records
    if (dst is None or records[mkey2.key - FIRST_KEY] is not mkey2
            or records[entry.rkey - FIRST_KEY] is not dst):
        if mkey2 is None:
            ex.step = _got_send
            reg = entry.reg
            return _guarded(engine.gvmi_cache.get(
                reg.addr, reg.size, ex.plan.host_rank, reg.gvmi_id, reg.key))
        return _checked(ex, entry)
    if keys.use_log is not None:
        now = keys._clock()
        keys.use_log += (("use", now, mkey2.key, mkey2),
                         ("use", now, entry.rkey, dst))
    ex.step = _send_posted
    return engine.post_cost


def _guarded(gen):
    """``gen``'s value, or the ``ProtectionError`` it raised."""
    try:
        return (yield from gen)
    except ProtectionError as exc:
        return exc


def _got_send(ex):
    got, ex.got = ex.got, None
    if isinstance(got, ProtectionError):
        return _stale(ex, got)
    if ex.engine.mode == "staged":
        return _sent(ex, got)
    # Attach for future cached invocations (Section VII-D: "the group
    # entry queue also contains the GVMI registration cache entry").
    ex.entry.mkey2 = got
    return _checked(ex, ex.entry)


def _checked(ex, entry):
    """Resolve the send's work request (``verbs.rdma.work_request``),
    keep it in the entry, and charge the post."""
    engine = ex.engine
    op = entry.op
    try:
        entry.mkey2, entry.wqe_dst, entry.wqe_ser = work_request(
            engine.verbs, engine.ctx, entry.mkey2.key, op.addr, entry.rkey,
            entry.dst_addr, op.size)
    except ProtectionError as exc:
        return _stale(ex, exc)
    ex.step = _send_posted
    return engine.post_cost


def _send_posted(ex):
    entry = ex.entry
    engine = ex.engine
    engine.hca.dpu_writes += 1
    op = entry.op
    src, dst, size = entry.mkey2.owner, entry.wqe_dst.owner, op.size
    deliver = None
    if size and engine.ctx.cluster.payloads:
        src_space, src_addr = src.space, op.addr
        dst_space, dst_addr = dst.space, entry.dst_addr

        def deliver(_dv):
            dst_space.write(dst_addr, src_space.read(src_addr, size))

    hcas = engine.fabric.hcas
    return _sent(ex, engine.fabric.post(hcas[src.node_id], hcas[dst.node_id], size,
                                        "dpu", entry.wqe_ser, deliver, "rdma_write",
                                        engine.ctx))


def _sent(ex, done):
    entry, ex.entry = ex.entry, None
    ex.pending.append((entry, done))
    if ex.failed is None:
        ex.send_set[entry.op.peer] = entry
        ex.i += 1
        return _walk(ex)
    ex.k += 1
    return _repost(ex)


def _stale(ex, exc: ProtectionError):
    """A key of the plan (or its attached mkey2) died: abandon the call."""
    ex.entry.mkey2 = ex.entry.wqe_dst = None
    recovery = ex.engine.recovery
    if recovery is None:
        raise OffloadError(
            f"group plan {ex.plan.plan_id} of host {ex.plan.host_rank} "
            f"references a revoked registration: {exc}") from exc
    ex.step = _noop
    return recovery.abort_stale(ex)


def _noop(_x) -> None:
    """A step that does nothing: an abandoned executor's last one."""


# -- barriers -----------------------------------------------------------------
def _flush(ex):
    """Wait for the segment's sends (filing itself when the last one
    completes, as an ``AllOf`` would), then write counters to their peers."""
    incomplete = [ev for _entry, ev in ex.pending if ev.callbacks is not None]
    if not incomplete:
        return _flushed(ex)
    ex.waiting = len(incomplete)
    sent = ex._sent
    for ev in incomplete:
        ev.callbacks.append(sent)
    ex._value = PENDING
    ex._scheduled = False
    ex.callbacks = _REARM
    ex.step = _flushed
    ex.inc = ex.engine.incarnation
    ex.engine._parked[ex] = ex
    return None


def _flushed(ex):
    recovery = ex.engine.recovery
    if recovery is not None:
        # A send may have completed with an error CQE (no bytes moved):
        # back off and re-post until they land or the re-post limit trips.
        failed = [entry for entry, ev in ex.pending
                  if getattr(ev.value, "status", "ok") == "error"]
        if failed:
            backoff = recovery.segment_backoff(ex)
            ex.attempt += 1
            ex.pending, ex.failed, ex.k = [], failed, 0
            ex.park_on(backoff, _repost)
            return None
        ex.attempt = 1
    ex.todo, ex.k = sorted(ex.send_set), 0
    return _counter(ex)


def _repost(ex):
    if ex.k < len(ex.failed):
        return _post_send(ex, ex.failed[ex.k])
    ex.failed = None
    return _flush(ex)


def _counter(ex):
    if ex.k == len(ex.todo):
        ex.pending = []
        ex.send_set.clear()
        ex.todo, ex.k = sorted(ex.recv_set), 0
        return _await(ex)
    if ex.engine.recovery is not None:
        host, dst = ex.plan.host_rank, ex.todo[ex.k]
        ex.engine.recovery.counter_written((host, dst, ex.seqs[(host, dst)]), ex.epoch)
    ex.step = _counter_posted
    return ex.engine.post_cost


def _counter_posted(ex):
    host, dst = ex.plan.host_rank, ex.todo[ex.k]
    ex.k += 1
    entry = ex.send_set[dst]
    to = entry.wqe_ctr
    if to is None:
        to = entry.wqe_ctr = ex.engine.counter_route(dst)
    ex.engine.counter_write(to, (host, dst, ex.seqs[(host, dst)]), ex.epoch)
    return _counter(ex)


def _await(ex):
    """Park until every expected peer's counter reaches the epoch."""
    engine = ex.engine
    if ex.k == len(ex.todo):
        ex.recv_set.clear()
        if ex.i < len(ex.plan.entries):
            ex.i += 1
            return _walk(ex)
        return _complete(ex)
    host, src = ex.plan.host_rank, ex.todo[ex.k]
    key = (src, host, ex.seqs[(src, host)])
    ev = engine.counters.wait(key, ex.epoch)
    if engine.recovery is not None:
        # Chase a possibly-dropped counter write.
        engine.recovery.arm_counter_probe(key, ev, writer_rank=src, my_rank=host)
    ex.park_on(ev, _awaited)
    return None


def _awaited(ex):
    ex.k += 1
    ex.step = _await
    return ex.engine.params.dpu_handler_cost * 0.25


def _complete(ex):
    engine = ex.engine
    host = ex.plan.host_rank
    # Clear this call's counters (the paper clears barrier counters).
    for (src, dst), seq in ex.seqs.items():
        if dst == host:
            engine.counters.clear((src, dst, seq))
    # Completion-counter RDMA write into host memory: Group_Wait observes
    # it with zero host-side protocol work.  Recovery records the "done"
    # fact durably first (a replayed invocation then only resends it).
    if engine.recovery is not None:
        engine.recovery.mark_done(ex.req_id, ex.call_no)
    ex.step = _completed
    return engine.post_cost


def _completed(ex):
    ex.engine.completion_write(ex.plan.host_rank, ex.req_id, ex.call_no)
    return None
