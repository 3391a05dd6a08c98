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

Waits are expressed as ``(PARK, event)`` yields: the proxy's progress
engine suspends this executor and serves other hosts -- Algorithm 1's
"break from the function to the progress engine", which is what avoids
deadlock when one proxy carries both sides of a dependence.

After the last entry an implicit final epoch (``numBarriers + 1``)
flushes trailing sends' counters and waits for trailing receives; then
one RDMA write sets the completion counter in host memory
(``Group_Wait`` returns without any host-CPU protocol work).

Like the paper's algorithm, barrier matching assumes the communicating
ranks record the same number of barriers (true for every pattern in the
evaluation: rings, alltoalls, stencils).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.offload.proxy import PARK
from repro.offload.requests import OffloadError
from repro.verbs.mr import ProtectionError
from repro.verbs.rdma import rdma_write

if TYPE_CHECKING:  # pragma: no cover
    from repro.offload.group_cache import DpuPlan
    from repro.offload.proxy import ProxyEngine

__all__ = ["GroupExecutor", "StalePlanError"]


class StalePlanError(Exception):
    """A plan entry faulted on a revoked key: the plan must be rebuilt."""

    def __init__(self, plan_id: int, cause: ProtectionError):
        self.plan_id = plan_id
        self.cause = cause
        super().__init__(f"plan {plan_id} references a revoked key: {cause}")


class GroupExecutor:
    """One in-flight Group_Offload_packet on one proxy."""

    def __init__(self, engine: "ProxyEngine", plan: "DpuPlan", req_id: int, seqs: dict,
                 cached: bool, call_no: int = 1):
        self.engine = engine
        self.plan = plan
        self.req_id = req_id
        #: per host-pair sequence numbers assigned at launch.
        self.seqs = seqs
        self.cached = cached
        #: Which Group_Offload_call of the (re-usable) request this is --
        #: disambiguates a replay of call N from a fresh call N+1.
        self.call_no = call_no
        self.gen = self._run()

    # ------------------------------------------------------------------
    def _run(self):
        try:
            yield from self._run_inner()
        except StalePlanError as exc:
            recovery = self.engine.recovery
            if recovery is None:
                raise OffloadError(
                    f"group plan {self.plan.plan_id} of host "
                    f"{self.plan.host_rank} references a revoked "
                    f"registration: {exc.cause}"
                ) from exc.cause
            yield from recovery.abort_stale(self)

    def _run_inner(self):
        engine = self.engine
        ctx = engine.ctx
        params = engine.params
        host_rank = self.plan.host_rank
        send_set: set[int] = set()
        recv_set: set[int] = set()
        pending: list = []  # completion events of sends since last barrier
        num_barriers = 0

        for entry in self.plan.entries:
            kind = entry.kind
            if kind == "send":
                done = yield from self._post_send(entry)
                pending.append((entry, done))
                send_set.add(entry.peer)
            elif kind == "recv":
                recv_set.add(entry.peer)
            elif kind == "reduce":
                yield from self._exec_reduce(entry)
            elif kind == "barrier":
                num_barriers += 1
                yield ctx.consume(params.dpu_handler_cost * 0.5)
                yield from self._flush_segment(pending, send_set, host_rank, num_barriers)
                pending = []
                send_set.clear()
                yield from self._await_recvs(recv_set, host_rank, num_barriers)
                recv_set.clear()
            else:  # pragma: no cover - defensive
                raise OffloadError(f"unknown Group_op kind {kind!r}")

        # Implicit final epoch: flush trailing sends, await trailing recvs.
        final_epoch = num_barriers + 1
        yield from self._flush_segment(pending, send_set, host_rank, final_epoch)
        yield from self._await_recvs(recv_set, host_rank, final_epoch)

        # Clear this call's counters (the paper clears barrier counters).
        for (src, dst), seq in self.seqs.items():
            if dst == host_rank:
                engine.counters.clear((src, dst, seq))

        # Completion-counter RDMA write into host memory: Group_Wait
        # observes it with zero host-side protocol work.  Recovery records
        # the "done" fact durably first (a replayed invocation then only
        # resends this write).
        if engine.recovery is not None:
            engine.recovery.mark_done(self.req_id, self.call_no)
        yield from engine._send_group_completion(host_rank, self.req_id, self.call_no)

    # ------------------------------------------------------------------
    def _post_send(self, entry):
        """Post one send entry; returns its completion event (a generator)."""
        engine = self.engine
        try:
            if engine.mode == "staged":
                return (yield from engine.staged_send_start(
                    src_rkey=entry.src_rkey, src_addr=entry.addr, size=entry.size,
                    dst_rkey=entry.rkey, dst_addr=entry.dst_addr,
                ))
            mkey2_key = entry.mkey2
            if mkey2_key is None:
                info = yield from engine.gvmi_cache.get(
                    entry.reg_addr, entry.reg_size,
                    self.plan.host_rank, entry.gvmi_id, entry.mkey,
                )
                mkey2_key = info.key
                # Attach for future cached invocations (Section VII-D: "the
                # group entry queue also contains the GVMI registration
                # cache entry").
                entry.mkey2 = mkey2_key
            transfer = yield from rdma_write(
                self.engine.ctx,
                lkey=mkey2_key,
                src_addr=entry.addr,
                rkey=entry.rkey,
                dst_addr=entry.dst_addr,
                size=entry.size,
            )
        except ProtectionError as exc:
            # A key the plan names -- or the mkey2 attached to the entry --
            # died since the plan was built: invalidate the attachment
            # (if any) before aborting.
            entry.mkey2 = None
            raise StalePlanError(self.plan.plan_id, exc) from exc
        return transfer.completed

    def _exec_reduce(self, entry):
        """One DPU-side accumulate: ``dst += src`` over float64 words
        (the entry is the recorded op: ``addr`` is src, ``addr2`` dst).

        Cost model: the ARM core streams both operands in and the
        result out through the DPU's memory path (3 x size bytes) and
        runs the adds at roughly a third of a host core's flop rate
        (the BlueField-2 A72 ratio the module defaults encode).
        """
        engine = self.engine
        params = engine.params
        size = entry.size
        count = size // 8
        cost = (3 * size / params.dpu_memory_bandwidth
                + 3 * count / params.host_flops_per_core)
        yield engine.ctx.consume(cost)
        cluster = engine.ctx.cluster
        cluster.metrics.add("proxy.reduces")
        cluster.metrics.add("proxy.reduced_bytes", size)
        if cluster.payloads and count:
            import numpy as np

            space = cluster.rank_ctx(self.plan.host_rank).space
            acc = space.read_as(entry.addr2, np.float64, count)
            inc = space.read_as(entry.addr, np.float64, count)
            space.write(entry.addr2, acc + inc)

    def _flush_segment(self, pending, send_set, host_rank, epoch):
        """Wait for the segment's sends, then write counters to their peers."""
        engine = self.engine
        incomplete = [ev for _entry, ev in pending if not ev.processed]
        if incomplete:
            yield (PARK, engine.sim.all_of(incomplete))
        if engine.recovery is not None:
            # A send may have completed with an error CQE (no bytes moved).
            yield from engine.recovery.repost_failed_sends(self, pending)
        for dst in sorted(send_set):
            seq = self.seqs[(host_rank, dst)]
            yield from engine.write_counter_to(dst, (host_rank, dst, seq), epoch)

    def _await_recvs(self, recv_set, host_rank, epoch):
        """Park until every expected peer's counter reaches ``epoch``."""
        engine = self.engine
        for src in sorted(recv_set):
            seq = self.seqs[(src, host_rank)]
            key = (src, host_rank, seq)
            ev = engine.counters.wait(key, epoch)
            if not ev.processed:
                if engine.recovery is not None:
                    # Chase a possibly-dropped counter write.
                    engine.recovery.arm_counter_probe(
                        key, ev, writer_rank=src, my_rank=host_rank)
                yield (PARK, ev)
            yield engine.ctx.consume(engine.params.dpu_handler_cost * 0.25)
