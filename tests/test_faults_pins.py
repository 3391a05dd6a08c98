"""Pins for the recovery layer, recorded on the tree *before* it moved.

ISSUE 17 lifts retransmit / dedup / re-post / kill-restart / probe /
fallback out of ``offload/api.py`` + ``proxy.py`` + ``group_exec.py``
into ``offload/recovery.py``.  A statement trace of the whole suite
showed that several of those mechanisms had never been executed by any
test, so a move could have broken them unnoticed.  This file was
written and green on the parent tree first:

* one deterministic driver per mechanism the suite never reached,
  asserting completion, payload bytes, quiescence and the mechanism's
  own counter;
* value pins (``tests/golden/chaos_pins.json``) for armed scenarios
  that *were* covered: finish times, ``plan.stats``, the audit trace's
  length and sha256, the kernel's processed-event count, and the
  ``offload.*`` / ``proxy.*`` / ``ctrl.*`` counters.  Only values that
  do not depend on the process-global id counters (``requests._ids``,
  ``_plan_ids``) are pinned, so test order cannot move them.

Regenerate the pin file after an *intentional* protocol change with
``pytest tests/test_faults_pins.py --regen-golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from tests.helpers import pattern, proxy_engine_of, run_procs
from tests.test_faults_recovery import (
    _chaos_cluster,
    _group_exchange,
    _pingpong,
)
from tests.test_free_reuse import RETRY, _free_race_exchange
from tests.test_free_reuse import _cluster as _reuse_cluster
from repro.hw import (
    OFFLOAD_CONTROL_KINDS,
    Cluster,
    ClusterSpec,
    FaultPlan,
    FaultSpec,
    MachineParams,
    ProxyKillPlan,
    RetryPolicy,
)
from repro.offload import OffloadError, OffloadFramework
from repro.util import atomic_write
from repro.verbs.rdma import verbs_state

PIN_FILE = Path(__file__).resolve().parent / "golden" / "chaos_pins.json"


def _proxy_gid():
    """Global id of rank 0's proxy on the 2-node test cluster."""
    probe = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
    return probe.proxy_for_rank(0).global_id


def _two_group_patterns(cl, fw, order, size=4096):
    """Ranks 0 and 1 record two pairwise exchanges and call them in
    ``order``; every call's payload is checked."""
    data = {(r, p): pattern(size, seed=10 * r + p)
            for r in (0, 1) for p in (0, 1)}

    def make(rank, peer):
        def prog(sim):
            ep = fw.endpoint(rank)
            greqs, rbufs = [], []
            for p in (0, 1):
                sbuf = ep.ctx.space.alloc_like(data[(rank, p)])
                rbuf = ep.ctx.space.alloc(size)
                g = ep.group_start()
                ep.group_send(g, sbuf, size, dst=peer, tag=5 + p)
                ep.group_recv(g, rbuf, size, src=peer, tag=5 + p)
                ep.group_end(g)
                greqs.append(g)
                rbufs.append(rbuf)
            for p in order:
                ep.ctx.space.write(rbufs[p], 0 * data[(peer, p)])
                yield from ep.group_call(greqs[p])
                yield from ep.group_wait(greqs[p])
                got = ep.ctx.space.read(rbufs[p], size)
                assert (got == data[(peer, p)]).all()
            return sim.now
        return prog

    return run_procs(cl, [make(0, 1)(cl.sim), make(1, 0)(cl.sim)])


def _stream(cl, fw, n, size):
    """Rank 0 posts ``n`` sends, rank 1 the matching receives; both
    waitall.  Returns the two finish times."""
    datas = [pattern(size, seed=40 + i) for i in range(n)]

    def sender(sim):
        ep = fw.endpoint(0)
        reqs = []
        for i, d in enumerate(datas):
            sa = ep.ctx.space.alloc_like(d)
            reqs.append((yield from ep.send_offload(sa, size, dst=1, tag=i)))
        yield from ep.waitall(reqs)
        return sim.now

    def receiver(sim):
        ep = fw.endpoint(1)
        reqs, addrs = [], []
        for i in range(n):
            ra = ep.ctx.space.alloc(size)
            addrs.append(ra)
            reqs.append((yield from ep.recv_offload(ra, size, src=0, tag=i)))
        yield from ep.waitall(reqs)
        for a, d in zip(addrs, datas):
            assert (ep.ctx.space.read(a, size) == d).all()
        return sim.now

    return run_procs(cl, [sender(cl.sim), receiver(cl.sim)])


def _alltoall_barrier(cl, fw, iters=3, size=2048):
    """Every rank records sends/recvs to all peers plus a barrier and
    calls the request ``iters`` times; returns the finish times."""
    n = cl.world_size
    data = {(r, p): pattern(size, seed=16 * r + p)
            for r in range(n) for p in range(n)}

    def prog(rank):
        ep = fw.endpoint(rank)
        peers = [p for p in range(n) if p != rank]
        sb = {p: ep.ctx.space.alloc_like(data[(rank, p)]) for p in peers}
        rb = {p: ep.ctx.space.alloc(size) for p in peers}
        g = ep.group_start()
        for p in peers:
            ep.group_send(g, sb[p], size, dst=p, tag=3)
            ep.group_recv(g, rb[p], size, src=p, tag=3)
        ep.group_barrier(g)
        ep.group_end(g)
        for _ in range(iters):
            yield from ep.group_call(g)
            yield from ep.group_wait(g)
        for p in peers:
            assert (ep.ctx.space.read(rb[p], size) == data[(p, rank)]).all()
        return cl.sim.now

    return run_procs(cl, [prog(r) for r in range(n)])


# ---------------------------------------------------------------------------
# (i) one driver per mechanism no earlier test executed
# ---------------------------------------------------------------------------

class TestBoundedDpuPlanCache:
    def test_evicted_plan_is_nacked_and_reshipped(self):
        """``plan_cache_capacity=1`` and two patterns called A B A B:
        every id-only call after the first round finds its plan evicted,
        gets the non-stale ``plan_nack`` and re-ships the full plan."""
        params = MachineParams().with_overrides(plan_cache_capacity=1)
        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1,
                                 params=params))
        fw = OffloadFramework(cl, retry=RetryPolicy())
        finish = _two_group_patterns(cl, fw, order=(0, 1, 0, 1))
        fw.assert_quiescent()
        m = cl.metrics
        assert m.get("proxy.plan_evictions") == 6
        assert m.get("proxy.plan_nacks") == 4
        assert m.get("offload.plan_nacks") == 4
        assert m.get("offload.retransmits") == 4
        # 4 first builds + 4 re-ships arrive as full plans.
        assert m.get("proxy.group_plans_full") == 8
        assert m.get("proxy.group_completions") == 8
        assert finish == pytest.approx([161.09043e-6] * 2, rel=1e-7)


class TestCounterProbing:
    @pytest.mark.parametrize("batch, drops, probes, rewrites, doorbells", [
        (False, 27, 32, 27, 0),
    ])
    def test_lost_counter_writes_are_probed_and_rewritten(
            self, batch, drops, probes, rewrites, doorbells):
        """40 % of the barrier-counter writes vanish; executors parked on
        a counter probe the writer, which re-writes its durable epoch."""
        params = MachineParams().with_overrides(counter_doorbell_batch=batch)
        cl = Cluster(ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=1,
                                 params=params))
        plan = FaultPlan(FaultSpec(drop_prob=0.4,
                                   control_kinds=frozenset({"counter"})),
                         seed=1)
        cl.install_faults(plan)
        fw = OffloadFramework(cl)
        _alltoall_barrier(cl, fw)
        fw.assert_quiescent()
        m = cl.metrics
        assert plan.stats["drops"] == drops
        assert m.get("proxy.counter_probes") == probes
        assert m.get("proxy.counter_rewrites") == rewrites
        assert m.get("proxy.counter_doorbells") == doorbells


class TestKillMidStagedTransfer:
    def test_dead_incarnations_bounce_buffer_returns_to_the_pool(self):
        """The proxy dies with a 1 MiB bounce in flight; the leg's
        completion reaches the *next* incarnation, which must hand the
        buffer back instead of leaking it."""
        cl, plan = _chaos_cluster(kills=[ProxyKillPlan(
            proxy_gid=_proxy_gid(), at=140e-6, restart_after=30e-6)], seed=3)
        fw = OffloadFramework(cl, mode="staged")
        _stream(cl, fw, n=1, size=1 << 20)
        cl.sim.run()  # the dead incarnation's stragglers land
        fw.assert_quiescent()
        staging = proxy_engine_of(fw, 0).staging
        assert cl.metrics.get("staging.transfers") == 2  # one per life
        assert staging.outstanding == 0
        assert staging.pooled == staging.created == 2
        assert plan.stats["kills"] == 1 and plan.stats["restarts"] == 1
        assert cl.metrics.get("offload.retransmits") > 0

    def test_kill_inside_the_bounce_buffer_registration(self):
        """The proxy dies while registering a fresh 1 MiB bounce buffer
        (inside ``StagingChannel.acquire``, between the allocation and
        the hand-over): the allocation is undone, so nothing stays
        outstanding and DPU DRAM holds only the next life's buffer."""
        cl, plan = _chaos_cluster(kills=[ProxyKillPlan(
            proxy_gid=_proxy_gid(), at=80e-6, restart_after=30e-6)], seed=3)
        fw = OffloadFramework(cl, mode="staged")
        engine = proxy_engine_of(fw, 0)
        dram = engine.ctx.space.allocated_bytes
        _stream(cl, fw, n=1, size=1 << 20)
        cl.sim.run()
        fw.assert_quiescent()
        staging = engine.staging
        # Two buffers were allocated, one registration finished.
        assert staging.created == 2
        assert cl.metrics.get("verbs.reg_mr.dpu") == 1
        assert staging.outstanding == 0
        assert staging.pooled == 1
        assert engine.ctx.space.allocated_bytes - dram == 1 << 20
        assert plan.stats["kills"] == 1 and plan.stats["restarts"] == 1

    def test_kill_inside_an_error_cqe_backoff(self):
        """The read leg took an error CQE and the proxy dies during the
        backoff: the re-post item reaches the next incarnation, which
        must release the buffer rather than re-post a dead life's leg."""
        cl, plan = _chaos_cluster(
            FaultSpec(error_cqe_prob=0.7, error_initiators=("dpu",)),
            kills=[ProxyKillPlan(proxy_gid=_proxy_gid(), at=88.7e-6,
                                 restart_after=10e-6)], seed=1)
        fw = OffloadFramework(cl, mode="staged")
        _stream(cl, fw, n=1, size=256 * 1024)
        cl.sim.run()
        fw.assert_quiescent()
        staging = proxy_engine_of(fw, 0).staging
        assert cl.metrics.get("staging.transfers") == 2
        # Handed back, then re-used by the next life: nothing leaked.
        assert staging.outstanding == 0
        assert staging.pooled == staging.created == 1
        assert plan.stats["error_cqes"] == 6
        assert cl.metrics.get("proxy.rdma_retries") == 5

    def test_overlapping_kill_plans_are_idempotent(self):
        """A second kill of a dead proxy and a second restart of a live
        one are no-ops: one death, one rebirth, incarnation 1."""
        gid = _proxy_gid()
        cl, plan = _chaos_cluster(kills=[
            ProxyKillPlan(proxy_gid=gid, at=10e-6, restart_after=10e-6),
            ProxyKillPlan(proxy_gid=gid, at=12e-6, restart_after=20e-6)])
        fw = OffloadFramework(cl)
        _stream(cl, fw, n=2, size=4096)
        fw.assert_quiescent()
        assert plan.stats["kills"] == 2 and plan.stats["restarts"] == 2
        assert cl.metrics.get("proxy.kills") == 1
        assert cl.metrics.get("proxy.restarts") == 1
        engine = proxy_engine_of(fw, 0)
        assert engine.alive and engine.incarnation == 1


class TestFallbackUnderFaults:
    def test_pull_reposts_error_cqes_and_duplicate_offers_refin(self):
        """Proxy dead for good, so every pair ends on the host path --
        whose own RDMA READ takes error CQEs and whose ``fb_rts`` offers
        arrive twice (a duplicate of a served offer re-sends the FIN)."""
        cl, plan = _chaos_cluster(
            FaultSpec(error_cqe_prob=0.5, error_initiators=("host",),
                      dup_prob=0.5, control_kinds=frozenset({"fb_rts"})),
            kills=[ProxyKillPlan(proxy_gid=_proxy_gid(), at=2e-6)], seed=1)
        fw = OffloadFramework(cl)
        _stream(cl, fw, n=3, size=8192)
        fw.assert_quiescent()
        m = cl.metrics
        assert plan.stats["error_cqes"] == 6  # pulls that had to re-post
        assert plan.stats["dups"] == 4
        assert m.get("offload.fb_pulls") == 3
        assert m.get("offload.fb_fins") == 8  # 3 pulls + 5 re-FINs
        assert m.get("rdma.read.host") == 3 + 6
        assert len(fw.fallback_log) == 6


    def test_fallback_pull_rides_the_fluid_engine(self):
        """On a fat-tree the host's own bulk pull is a flow, and its
        CQE comes from the flow drain."""
        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1,
                                 nodes_per_switch=2, fluid_threshold=4096))
        cl.install_faults(FaultPlan(
            kills=[ProxyKillPlan(proxy_gid=_proxy_gid(), at=2e-6)], seed=1))
        fw = OffloadFramework(cl)
        _stream(cl, fw, n=1, size=256 * 1024)
        fw.assert_quiescent()
        assert cl.metrics.get("offload.fb_pulls") == 1
        assert cl.metrics.get("offload.flow_cqes") == 1

    def test_an_offer_waits_for_its_receive(self):
        """Two sends fall back at once; the receiver is waiting on the
        second one only, so the first offer is kept until its receive
        is posted."""
        cl, plan = _chaos_cluster(
            kills=[ProxyKillPlan(proxy_gid=_proxy_gid(), at=2e-6)])
        fw = OffloadFramework(cl)
        size = 2048
        data = [pattern(size, seed=80 + i) for i in range(2)]

        def sender(sim):
            ep = fw.endpoint(0)
            reqs = []
            for i in range(2):
                sa = ep.ctx.space.alloc_like(data[i])
                reqs.append((yield from ep.send_offload(sa, size, dst=1, tag=i)))
            other = sim.process(ep.wait(reqs[1]))  # both waits run at once
            yield from ep.wait(reqs[0])
            yield other

        def receiver(sim):
            ep = fw.endpoint(1)
            for i in (1, 0):
                ra = ep.ctx.space.alloc(size)
                req = yield from ep.recv_offload(ra, size, src=0, tag=i)
                yield from ep.wait(req)
                assert (ep.ctx.space.read(ra, size) == data[i]).all()

        run_procs(cl, [sender(cl.sim), receiver(cl.sim)])
        fw.assert_quiescent()
        assert cl.metrics.get("offload.fb_pulls") == 2
        assert sorted(e[1:3] for e in fw.fallback_log) == [
            (0, "send"), (0, "send"), (1, "recv")]

    def test_an_oom_nack_that_arrives_after_the_fallback_is_ignored(self):
        """The proxy's ``oom_nack`` is delayed past the sender's own
        liveness deadline: the request is long complete when it lands."""
        params = MachineParams().with_overrides(dpu_mem_budget=16 * 1024)
        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1,
                                 params=params))
        plan = FaultPlan(FaultSpec(delay_prob=1.0, delay_max=8e-3,
                                   control_kinds=frozenset({"oom_nack"})),
                         seed=2)
        cl.install_faults(plan)
        fw = OffloadFramework(cl, mode="staged",
                              retry=RetryPolicy(fallback_after=200e-6))
        finish = _stream(cl, fw, n=1, size=64 * 1024)
        cl.sim.run()  # ... and only now does the NACK arrive
        fw.assert_quiescent()
        assert cl.sim.now > max(finish) + 500e-6
        m = cl.metrics
        assert m.get("proxy.oom_nacks") == 1 and plan.stats["delays"] >= 1
        assert m.get("offload.oom_fallbacks") == 0  # the deadline won
        assert m.get("offload.fallbacks") == 2 and m.get("offload.fb_pulls") == 1


class TestStaleDestinationBetweenStagedLegs:
    def test_write_leg_faults_and_the_pair_recovers(self):
        """The receiver frees (and recycles) its buffer after the read
        leg was posted: the *write* leg faults on the dead rkey, hands
        the bounce buffer back, and the pair recovers by stale NACK."""
        cl = _reuse_cluster()
        fw = OffloadFramework(cl, mode="staged", retry=RETRY)
        size = 256 * 1024
        data = pattern(size, seed=33)

        def sender(sim):
            ep = fw.endpoint(0)
            addr = ep.ctx.space.alloc_like(data)
            req = yield from ep.send_offload(addr, size, dst=1, tag=4)
            yield from ep.wait(req)

        def receiver(sim):
            ep = fw.endpoint(1)
            addr = ep.ctx.space.alloc(size)
            req = yield from ep.recv_offload(addr, size, src=0, tag=4)
            yield sim.timeout(60e-6 - sim.now)  # read leg in flight
            ep.ctx.free(addr)
            assert ep.ctx.space.alloc(size) == addr
            yield from ep.wait(req)
            assert (ep.ctx.space.read(addr, size) == data).all()

        run_procs(cl, [sender(cl.sim), receiver(cl.sim)])
        fw.assert_quiescent()
        m = cl.metrics
        assert m.get("proxy.stale_keys") == 1 and m.get("proxy.stale_nacks") == 1
        assert m.get("offload.stale_reposts") == 1
        assert m.get("staging.transfers") == 2 and m.get("staging.reuse") == 1
        staging = proxy_engine_of(fw, 0).staging
        assert staging.outstanding == 0 and staging.pooled == staging.created == 1


class TestDuplicateDescriptorsAndStaleFins:
    def test_recalled_group_request_drops_both(self):
        """``gdesc`` and ``fin`` are duplicated and delayed while one
        group request is re-called: replayed descriptors are dropped by
        ``desc_id``, and a late FIN of call N must not complete N+1."""
        cl, plan = _chaos_cluster(FaultSpec(
            dup_prob=0.3, delay_prob=0.5, delay_max=300e-6,
            control_kinds=frozenset({"gdesc", "fin"})), seed=1)
        fw = OffloadFramework(cl)
        _group_exchange(cl, fw, size=4096, iters=6)
        cl.sim.run()
        fw.assert_quiescent()
        m = cl.metrics
        assert m.get("offload.dup_gdesc_dropped") == 7
        assert m.get("offload.stale_fins_dropped") == 4
        assert m.get("offload.dup_completions") == 6
        assert m.get("proxy.group_completions") > 12  # completions re-sent


class TestMkey2OnlyStale:
    def test_one_repost_cross_registers_afresh(self):
        """Only the proxy's cached mkey2 is dead (DPU memory pressure);
        both endpoint keys live, so no NACK: one re-post suffices."""
        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
        fw = OffloadFramework(cl, retry=RETRY)
        size = 4096
        data = [pattern(size, seed=70 + i) for i in range(2)]
        engine = proxy_engine_of(fw, 0)

        def sender(sim):
            ep = fw.endpoint(0)
            sa = ep.ctx.space.alloc_like(data[0])
            for i in range(2):
                ep.ctx.space.write(sa, data[i])
                req = yield from ep.send_offload(sa, size, dst=1, tag=i)
                yield from ep.wait(req)
                if i == 0:
                    info = engine.gvmi_cache.peek(sa, size, 0)
                    verbs_state(cl).keys.revoke(info.key)

        def receiver(sim):
            ep = fw.endpoint(1)
            for i in range(2):
                ra = ep.ctx.space.alloc(size)
                req = yield from ep.recv_offload(ra, size, src=0, tag=i)
                yield from ep.wait(req)
                assert (ep.ctx.space.read(ra, size) == data[i]).all()

        run_procs(cl, [sender(cl.sim), receiver(cl.sim)])
        fw.assert_quiescent()
        m = cl.metrics
        assert m.get("proxy.stale_keys") == 1
        assert m.get("proxy.stale_nacks") == 0
        assert m.get("offload.stale_reposts") == 0
        assert m.get("gvmi.cross_registrations") == 2


class TestGiveUpLimits:
    """Recovery is bounded: every loop ends in the documented error."""

    @pytest.mark.parametrize("mode, exchange, retries", [
        ("gvmi", "basic", 3),
        ("staged", "basic", 3),
        ("gvmi", "group", 8),
        ("staged", "group", 6),
    ])
    def test_rdma_retry_limit(self, mode, exchange, retries):
        cl, plan = _chaos_cluster(FaultSpec(
            error_cqe_prob=1.0, error_initiators=("dpu",)))
        fw = OffloadFramework(cl, mode=mode,
                              retry=RetryPolicy(rdma_retry_limit=4))
        with pytest.raises(OffloadError, match="re-post"):
            if exchange == "basic":
                _pingpong(cl, fw, iters=1, size=4096)
            else:
                _group_exchange(cl, fw, size=4096)
        assert cl.metrics.get("proxy.rdma_retries") == retries

    def test_rdma_retry_limit_on_the_fallback_pull(self):
        cl, plan = _chaos_cluster(
            FaultSpec(error_cqe_prob=1.0, error_initiators=("host",)),
            kills=[ProxyKillPlan(proxy_gid=_proxy_gid(), at=2e-6)])
        fw = OffloadFramework(cl, retry=RetryPolicy(rdma_retry_limit=4))
        with pytest.raises(OffloadError, match="fallback pull exceeded"):
            _stream(cl, fw, n=1, size=4096)
        assert plan.stats["error_cqes"] == 4
        assert cl.metrics.get("offload.fb_pulls") == 1

    def test_max_attempts_on_a_group_request(self):
        """A group request has no host fallback to escape to."""
        cl, plan = _chaos_cluster(FaultSpec(
            drop_prob=1.0,
            control_kinds=frozenset({"group_plan", "group_call"})))
        fw = OffloadFramework(cl, retry=RetryPolicy(max_attempts=3))
        with pytest.raises(OffloadError,
                           match="still incomplete after 3 retransmits"):
            _group_exchange(cl, fw, size=4096)
        assert cl.metrics.get("offload.retransmits") == 6
        assert plan.stats["drops"] == 8


# ---------------------------------------------------------------------------
# (ii) value pins for the armed paths the suite already covered
# ---------------------------------------------------------------------------

def _pin(cl, finish, plan=None, fw=None):
    counters = {k: v for k, v in sorted(dict(cl.metrics).items())
                if k.startswith(("offload.", "proxy.", "ctrl."))}
    out = {"finish": list(finish), "end": cl.sim.now,
           "kernel_events": cl.sim.processed_events, "counters": counters}
    if plan is not None:
        trace = plan.trace()
        out["stats"] = dict(plan.stats)
        out["trace_len"] = len(trace)
        out["trace_sha256"] = hashlib.sha256(
            repr(trace).encode()).hexdigest()
    if fw is not None:
        # (time, rank, kind) -- the req_id column is a global counter.
        out["fallback_log"] = [list(e[:3]) for e in fw.fallback_log]
    return out


def _chaos_pingpong(mode):
    cl, plan = _chaos_cluster(FaultSpec(
        drop_prob=0.05, dup_prob=0.05, delay_prob=0.1,
        error_cqe_prob=0.2, error_initiators=("dpu",),
        control_kinds=OFFLOAD_CONTROL_KINDS), seed=23)
    fw = OffloadFramework(cl, mode=mode)
    finish = _pingpong(cl, fw, iters=6, size=8192)
    return _pin(cl, finish, plan, fw)


def _chaos_group_kill():
    cl, plan = _chaos_cluster(
        FaultSpec(drop_prob=0.05, control_kinds=OFFLOAD_CONTROL_KINDS),
        kills=[ProxyKillPlan(proxy_gid=0, at=50e-6, restart_after=60e-6)],
        seed=31)
    fw = OffloadFramework(cl)
    finish = _group_exchange(cl, fw, size=128 * 1024)
    return _pin(cl, finish, plan, fw)


def _chaos_group_replay():
    """Kill + restart under control drops: launch replay, plan NACKs."""
    cl, plan = _chaos_cluster(
        FaultSpec(drop_prob=0.1, control_kinds=OFFLOAD_CONTROL_KINDS),
        kills=[ProxyKillPlan(proxy_gid=_proxy_gid(), at=50e-6,
                             restart_after=60e-6)], seed=7)
    fw = OffloadFramework(cl)
    finish = _group_exchange(cl, fw, size=256 * 1024, iters=3)
    return _pin(cl, finish, plan, fw)


def _chaos_alltoall_barrier():
    """2x2 ranks, every offload message kind shaken, barrier counters."""
    cl, plan = _chaos_cluster(FaultSpec(
        drop_prob=0.1, dup_prob=0.05, delay_prob=0.1,
        error_cqe_prob=0.1, error_initiators=("dpu",),
        control_kinds=OFFLOAD_CONTROL_KINDS), seed=5, ppn=2)
    fw = OffloadFramework(cl)
    finish = _alltoall_barrier(cl, fw)
    return _pin(cl, finish, plan, fw)


def _admission_window():
    """The resilient admission stall: drain, serve offers, nudge."""
    params = MachineParams().with_overrides(max_outstanding_offloads=2)
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1, params=params))
    plan = FaultPlan(FaultSpec(drop_prob=0.2), seed=5)
    cl.install_faults(plan)
    fw = OffloadFramework(cl, retry=RetryPolicy(timeout=30e-6))
    finish = _stream(cl, fw, n=6, size=1024)
    return _pin(cl, finish, plan, fw)


def _superseded_plan_nack():
    """Lost ``group_plan`` packets and late ``plan_nack``s on one re-called
    request: at this seed two NACKs outlive the call they answer and must
    not dirty the plan of the call that superseded it."""
    cl, plan = _chaos_cluster(FaultSpec(
        drop_prob=0.4, delay_prob=0.6, delay_max=400e-6,
        control_kinds=frozenset({"group_plan", "plan_nack"})), seed=9)
    fw = OffloadFramework(cl)
    finish = _group_exchange(cl, fw, size=4096, iters=6)
    cl.sim.run()
    return _pin(cl, finish, plan, fw)


def _stale_key_repost():
    cl = _reuse_cluster()
    fw = OffloadFramework(cl, retry=RETRY)
    want, got = _free_race_exchange(cl, fw)
    assert (got == want).all()
    return _pin(cl, [], fw=fw)


def _stale_plan_rebuild():
    """A cached plan faults on a freed send buffer mid-call: stale
    ``plan_nack``, then forget + rebuild + re-ship from the host."""
    cl = _reuse_cluster()
    fw = OffloadFramework(cl, retry=RETRY)
    size = 4096

    def make(rank, peer):
        def prog(sim):
            ep = fw.endpoint(rank)
            sbuf = ep.ctx.space.alloc_like(pattern(size, seed=50 + rank))
            rbuf = ep.ctx.space.alloc(size)
            g = ep.group_start()
            ep.group_send(g, sbuf, size, dst=peer, tag=7)
            ep.group_recv(g, rbuf, size, src=peer, tag=7)
            ep.group_end(g)
            yield from ep.group_call(g)
            yield from ep.group_wait(g)
            yield from ep.group_call(g)
            if rank == 0:
                ep.ctx.free(sbuf)
                assert ep.ctx.space.alloc_like(pattern(size, seed=60)) == sbuf
            yield from ep.group_wait(g)
            want = pattern(size, seed=60 if peer == 0 else 50 + peer)
            assert (ep.ctx.space.read(rbuf, size) == want).all()
            return sim.now
        return prog

    finish = run_procs(cl, [make(0, 1)(cl.sim), make(1, 0)(cl.sim)])
    return _pin(cl, finish, fw=fw)


def _oom_fallback():
    params = MachineParams().with_overrides(dpu_mem_budget=16 * 1024)
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1,
                             params=params))
    fw = OffloadFramework(cl, mode="staged",
                          retry=RetryPolicy(timeout=500e-6,
                                            fallback_after=2e-3))
    finish = _stream(cl, fw, n=1, size=64 * 1024)
    return _pin(cl, finish, fw=fw)


SCENARIOS = {
    "chaos_pingpong_gvmi": lambda: _chaos_pingpong("gvmi"),
    "chaos_pingpong_staged": lambda: _chaos_pingpong("staged"),
    "chaos_group_kill": _chaos_group_kill,
    "chaos_group_replay": _chaos_group_replay,
    "chaos_alltoall_barrier": _chaos_alltoall_barrier,
    "admission_window": _admission_window,
    "stale_key_repost": _stale_key_repost,
    "superseded_plan_nack": _superseded_plan_nack,
    "stale_plan_rebuild": _stale_plan_rebuild,
    "oom_fallback": _oom_fallback,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_armed_scenario_matches_its_pin(name, regen_golden):
    got = json.loads(json.dumps(SCENARIOS[name]()))
    pins = json.loads(PIN_FILE.read_text()) if PIN_FILE.exists() else {}
    if regen_golden:
        pins[name] = got
        atomic_write(PIN_FILE, json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return
    assert name in pins, f"no pin for {name}; run with --regen-golden"
    want = pins[name]
    assert got["counters"] == want["counters"]
    assert got == want
