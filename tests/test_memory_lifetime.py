"""A finished simulation is freed by reference counting.

``experiments.parallel._call_point`` and the repo benchmark pause the
cyclic collector for a whole sweep point, so this file is what keeps
their premise true (docs/PERFORMANCE.md, "Memory lifetime"):

(a) a running job makes no cyclic garbage: with the job's objects still
    held, nothing a message, request or iteration allocates is left for
    the collector;
(b) ... and the count does not depend on how many iterations ran;
(c) a job dropped after its end of life leaves at most ``RATCHET``
    objects behind;
(d) so a sweep's object count is flat from point to point;
(e) the end of life processes no event and keeps the ledger's counters
    readable.
"""

from __future__ import annotations

import gc

import pytest

from repro.apps.hpl import hpl_run
from repro.apps.omb import ialltoall_overlap
from repro.baselines.base import make_stack
from repro.hw import (
    OFFLOAD_CONTROL_KINDS,
    Cluster,
    ClusterSpec,
    FaultPlan,
    FaultSpec,
    ProxyKillPlan,
)
from repro.mpi import collectives
from repro.offload import OffloadFramework
from repro.offload.requests import OffloadError
from repro.sim import Simulator
from tests.harness.gc_census import (
    census,
    collector_paused,
    live_objects,
    unclosed_stacks,
)
from tests.harness.step_kernel import next_time

FLAVORS = ("intelmpi", "bluesmpi", "proposed")

#: Objects a closed and dropped job may leave unreachable.  May only shrink.
RATCHET = 0

#: Allocated per message, per request or per iteration: none of these may
#: ever wait for the collector.
PER_MESSAGE = ("Request", "OffloadRequest", "OffloadGroupRequest", "GroupOp",
               "ReduceOp", "Timeout", "_Message", "Delivery", "Transfer", "MpiRequest",
               "Mkey", "Mkey2", "MemoryRegionHandle", "HostPlan")


def alltoall(flavor: str, iters: int):
    spec = ClusterSpec(nodes=2, ppn=4, proxies_per_dpu=2, fluid=False)
    ialltoall_overlap(flavor, spec, 16384, iters=iters, warmup=1, test_chunk=None)


def hpl(flavor: str, iters: int):
    spec = ClusterSpec(nodes=1, ppn=4, proxies_per_dpu=2, fluid=False)
    hpl_run(flavor, spec, n=512, nb=64, max_steps=iters)


def scatter(variant: str, iters: int, close: bool = True):
    """A bare ``OffloadFramework`` scatter (the shape of the benchmark's
    ``scatter_observed`` point); returns what it built unless it closed it."""
    spec = ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=1, fluid=False)
    cluster = Cluster(spec)
    cluster.payloads = False
    fw = OffloadFramework(cluster, mode="gvmi", group_caching=True)
    P, block = spec.world_size, 8192

    def prog(rank):
        ep = fw.endpoint(rank)
        sbuf = ep.ctx.space.alloc(P * block)
        rbuf = ep.ctx.space.alloc(P * block)
        peers = [((rank + d) % P, (rank - d) % P) for d in range(1, P)]
        if variant == "group":
            greq = ep.group_start()
            for dst, src in peers:
                ep.group_send(greq, sbuf + dst * block, block, dst=dst, tag=6)
                ep.group_recv(greq, rbuf + src * block, block, src=src, tag=6)
            ep.group_end(greq)
        for _ in range(iters):
            if variant == "group":
                yield from ep.group_call(greq)
                yield from ep.group_wait(greq)
                continue
            reqs = []
            for dst, src in peers:
                reqs.append((yield from ep.send_offload(
                    sbuf + dst * block, block, dst=dst, tag=6)))
                reqs.append((yield from ep.recv_offload(
                    rbuf + src * block, block, src=src, tag=6)))
            yield from ep.waitall(reqs)

    procs = [cluster.sim.process(prog(r)) for r in range(P)]
    cluster.sim.run(until=cluster.sim.all_of(procs))
    fw.assert_quiescent()
    if not close:
        return cluster, fw
    fw.close()
    cluster.close()
    return None


def faulted_ring(killed: bool):
    """Six rounds of a 2 x 2 offloaded ring under 5 % control drops, proxy 1
    killed and restarted mid-run if ``killed``; closed at the end."""
    spec = ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=1, fluid=False)
    cluster = Cluster(spec)
    kills = [ProxyKillPlan(proxy_gid=1, at=20e-6, restart_after=30e-6)] if killed else []
    plan = FaultPlan(FaultSpec(drop_prob=0.05, control_kinds=OFFLOAD_CONTROL_KINDS),
                     kills=kills, seed=31)
    cluster.install_faults(plan)
    fw = OffloadFramework(cluster)
    P = spec.world_size

    def prog(rank):
        ep = fw.endpoint(rank)
        sbuf = ep.ctx.space.alloc(4096, fill=rank)
        rbuf = ep.ctx.space.alloc(4096)
        for _ in range(6):
            reqs = [(yield from ep.send_offload(sbuf, 4096, dst=(rank + 1) % P, tag=3)),
                    (yield from ep.recv_offload(rbuf, 4096, src=(rank - 1) % P, tag=3))]
            yield from ep.waitall(reqs)

    procs = [cluster.sim.process(prog(r)) for r in range(P)]
    cluster.sim.run(until=cluster.sim.all_of(procs))
    fw.assert_quiescent()
    assert plan.stats["drops"] > 0 and plan.stats["kills"] == int(killed)
    fw.close()
    cluster.close()


def _one_alltoall(be):
    """Rank program for a 2 x 2 stack: one 4 KiB-block Ialltoall."""
    comm = be.stack.comm_world
    sbuf = be.ctx.space.alloc(4 * 4096)
    rbuf = be.ctx.space.alloc(4 * 4096)
    req = yield from be.ialltoall(comm, sbuf, rbuf, 4096)
    yield from be.wait(req)


def _held(job, *args):
    """``job`` with the end of life disabled, returning what it built."""
    def run():
        with unclosed_stacks() as stacks:
            job(*args)
        return stacks
    return run


JOBS = [(alltoall, f) for f in FLAVORS] + [(hpl, f) for f in FLAVORS]
IDS = [f"{job.__name__}-{flavor}" for job, flavor in JOBS]


@pytest.fixture(scope="module", autouse=True)
def _warm():
    # First calls import modules lazily and fill per-process caches; none
    # of that is the job's garbage.
    for job, flavor in JOBS:
        job(flavor, 1)
    for variant in ("simple", "group"):
        scatter(variant, 1)
    faulted_ring(True)


# -- (a) + (b): nothing per message is cyclic --------------------------------
@pytest.mark.parametrize("job,flavor", JOBS, ids=IDS)
def test_a_running_job_makes_no_cyclic_garbage(job, flavor):
    few = census(_held(job, flavor, 2))
    many = census(_held(job, flavor, 6))
    assert not {name: n for name, n in many.items() if name in PER_MESSAGE}
    assert sum(few.values()) == sum(many.values()) == 0, (few, many)


@pytest.mark.parametrize("variant", ["simple", "group"])
def test_a_bare_framework_makes_no_cyclic_garbage(variant):
    few = census(lambda: scatter(variant, 2, close=False))
    many = census(lambda: scatter(variant, 6, close=False))
    assert sum(few.values()) == sum(many.values()) == 0, (few, many)


def test_a_shmem_job_makes_no_cyclic_garbage():
    from repro.offload.shmem import ShmemWorld

    def job(iters):
        cluster = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
        world = ShmemWorld(cluster)

        def prog(pe):
            ep = world.endpoint(pe)
            heap = yield from ep.symmetric_alloc(8192)
            src = ep.ctx.space.alloc(4096)
            for _ in range(iters):
                yield from ep.put(heap, src, 4096, pe=1 - pe)
                yield from ep.get(src, heap + 4096, 4096, pe=1 - pe)
                yield from ep.quiet()

        procs = [cluster.sim.process(prog(pe)) for pe in range(2)]
        cluster.sim.run(until=cluster.sim.all_of(procs))
        return cluster, world

    job(1)
    few, many = census(lambda: job(2)), census(lambda: job(6))
    assert sum(few.values()) == sum(many.values()) == 0, (few, many)


def test_a_dropped_unclosed_job_holds_no_request_back():
    """Without the end of life the machine is one big cycle, but the only
    per-message objects on it are what was in flight at the last instant."""
    def job():
        with unclosed_stacks():
            alltoall("bluesmpi", 6)

    hist = census(job)
    assert sum(hist.values()) > 0  # the cluster graph itself: that is (c)'s job
    for name in ("Request", "OffloadRequest", "_Message", "Delivery"):
        assert hist[name] <= 8, (name, hist[name])
    assert hist["GroupOp"] == 0


def _host_traffic(be):
    """Rank program for a 2 x 2 host-MPI stack: eager and rendezvous
    p2p with the other node, then a scag Ibcast and an Ireduce."""
    comm = be.stack.comm_world
    peer = (be.rank + 2) % be.stack.world.size
    small, large = 1024, 4 * be.rt.params.eager_threshold
    reqs = []
    for tag, size in ((1, small), (2, large)):
        sbuf = be.ctx.space.alloc(size, fill=tag)
        rbuf = be.ctx.space.alloc(size)
        reqs.append((yield from be.isend(comm, peer, sbuf, size, tag=tag)))
        reqs.append((yield from be.irecv(comm, peer, rbuf, size, tag=tag)))
    yield from be.waitall(reqs)
    size = 2 * collectives.SCAG_THRESHOLD
    buf = be.ctx.space.alloc(size, fill=3)
    yield from be.wait((yield from be.ibcast(comm, 0, buf, size)))
    yield from be.wait((yield from collectives.ireduce(be.rt, comm, 0, buf, 8 * 64)))


def test_finished_host_traffic_leaves_no_cyclic_garbage():
    """Host MPI's per-message records hold no cycle: nothing links a
    request back to itself through its collective, so once the job is
    dropped reference counting has freed every one of them."""
    records = ("MpiRequest", "CollectiveRequest", "Envelope")
    spec = ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=1, fluid=False)
    with collector_paused():
        make_stack("intelmpi", spec).run_once(_host_traffic)
        left = [type(obj).__name__ for obj in gc.get_objects()
                if type(obj).__name__ in records]
    assert not left, left


# -- (c): a closed, dropped job is gone ---------------------------------------
@pytest.mark.parametrize("job,flavor", JOBS, ids=IDS)
def test_a_closed_job_is_freed_by_refcount(job, flavor):
    hist = census(lambda: job(flavor, 2))
    assert sum(hist.values()) <= RATCHET, hist.most_common(10)


@pytest.mark.parametrize("variant", ["simple", "group"])
def test_a_closed_bare_framework_is_freed_by_refcount(variant):
    hist = census(lambda: scatter(variant, 2))
    assert sum(hist.values()) <= RATCHET, hist.most_common(10)


@pytest.mark.parametrize("killed", [False, True], ids=["faulted", "faulted-killed"])
def test_a_closed_faulted_job_is_freed_by_refcount(killed):
    """The recovery layer's handlers, processes and the timeouts its
    waits outlived go with the job."""
    hist = census(lambda: faulted_ring(killed))
    assert sum(hist.values()) <= RATCHET, hist.most_common(10)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_an_observed_job_is_freed_too_and_exports_after_its_end_of_life(flavor):
    from repro.baselines.base import BackendStack
    from repro.obs import observe_cluster

    exported = []

    def job():
        cluster = Cluster(ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=1))
        obs = observe_cluster(cluster)  # before the framework exists
        BackendStack(cluster, flavor).run_once(_one_alltoall)
        obs.check()
        exported.append(len(obs.chrome_trace()["traceEvents"]))

    job()
    hist = census(job)
    assert sum(hist.values()) <= RATCHET, hist.most_common(10)
    assert exported[0] == exported[1] > 0


def test_ratchet_may_only_shrink():
    assert RATCHET <= 0


# -- (d): a sweep's memory is one point's, not the sum -------------------------
def test_sweep_object_count_is_flat():
    counts = []
    with collector_paused():
        for point in range(12):
            alltoall(FLAVORS[point % 3], 2)
            counts.append(live_objects())
    assert abs(counts[11] - counts[1]) <= 0.05 * counts[1], counts
    # The collective tag sequence is per runtime: twelve dead worlds left
    # no entry in any process-global table.
    assert not [name for name, value in vars(collectives).items()
                if isinstance(value, dict) and value and not name.startswith("__")]


# -- (e): the end of life simulates nothing and keeps the counters -------------
@pytest.mark.parametrize("flavor", FLAVORS)
def test_end_of_life_keeps_the_ledger_readable(flavor):
    spec = ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=1, fluid=False)
    stack = make_stack(flavor, spec)
    cluster, sim = stack.cluster, stack.cluster.sim

    stack.run(_one_alltoall)
    before = (sim.processed_events, sim.now,
              [ctx.busy_time for ctx in cluster.ranks.materialized()],
              [stack.backend(r).time_in_comm for r in range(4)],
              dict(cluster.metrics))
    stack.close()
    after = (sim.processed_events, sim.now,
             [ctx.busy_time for ctx in cluster.ranks.materialized()],
             [stack.backend(r).time_in_comm for r in range(stack.world.size)],
             dict(cluster.metrics))
    assert after == before
    assert before[0] > 0 and all(t > 0 for t in before[3])
    assert (len(cluster.ranks), len(cluster.proxies)) == (4, 2)
    assert sim.flow_engine is None and next_time(sim) == float("inf")
    sim.run()  # nothing left to process
    assert sim.processed_events == before[0]
    stack.close()  # idempotent


def test_run_once_closes_even_when_the_job_fails():
    stack = make_stack("proposed", ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))

    def program(be):
        yield be.ctx.consume(1e-6)
        raise RuntimeError("rank program failed")

    with pytest.raises(RuntimeError, match="rank program failed"):
        stack.run_once(program)
    assert stack.framework.finalized
    assert next_time(stack.cluster.sim) == float("inf")


# -- the pieces ------------------------------------------------------------------
def test_process_close_detaches_and_never_fires():
    sim = Simulator()
    log = []

    def parked():
        try:
            yield sim.event()
        finally:
            log.append("finally")

    proc = sim.process(parked())
    sim.run()
    events = sim.processed_events
    proc.close()
    assert log == ["finally"] and not proc.triggered
    proc.close()  # idempotent
    sim.run()
    assert sim.processed_events == events


def test_simulator_close_forgets_the_calendar():
    sim = Simulator()
    fired = []
    sim.timeout(1.0).callbacks.append(fired.append)
    sim.timeout(0.0).callbacks.append(fired.append)
    sim.watchdog_probes.append(lambda: ["probe"])
    sim.close()
    sim.run()
    assert not fired and sim.processed_events == 0 and sim.now == 0.0


class TestFinalizeTakesEffect:
    def test_post_after_finalize_raises_at_the_call(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        ep = fw.endpoint(0)
        addr = ep.ctx.space.alloc(1024)
        fw.finalize()

        def post(endpoint):
            yield from endpoint.send_offload(addr, 1024, dst=1, tag=1)

        for endpoint in (ep, fw.endpoint(1)):  # built before / after finalize
            proc = tiny_cluster.sim.process(post(endpoint))
            with pytest.raises(OffloadError, match="Finalize_Offload"):
                tiny_cluster.sim.run(until=proc)

    def test_close_stops_every_proxy_without_simulating(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        tiny_cluster.sim.run(until=fw.ready)
        engines = list(fw._proxy_engines.values())
        events = tiny_cluster.sim.processed_events
        fw.close()
        assert fw.finalized
        assert tiny_cluster.sim.processed_events == events
        for engine in engines:
            assert engine.core.engine is None and engine.core.waiting is None
            assert not engine.inbox._getters
        ep = fw.endpoint(0)

        def post():
            yield from ep.recv_offload(ep.ctx.space.alloc(64), 64, src=1, tag=1)

        proc = tiny_cluster.sim.process(post())
        with pytest.raises(OffloadError, match="Finalize_Offload"):
            tiny_cluster.sim.run(until=proc)
