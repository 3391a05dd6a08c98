"""How much depends on the order of same-instant events?

The kernel fires the events of one instant in the order they were
scheduled.  That rule is deterministic, but it is a modelling *choice*:
nothing in the simulated machine says that of two things happening at
the same nanosecond the one whose Python call came first goes first.
``tests/harness/tie_order`` breaks the rule on purpose -- last-scheduled
first, or a seeded random pick -- and this module checks three things:

1. the instrument is valid: its ``"fifo"`` order reproduces the
   production loop exactly;
2. protocol *correctness* does not depend on the choice: under every
   order each job completes, delivers the right bytes and leaves the
   offload framework and the MPI runtimes quiescent;
3. reported *times* do depend on it, by a bounded amount: the largest
   relative shift per job is pinned, so the envelope can only shrink.
   This is the number that says why an optimisation that moves the
   moment an event is scheduled cannot promise bit-identical tables
   (docs/PERFORMANCE.md, "governing constraint").
"""

import numpy as np
import pytest

from tests.harness.tie_order import tie_order
from tests.helpers import blocking, pattern
from repro.baselines.base import make_stack
from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld
from repro.offload import OffloadFramework

ORDERS = ["lifo", 1, 2, 3]


# -- the three jobs: each verifies itself and returns (time, events) ----------
def _fill_blocks(space, sbuf, rank, P, block):
    """Block ``dst`` of rank ``rank``'s send buffer holds byte 16*rank+dst."""
    for dst in range(P):
        space.write(sbuf + dst * block, np.full(block, 16 * rank + dst, dtype=np.uint8))


def _blocks_arrived(space, rbuf, rank, P, block, own=True):
    """Block ``src`` of the receive buffer holds what ``src`` addressed to us."""
    got = space.read(rbuf, P * block).reshape(P, block)
    want = (16 * np.arange(P) + rank)[:, None]
    rows = np.arange(P) != rank if not own else slice(None)
    return bool((got[rows] == want[rows]).all())


def ialltoall_proposed():
    """2 nodes x 4 ppn, `proposed` backend, 64 KiB per peer, 3 calls."""
    spec = ClusterSpec(nodes=2, ppn=4, proxies_per_dpu=4)
    stack = make_stack("proposed", spec)
    P, block = spec.world_size, 65536
    times = []

    def program(be):
        comm = be.stack.comm_world
        sbuf = be.ctx.space.alloc(P * block)
        rbuf = be.ctx.space.alloc(P * block)
        _fill_blocks(be.ctx.space, sbuf, be.rank, P, block)
        for _ in range(3):
            yield from be.barrier(comm)
            t0 = be.sim.now
            req = yield from be.ialltoall(comm, sbuf, rbuf, block)
            yield from be.wait(req)
            if be.rank == 0:
                times.append(be.sim.now - t0)
        return _blocks_arrived(be.ctx.space, rbuf, be.rank, P, block)

    assert all(stack.run(program))
    stack.framework.assert_quiescent()
    stack.world.assert_quiescent()
    return sum(times) / len(times), stack.cluster.sim.processed_events


def group_scatter():
    """8 ranks, scatter-destination exchange recorded once as a group
    request and called 3 times (the later calls replay the cached plan)."""
    spec = ClusterSpec(nodes=2, ppn=4, proxies_per_dpu=4)
    cl = Cluster(spec)
    fw = OffloadFramework(cl, mode="gvmi", group_caching=True)
    P, block = spec.world_size, 16384
    times = []

    def make(rank):
        def prog():
            ep = fw.endpoint(rank)
            sbuf = ep.ctx.space.alloc(P * block)
            rbuf = ep.ctx.space.alloc(P * block)
            _fill_blocks(ep.ctx.space, sbuf, rank, P, block)
            greq = ep.group_start()
            for dist in range(1, P):
                dst, src = (rank + dist) % P, (rank - dist) % P
                ep.group_send(greq, sbuf + dst * block, block, dst=dst, tag=6)
                ep.group_recv(greq, rbuf + src * block, block, src=src, tag=6)
            ep.group_end(greq)
            for _ in range(3):
                t0 = cl.sim.now
                yield from ep.group_call(greq)
                yield from ep.group_wait(greq)
                if rank == 0:
                    times.append(cl.sim.now - t0)
            return _blocks_arrived(ep.ctx.space, rbuf, rank, P, block, own=False)

        return prog

    procs = [cl.sim.process(make(r)()) for r in range(P)]
    cl.sim.run(until=cl.sim.all_of(procs))
    assert all(p.value for p in procs)
    fw.assert_quiescent()
    return sum(times) / len(times), cl.sim.processed_events


def hostmpi_ring_broadcast():
    """4 ranks, host MPI only: rank 0's 32 KiB (rendezvous) payload
    travels the ring; the job's time is the last rank's finish."""
    cl = Cluster(ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=2))
    world = MpiWorld(cl)
    size = 32768
    data = pattern(size, seed=21)

    def program(rt):
        comm, P = world.comm_world, world.size
        if rt.rank == 0:
            buf = rt.ctx.space.alloc_like(data)
        else:
            buf = rt.ctx.space.alloc(size)
            yield from blocking(rt, rt.irecv(comm, rt.rank - 1, buf, size, tag=3))
        if rt.rank != P - 1:
            yield from blocking(rt, rt.isend(comm, rt.rank + 1, buf, size, tag=3))
        assert bytes(rt.ctx.space.read(buf, size)) == data.tobytes()
        return rt.sim.now

    finish = world.run(program)
    world.assert_quiescent()
    return max(finish), cl.sim.processed_events


JOBS = {
    "ialltoall_proposed": ialltoall_proposed,
    "group_scatter": group_scatter,
    "hostmpi_ring_broadcast": hostmpi_ring_broadcast,
}

#: Largest relative shift of each job's reported time over ORDERS,
#: against the production order -- recorded from the run that introduced
#: this test (2.2034 % at seed 3, 0.9564 % at seed 2, exactly 0: the ring
#: is one serial chain), rounded up.  The sizing run for the instant
#: calendar saw up to 2.5 % on the 8-node fig13 grid.  Lower these when a
#: source of order-dependence is removed; never raise them without
#: saying why.  group_scatter's went from 1.00 % to 1.32 % when store puts
#: and control deliveries stopped scheduling events: a random pick draws
#: from fewer events per instant, so each seed samples another order.
#: Over "lifo" and seeds 1-20 the largest shift is 1.315 % both before
#: and after that change (seed 9 before, seed 2 after).
ENVELOPE = {
    "ialltoall_proposed": 0.0225,
    "group_scatter": 0.0132,
    "hostmpi_ring_broadcast": 0.0,
}


@pytest.mark.parametrize("job", sorted(JOBS))
def test_fifo_through_the_instrument_is_the_production_loop(job, monkeypatch):
    production = JOBS[job]()
    with tie_order(monkeypatch, "fifo") as cls:
        assert JOBS[job]() == production
        # ... and not vacuously: clusters built here do run on the instrument.
        assert type(Cluster(ClusterSpec(nodes=1, ppn=1)).sim) is cls
    assert type(Cluster(ClusterSpec(nodes=1, ppn=1)).sim) is not cls


@pytest.mark.parametrize("job", sorted(JOBS))
def test_correct_under_any_tie_order_and_times_inside_the_envelope(job, monkeypatch):
    t_fifo, _n = JOBS[job]()
    shifts = []
    for order in ORDERS:
        with tie_order(monkeypatch, order):
            t, _n = JOBS[job]()  # raises if the job is wrong under `order`
        shifts.append(abs(t - t_fifo) / t_fifo)
    assert max(shifts) <= ENVELOPE[job], (job, dict(zip(ORDERS, shifts)))
