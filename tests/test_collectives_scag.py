"""Focused tests for the scatter-allgather broadcast (large-message path)."""

import pytest

from tests.harness.step_kernel import next_time
from tests.helpers import blocking, pattern
from repro.hw import Cluster, ClusterSpec
from repro.mpi import Communicator, MpiError, MpiWorld, schedules
from repro.mpi import collectives as coll
from repro.mpi.collectives import COLL_TAG_STRIDE, SCAG_THRESHOLD


def _bcast_world(nodes, ppn):
    return MpiWorld(Cluster(ClusterSpec(nodes=nodes, ppn=ppn)))


def _run_bcast(world, root, size, seed=13):
    data = pattern(size, seed=seed)
    ops = {}

    def program(rt):
        cw = world.comm_world
        if rt.rank == root:
            addr = rt.ctx.space.alloc_like(data)
        else:
            addr = rt.ctx.space.alloc(size)
        req = yield from coll.ibcast(rt, cw, root, addr, size)
        yield from rt.wait(req)
        ops[rt.rank] = req.op
        assert (rt.ctx.space.read(addr, size) == data).all()
        return True

    assert all(world.run(program))
    world.assert_quiescent()
    return ops


class TestAlgorithmSelection:
    def test_below_threshold_stays_binomial(self):
        world = _bcast_world(2, 2)
        ops = _run_bcast(world, 0, SCAG_THRESHOLD)
        assert set(ops.values()) == {"ibcast"}

    def test_above_threshold_switches_to_scag(self):
        world = _bcast_world(2, 2)
        ops = _run_bcast(world, 0, SCAG_THRESHOLD + 1)
        assert set(ops.values()) == {"ibcast_scag"}

    def test_two_ranks_never_scag(self):
        world = _bcast_world(2, 1)
        ops = _run_bcast(world, 0, SCAG_THRESHOLD * 4)
        assert set(ops.values()) == {"ibcast"}


class TestScagCorrectness:
    @pytest.mark.parametrize("p_shape", [(3, 1), (5, 1), (4, 2), (3, 3)])
    @pytest.mark.parametrize("root", [0, 1])
    def test_various_sizes_and_roots(self, p_shape, root):
        nodes, ppn = p_shape
        world = _bcast_world(nodes, ppn)
        _run_bcast(world, root, 100_003)  # odd size: uneven last segment

    def test_size_not_divisible_by_ranks(self):
        world = _bcast_world(7, 1)
        _run_bcast(world, 3, SCAG_THRESHOLD + 13)

    def test_bandwidth_advantage_over_binomial_for_huge_payload(self):
        """Scag moves ~2 x (p-1)/p x size per rank; the binomial tree's
        root alone sends log2(p) full copies.  At large sizes scag's
        *pure* latency must win."""
        size = 4 << 20
        results = {}
        for alg_threshold in (1 << 62, 0):  # force binomial / force scag
            world = _bcast_world(4, 1)
            orig = coll.SCAG_THRESHOLD
            coll.SCAG_THRESHOLD = alg_threshold
            try:
                t = {}

                def program(rt):
                    cw = world.comm_world
                    addr = rt.ctx.space.alloc(size, fill=1)
                    t0 = rt.sim.now
                    yield from blocking(rt, coll.ibcast(rt, cw, 0, addr, size))
                    t[rt.rank] = rt.sim.now - t0
                    return True

                world.run(program)
                results[alg_threshold] = max(t.values())
            finally:
                coll.SCAG_THRESHOLD = orig
        assert results[0] < results[1 << 62]


class TestScagRoundStructure:
    def test_round_count_scales_with_ranks(self):
        """The scag schedule has ~2 + (p-1) rounds -- the dependent-round
        structure whose CPU-intervention points hurt host overlap."""
        for p in (3, 5, 8):
            world = _bcast_world(p, 1)
            reqs = {}

            def program(rt):
                cw = world.comm_world
                addr = rt.ctx.space.alloc(SCAG_THRESHOLD * 2, fill=1)
                req = yield from coll.ibcast(rt, cw, 0, addr, SCAG_THRESHOLD * 2)
                reqs[rt.rank] = len(req.rounds)
                yield from rt.wait(req)
                return True

            world.run(program)
            assert all(n == 2 + (p - 1) for n in reqs.values()), (p, reqs)


class TestTagSpace:
    def test_a_sub_tag_that_reaches_the_next_instance_is_refused(self):
        """On ``COLL_TAG_STRIDE + 1`` ranks the scag ring's last round
        would use sub-tag ``COLL_TAG_STRIDE``: the next instance's base
        tag, which its scatter round uses.  The start refuses it before
        anything is posted, so the communicator needs no such cluster."""
        world = _bcast_world(2, 1)
        rt = world.runtime(0)
        wide = Communicator(range(COLL_TAG_STRIDE + 1))
        addr = rt.ctx.space.alloc(2 * SCAG_THRESHOLD)
        start = coll.ibcast(rt, wide, 0, addr, 2 * SCAG_THRESHOLD)
        with pytest.raises(MpiError, match=f"sub-tag {COLL_TAG_STRIDE}"):
            next(start)
        assert rt._coll_seq == {} and rt._collectives == []
        assert next_time(rt.sim) == float("inf")
        assert rt.ctx.cluster.metrics.get("fabric.control_msgs") == 0

    def test_the_widest_communicator_that_fits(self):
        sched = coll._schedule(schedules.bcast_scag, 0, COLL_TAG_STRIDE,
                               (0, 2 * SCAG_THRESHOLD))
        assert max(op.tag for ops in sched.rounds for op in ops) == COLL_TAG_STRIDE - 1
