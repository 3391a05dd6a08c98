"""Integration tests for collectives: data correctness on real payloads."""

import inspect

import numpy as np
import pytest

from tests.helpers import blocking, pattern
from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld
from repro.mpi import collectives as coll
from repro.mpi import schedules
from repro.mpi.schedules import binomial_tree as _binomial_parent_children


@pytest.fixture(params=[(2, 2), (3, 2), (2, 3)])
def any_world(request):
    nodes, ppn = request.param
    return MpiWorld(Cluster(ClusterSpec(nodes=nodes, ppn=ppn)))


class TestBinomialTree:
    def test_root_has_no_parent(self):
        parent, _ = _binomial_parent_children(0, 8)
        assert parent is None

    def test_parent_clears_highest_bit(self):
        assert _binomial_parent_children(5, 8)[0] == 1
        assert _binomial_parent_children(6, 8)[0] == 2
        assert _binomial_parent_children(1, 8)[0] == 0

    def test_children_of_root(self):
        _, children = _binomial_parent_children(0, 8)
        assert children == [1, 2, 4]

    def test_every_rank_reachable(self):
        for p in (2, 3, 5, 8, 13):
            seen = {0}
            frontier = [0]
            while frontier:
                v = frontier.pop()
                _, kids = _binomial_parent_children(v, p)
                for k in kids:
                    assert k not in seen
                    seen.add(k)
                    frontier.append(k)
            assert seen == set(range(p))


class TestAlltoall:
    def test_personalized_exchange(self, any_world):
        world = any_world
        P = world.size
        blk = 512

        def program(rt):
            cw = world.comm_world
            me = rt.rank
            sbuf = np.zeros(P * blk, np.uint8)
            for j in range(P):
                sbuf[j * blk:(j + 1) * blk] = (me * P + j) % 251
            sa = rt.ctx.space.alloc_like(sbuf)
            ra = rt.ctx.space.alloc(P * blk)
            yield from blocking(rt, coll.ialltoall(rt, cw, sa, ra, blk))
            out = rt.ctx.space.read(ra, P * blk)
            for j in range(P):
                assert (out[j * blk:(j + 1) * blk] == (j * P + me) % 251).all()
            return True

        assert all(world.run(program))
        world.assert_quiescent()

    def test_nonblocking_returns_before_complete(self, world):
        def program(rt):
            cw = world.comm_world
            P = world.size
            sa = rt.ctx.space.alloc(P * 1024, fill=1)
            ra = rt.ctx.space.alloc(P * 1024)
            req = yield from coll.ialltoall(rt, cw, sa, ra, 1024)
            posted_not_done = not req.complete
            yield from rt.wait(req)
            return posted_not_done and req.complete

        assert all(world.run(program))


class TestBcast:
    @pytest.mark.parametrize("root", [0, 2])
    def test_small_payload(self, any_world, root):
        world = any_world
        data = pattern(3000, seed=5)

        def program(rt):
            cw = world.comm_world
            if rt.rank == root:
                addr = rt.ctx.space.alloc_like(data)
            else:
                addr = rt.ctx.space.alloc(3000)
            yield from blocking(rt, coll.ibcast(rt, cw, root, addr, 3000))
            assert (rt.ctx.space.read(addr, 3000) == data).all()
            return True

        assert all(world.run(program))
        world.assert_quiescent()

    def test_large_payload_uses_scatter_allgather(self, world):
        size = 300_000
        data = pattern(size, seed=6)

        def program(rt):
            cw = world.comm_world
            if rt.rank == 1:
                addr = rt.ctx.space.alloc_like(data)
            else:
                addr = rt.ctx.space.alloc(size)
            req = yield from coll.ibcast(rt, cw, 1, addr, size)
            yield from rt.wait(req)
            assert req.op == "ibcast_scag"
            assert (rt.ctx.space.read(addr, size) == data).all()
            return True

        assert all(world.run(program))


class TestBarrier:
    def test_nobody_leaves_before_last_arrives(self, any_world):
        world = any_world
        arrive, leave = {}, {}

        def program(rt):
            yield rt.ctx.consume(rt.rank * 10e-6)  # staggered arrival
            arrive[rt.rank] = rt.sim.now
            yield from blocking(rt, coll.ibarrier(rt, world.comm_world))
            leave[rt.rank] = rt.sim.now
            return True

        world.run(program)
        assert min(leave.values()) >= max(arrive.values())


class TestReduce:
    def test_sum_to_root(self, any_world):
        world = any_world
        P = world.size
        count = 32

        def program(rt):
            cw = world.comm_world
            buf = np.full(count, float(rt.rank + 1))
            addr = rt.ctx.space.alloc_like(buf)
            req = yield from coll.ireduce(rt, cw, 0, addr, count * 8)
            yield from rt.wait(req)
            if rt.rank == 0:
                got = rt.ctx.space.read_as(addr, np.float64, count)
                assert np.allclose(got, P * (P + 1) / 2)
            return True

        assert all(world.run(program))

    def test_allreduce_everywhere(self, world):
        P = world.size
        count = 16

        def program(rt):
            cw = world.comm_world
            buf = np.full(count, float(rt.rank))
            addr = rt.ctx.space.alloc_like(buf)
            yield from coll.allreduce(rt, cw, addr, count * 8)
            got = rt.ctx.space.read_as(addr, np.float64, count)
            assert np.allclose(got, sum(range(P)))
            return True

        assert all(world.run(program))

    def test_non_multiple_of_word_rejected(self, world):
        def program(rt):
            addr = rt.ctx.space.alloc(10)
            yield from coll.ireduce(rt, world.comm_world, 0, addr, 10)

        from repro.mpi import MpiError
        with pytest.raises(MpiError):
            world.run(program, ranks=[0])


class TestSubCommunicators:
    def test_collective_on_split_comm(self):
        world = MpiWorld(Cluster(ClusterSpec(nodes=2, ppn=2)))

        def program(rt):
            cw = world.comm_world
            colors = [0, 1, 0, 1]
            sub = cw.split(colors)[colors[rt.rank]]
            blk = 64
            sa = rt.ctx.space.alloc(sub.size * blk, fill=rt.rank + 1)
            ra = rt.ctx.space.alloc(sub.size * blk)
            yield from blocking(rt, coll.ialltoall(rt, sub, sa, ra, blk))
            out = rt.ctx.space.read(ra, sub.size * blk)
            for j, w in enumerate(sub.world_ranks):
                assert (out[j * blk:(j + 1) * blk] == w + 1).all()
            return True

        assert all(world.run(program))
        world.assert_quiescent()


class TestScratchAndTagLifetime:
    """A collective owns what it allocates: scratch is released when the
    collective finishes locally, and the tag sequence dies with the job."""

    @staticmethod
    def _loop(iters: int, **params):
        from repro.hw import MachineParams

        cl = Cluster(ClusterSpec(nodes=2, ppn=2, params=MachineParams(**params)))
        world = MpiWorld(cl)

        def program(rt):
            addr = rt.ctx.space.alloc(1024)
            for _ in range(iters):
                yield from blocking(rt, coll.ibarrier(rt, world.comm_world))
                yield from coll.allreduce(rt, world.comm_world, addr, 1024)
            return len(rt.ctx.space._buffers), rt.ctx.space.allocated_bytes

        return world.run(program), dict(cl.metrics)

    def test_a_collective_loop_holds_a_constant_number_of_allocations(self):
        short, _ = self._loop(10)
        long, _ = self._loop(100)
        assert long == short
        # The user buffer and the barrier's pad; nothing per call.
        assert long[0] == (2, 1024 + 64)

    def test_a_collective_loop_survives_a_small_memory_budget(self):
        self._loop(100, host_mem_budget=16 * 1024)

    def test_freeing_scratch_moves_no_counter_but_mem_frees(self):
        """The counters of the tree that leaked (10 iterations), plus
        the frees: ranks 0 and 1 hold reduce children."""
        _, counters = self._loop(10)
        assert counters == {
            "mpi.eager_sends": 100.0, "mpi.shm_sends": 40.0,
            "nic.host_posted_msgs": 100.0, "nic.host_posted_bytes": 41020.0,
            "mem.frees": 20.0,
        }

    def test_tag_sequence_lives_on_the_runtime(self, world):
        def program(rt):
            yield from blocking(rt, coll.ibarrier(rt, world.comm_world))
            yield from blocking(rt, coll.ibarrier(rt, world.comm_world))
            return dict(rt._coll_seq)

        assert world.run(program) == [{world.comm_world.comm_id: 2}] * world.size
        # No process-global state: nothing at module level grows with use.
        assert not [name for name, value in vars(coll).items()
                    if isinstance(value, (dict, list, set))
                    and name not in ("__all__", "__builtins__")]


def _builders():
    """Every function in ``schedules.__all__`` that returns a Schedule."""
    return [name for name in schedules.__all__
            if inspect.isfunction(getattr(schedules, name))
            and inspect.signature(getattr(schedules, name)).return_annotation
            == "Schedule"]


class TestSchedulesAreImmutable:
    """A built schedule is shared (``collectives._schedule`` keeps the
    last few builds), so no caller may be able to change it."""

    ARGS = {"me": 1, "p": 4, "root": 2, "nbytes": 8 * 37, "block": 64}

    def test_the_builders_are_found(self):
        assert len(_builders()) == 8

    @pytest.mark.parametrize("name", _builders())
    def test_every_builder_returns_tuples(self, name):
        build = getattr(schedules, name)
        sched = build(**{k: self.ARGS[k] for k in inspect.signature(build).parameters})
        assert isinstance(sched, schedules.Schedule)
        assert type(sched.rounds) is tuple and sched.rounds
        assert all(type(ops) is tuple for ops in sched.rounds)
