"""Edge cases of the MPI runtime and world plumbing."""

import numpy as np
import pytest

from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiError, MpiWorld, runtime
from repro.mpi import collectives as coll
from repro.obs import EventBus
from tests.helpers import pattern, waitall
from tests.test_schedule_pins import _Log, _tap_runtime


class TestWaitEdges:
    def test_wait_on_already_complete_request(self, world):
        def program(rt):
            comm = world.comm_world
            if rt.rank == 0:
                addr = rt.ctx.space.alloc(64)
                req = yield from rt.isend(comm, 2, addr, 64, tag=1)
                yield from rt.wait(req)
                yield from rt.wait(req)  # second wait is a no-op
            elif rt.rank == 2:
                addr = rt.ctx.space.alloc(64)
                req = yield from rt.irecv(comm, 0, addr, 64, tag=1)
                yield from rt.wait(req)
            return True

        assert all(world.run(program))

    def test_waitall_mixed_completion_order(self, world):
        def program(rt):
            comm = world.comm_world
            if rt.rank == 0:
                a1 = rt.ctx.space.alloc(64)
                a2 = rt.ctx.space.alloc(256 * 1024)
                r1 = yield from rt.isend(comm, 2, a1, 64, tag=1)       # eager
                r2 = yield from rt.isend(comm, 2, a2, 256 * 1024, tag=2)  # rndv
                yield from waitall(rt, [r2, r1])  # reverse order
                assert r1.complete and r2.complete
            elif rt.rank == 2:
                a1 = rt.ctx.space.alloc(64)
                a2 = rt.ctx.space.alloc(256 * 1024)
                r1 = yield from rt.irecv(comm, 0, a1, 64, tag=1)
                r2 = yield from rt.irecv(comm, 0, a2, 256 * 1024, tag=2)
                yield from waitall(rt, [r1, r2])
            return True

        assert all(world.run(program))

    def test_progress_poke_advances_protocol(self):
        cluster = Cluster(ClusterSpec(nodes=2, ppn=1))
        world = MpiWorld(cluster)
        size = 128 * 1024
        out = {}

        def program(rt):
            comm = world.comm_world
            if rt.rank == 0:
                addr = rt.ctx.space.alloc(size)
                req = yield from rt.isend(comm, 1, addr, size, tag=1)
                yield from rt.wait(req)
            else:
                addr = rt.ctx.space.alloc(size)
                req = yield from rt.irecv(comm, 0, addr, size, tag=1)
                # explicit progress pokes instead of wait
                while not req.complete:
                    yield rt.ctx.consume(2e-6)
                    yield from rt.test(req)
                out["done"] = rt.sim.now
            return True

        assert all(world.run(program))
        assert out["done"] > 0


class TestCollectiveEdges:
    def test_collective_completion_needs_calls(self):
        """An Ialltoall posted then ignored must NOT finish while the
        rank computes -- rounds only advance inside MPI calls."""
        cluster = Cluster(ClusterSpec(nodes=2, ppn=1))
        world = MpiWorld(cluster)
        P = 2
        size = 128 * 1024  # rendezvous
        snapshots = {}

        def program(rt):
            comm = world.comm_world
            sa = rt.ctx.space.alloc(P * size, fill=1)
            ra = rt.ctx.space.alloc(P * size)
            req = yield from coll.ialltoall(rt, comm, sa, ra, size)
            yield rt.ctx.consume(500e-6)
            snapshots[rt.rank] = req.complete
            yield from rt.wait(req)
            return True

        assert all(world.run(program))
        assert not any(snapshots.values())

    def test_test_on_collective_request(self, world):
        def program(rt):
            comm = world.comm_world
            P = world.size
            sa = rt.ctx.space.alloc(P * 512, fill=1)
            ra = rt.ctx.space.alloc(P * 512)
            req = yield from coll.ialltoall(rt, comm, sa, ra, 512)
            while not (yield from rt.test(req)):
                yield rt.ctx.consume(1e-6)
            return True

        assert all(world.run(program))

    def test_back_to_back_collectives_on_same_comm(self, world):
        def program(rt):
            comm = world.comm_world
            P = world.size
            sa = rt.ctx.space.alloc(P * 256, fill=2)
            ra = rt.ctx.space.alloc(P * 256)
            r1 = yield from coll.ialltoall(rt, comm, sa, ra, 256)
            r2 = yield from coll.ialltoall(rt, comm, sa, ra, 256)
            yield from rt.wait(r1)
            yield from rt.wait(r2)
            return True

        assert all(world.run(program))
        world.assert_quiescent()


#: Each rank's posts (``tests/test_schedule_pins.py``'s notation; ``w`` is
#: the rank's count of round starts over *both* collectives) and finish
#: time, recorded before completion counting replaced the per-pass scan.
OVERLAP_POSTS = {
    0: ["irecv 1 bcast+43762 21883 t0 w0", "irecv 4 scratch+0 2400 t0 w1",
        "irecv 2 scratch+0 2400 t0 w2", "irecv 1 scratch+0 2400 t0 w3",
        "isend 1 bcast+43762 21883 t1 w5", "irecv 2 bcast+21881 21881 t1 w5",
        "isend 1 bcast+21881 21881 t2 w6", "irecv 2 bcast+0 21881 t2 w6"],
    1: ["irecv 1 bcast+43762 21883 t0 w0", "irecv 5 scratch+0 2400 t0 w1",
        "irecv 3 scratch+0 2400 t0 w2", "isend 0 reduce+0 2400 t0 w3",
        "isend 1 bcast+43762 21883 t1 w5", "irecv 2 bcast+21881 21881 t1 w5",
        "isend 1 bcast+21881 21881 t2 w6", "irecv 2 bcast+0 21881 t2 w6"],
    2: ["isend 0 bcast+43762 21883 t0 w0", "isend 2 bcast+21881 21881 t0 w0",
        "isend 0 reduce+0 2400 t0 w1", "isend 2 bcast+0 21881 t1 w3",
        "irecv 0 bcast+43762 21883 t1 w3", "isend 2 bcast+43762 21883 t2 w4",
        "irecv 0 bcast+21881 21881 t2 w4"],
    3: ["isend 0 bcast+43762 21883 t0 w0", "isend 2 bcast+21881 21881 t0 w0",
        "isend 1 reduce+0 2400 t0 w1", "isend 2 bcast+0 21881 t1 w3",
        "irecv 0 bcast+43762 21883 t1 w3", "isend 2 bcast+43762 21883 t2 w4",
        "irecv 0 bcast+21881 21881 t2 w4"],
    4: ["irecv 1 bcast+21881 21881 t0 w0", "isend 0 reduce+0 2400 t0 w1",
        "isend 0 bcast+21881 21881 t1 w3", "irecv 1 bcast+0 21881 t1 w3",
        "isend 0 bcast+0 21881 t2 w4", "irecv 1 bcast+43762 21883 t2 w4"],
    5: ["irecv 1 bcast+21881 21881 t0 w0", "isend 1 reduce+0 2400 t0 w1",
        "isend 0 bcast+21881 21881 t1 w3", "irecv 1 bcast+0 21881 t1 w3",
        "isend 0 bcast+0 21881 t2 w4", "irecv 1 bcast+43762 21883 t2 w4"],
}
OVERLAP_FINISH = {
    0: 3.33519583333333e-05, 1: 3.42819583333333e-05,
    2: 3.573041666666664e-05, 3: 3.672220833333331e-05,
    4: 3.4972208333333315e-05, 5: 3.559220833333331e-05,
}


class TestOverlappingCollectives:
    def test_two_multi_round_collectives_in_flight_on_one_rank(self):
        """A scag Ibcast on a row communicator and an Ireduce on
        COMM_WORLD, started back to back and waited in reverse order:
        every rank's progress engine advances two round chains at once,
        over shm, eager and rendezvous traffic."""
        size, words = coll.SCAG_THRESHOLD + 8 * 13 + 5, 300
        world = MpiWorld(Cluster(ClusterSpec(nodes=3, ppn=2)))
        cw = world.comm_world
        rows = cw.split([w % 2 for w in range(world.size)])
        data = pattern(size, seed=21)
        logs, finish = {}, {}

        def program(rt):
            row = rows[rt.rank % 2]
            if row.rank_of(rt.rank) == 1:
                baddr = rt.ctx.space.alloc_like(data)
            else:
                baddr = rt.ctx.space.alloc(size)
            raddr = rt.ctx.space.alloc_like(np.full(words, rt.rank + 1.0))
            logs[rt.rank] = _Log(rt.ctx.space, {"bcast": baddr, "reduce": raddr})
            _tap_runtime(rt, logs[rt.rank])
            b = yield from coll.ibcast(rt, row, 1, baddr, size)
            r = yield from coll.ireduce(rt, cw, 0, raddr, words * 8)
            yield from rt.wait(r)
            yield from rt.wait(b)
            finish[rt.rank] = rt.sim.now
            assert (rt.ctx.space.read(baddr, size) == data).all()
            if rt.rank == 0:
                got = rt.ctx.space.read_as(raddr, np.float64, words)
                assert (got == sum(range(1, world.size + 1))).all()

        world.run(program)
        world.assert_quiescent()
        assert {r: log.posts for r, log in logs.items()} == OVERLAP_POSTS
        assert finish == OVERLAP_FINISH


class TestQuiescence:
    def test_detects_unfinished_recv(self, world):
        def program(rt):
            if rt.rank == 0:
                addr = rt.ctx.space.alloc(64)
                yield from rt.irecv(world.comm_world, 2, addr, 64, tag=1)
            return True
            yield  # pragma: no cover

        world.run(program, ranks=[0])
        with pytest.raises(MpiError, match="matching not idle"):
            world.assert_quiescent()

    def test_detects_unfinished_rndv_send(self, world):
        def program(rt):
            addr = rt.ctx.space.alloc(128 * 1024)
            yield from rt.isend(world.comm_world, 2, addr, 128 * 1024, tag=1)
            return True

        world.run(program, ranks=[0])
        world.runtime(2).incoming._items.clear()  # swallow the RTS
        with pytest.raises(MpiError, match="awaiting FIN"):
            world.assert_quiescent()


class TestWorld:
    def test_run_returns_per_rank_values(self, world):
        def program(rt):
            yield rt.ctx.consume(1e-6)
            return rt.rank * 10

        assert world.run(program) == [0, 10, 20, 30]

    def test_run_subset_of_ranks(self, world):
        def program(rt):
            yield rt.ctx.consume(1e-6)
            return rt.rank

        assert world.run(program, ranks=[1, 3]) == [1, 3]

    def test_program_exception_propagates(self, world):
        def program(rt):
            yield rt.ctx.consume(1e-6)
            raise ValueError("app bug")

        with pytest.raises(ValueError, match="app bug"):
            world.run(program, ranks=[0])


class TestHelperCallbacks:
    """A shm delivery and a rendezvous read's report are callback chains
    on the events they wait for, not a process per message."""

    def _pingpong(self, cluster, size):
        world = MpiWorld(cluster)

        def program(rt):
            comm = world.comm_world
            addr = rt.ctx.space.alloc(size, fill=rt.rank + 1)
            if rt.rank == 0:
                req = yield from rt.isend(comm, 1, addr, size, tag=1)
            else:
                req = yield from rt.irecv(comm, 0, addr, size, tag=1)
            yield from rt.wait(req)
            return bytes(rt.ctx.space.read(addr, 4))

        return world.run(program, ranks=[0, 1])

    @pytest.mark.parametrize("ppn, size", [(2, 64), (1, 128 * 1024)],
                             ids=["shm", "rndv"])
    def test_no_helper_process_is_started(self, ppn, size):
        cluster = Cluster(ClusterSpec(nodes=2 // ppn, ppn=ppn))
        bus = EventBus.attach(cluster)
        assert self._pingpong(cluster, size) == [b"\1" * 4] * 2
        # Only the two rank programs ran as processes.
        assert bus.count(cat="proc", name="start") == 2

    def test_a_failed_read_completion_raises(self, monkeypatch):
        real_read = runtime.rdma_read

        def failing_read(ctx, **kw):
            # The completion fails a microsecond after the read is armed.
            transfer = yield from real_read(ctx, **kw)
            failed = transfer.completed = ctx.sim.event()
            ctx.sim.timeout(1e-6).callbacks.append(
                lambda _ev: failed.fail(RuntimeError("read completion failed")))
            return transfer

        monkeypatch.setattr(runtime, "rdma_read", failing_read)
        cluster = Cluster(ClusterSpec(nodes=2, ppn=1))
        with pytest.raises(RuntimeError, match="read completion failed"):
            self._pingpong(cluster, 128 * 1024)
