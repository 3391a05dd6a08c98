"""Edge cases of the MPI runtime and world plumbing."""

import pytest

from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiError, MpiWorld, runtime
from repro.mpi import collectives as coll
from repro.obs import EventBus
from tests.helpers import waitall


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
