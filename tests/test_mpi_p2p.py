"""Integration tests for point-to-point protocols: eager, rendezvous, shm."""

import pytest

from tests.helpers import pattern, waitall
from repro.hw import Cluster, ClusterSpec
from repro.mpi import ANY_SOURCE, ANY_TAG, MpiError, MpiWorld

EAGER = 1024            # well below the 16 KiB threshold
RNDV = 256 * 1024       # well above


def _pingpong(world, size, src_rank=0, dst_rank=None, tag=7):
    """Send pattern bytes src->dst, verify at dst; returns finish times."""
    if dst_rank is None:
        dst_rank = world.size - 1
    data = pattern(size, seed=size)

    def program(rt):
        comm = world.comm_world
        if rt.rank == src_rank:
            addr = rt.ctx.space.alloc_like(data)
            req = yield from rt.isend(comm, dst_rank, addr, size, tag=tag)
            yield from rt.wait(req)
        elif rt.rank == dst_rank:
            addr = rt.ctx.space.alloc(size)
            req = yield from rt.irecv(comm, src_rank, addr, size, tag=tag)
            yield from rt.wait(req)
            assert (rt.ctx.space.read(addr, size) == data).all()
        return rt.sim.now

    return world.run(program)


class TestProtocolSelection:
    def test_eager_inter_node(self, world):
        _pingpong(world, EAGER, src_rank=0, dst_rank=2)
        assert world.cluster.metrics.get("mpi.eager_sends") == 1
        world.assert_quiescent()

    def test_rendezvous_inter_node(self, world):
        _pingpong(world, RNDV, src_rank=0, dst_rank=2)
        assert world.cluster.metrics.get("mpi.rndv_sends") == 1
        # rendezvous = receiver-side RDMA read
        assert world.cluster.metrics.get("rdma.read.host") == 1
        world.assert_quiescent()

    def test_shared_memory_intra_node(self, world):
        _pingpong(world, RNDV, src_rank=0, dst_rank=1)
        assert world.cluster.metrics.get("mpi.shm_sends") == 1
        assert world.cluster.metrics.get("mpi.rndv_sends") == 0
        world.assert_quiescent()

    def test_threshold_boundary_is_eager(self, world):
        _pingpong(world, world.cluster.params.eager_threshold, src_rank=0, dst_rank=2)
        assert world.cluster.metrics.get("mpi.eager_sends") == 1


class TestSemantics:
    def test_any_source_any_tag(self, world):
        data = pattern(512)

        def program(rt):
            comm = world.comm_world
            if rt.rank == 0:
                addr = rt.ctx.space.alloc_like(data)
                req = yield from rt.isend(comm, 2, addr, 512, tag=77)
                yield from rt.wait(req)
            elif rt.rank == 2:
                addr = rt.ctx.space.alloc(512)
                req = yield from rt.irecv(comm, ANY_SOURCE, addr, 512, tag=ANY_TAG)
                yield from rt.wait(req)
                assert req.matched_src == 0
                assert req.matched_tag == 77
            return True

        assert all(world.run(program))

    def test_message_ordering_same_pair(self, world):
        """Two same-tag sends must arrive in order."""
        def program(rt):
            comm = world.comm_world
            if rt.rank == 0:
                a1 = rt.ctx.space.alloc(8, fill=1)
                a2 = rt.ctx.space.alloc(8, fill=2)
                r1 = yield from rt.isend(comm, 2, a1, 8, tag=5)
                r2 = yield from rt.isend(comm, 2, a2, 8, tag=5)
                yield from waitall(rt, [r1, r2])
            elif rt.rank == 2:
                b1 = rt.ctx.space.alloc(8)
                b2 = rt.ctx.space.alloc(8)
                r1 = yield from rt.irecv(comm, 0, b1, 8, tag=5)
                r2 = yield from rt.irecv(comm, 0, b2, 8, tag=5)
                yield from waitall(rt, [r1, r2])
                assert (rt.ctx.space.read(b1, 8) == 1).all()
                assert (rt.ctx.space.read(b2, 8) == 2).all()
            return True

        assert all(world.run(program))

    def test_unexpected_message_then_recv(self, world):
        """Send posted long before the receive."""
        def program(rt):
            comm = world.comm_world
            if rt.rank == 0:
                addr = rt.ctx.space.alloc(64, fill=9)
                req = yield from rt.isend(comm, 2, addr, 64, tag=1)
                yield from rt.wait(req)
            elif rt.rank == 2:
                yield rt.ctx.consume(50e-6)  # arrive late
                addr = rt.ctx.space.alloc(64)
                req = yield from rt.irecv(comm, 0, addr, 64, tag=1)
                yield from rt.wait(req)
                assert (rt.ctx.space.read(addr, 64) == 9).all()
            return True

        assert all(world.run(program))

    def test_overflow_recv_rejected(self, world):
        def program(rt):
            comm = world.comm_world
            if rt.rank == 0:
                addr = rt.ctx.space.alloc(128, fill=3)
                req = yield from rt.isend(comm, 2, addr, 128, tag=2)
                yield from rt.wait(req)
            elif rt.rank == 2:
                addr = rt.ctx.space.alloc(64)
                req = yield from rt.irecv(comm, 0, addr, 64, tag=2)
                yield from rt.wait(req)
            return True

        with pytest.raises(MpiError, match="overflows"):
            world.run(program)

    def test_self_send_rejected(self, world):
        def program(rt):
            comm = world.comm_world
            addr = rt.ctx.space.alloc(8)
            yield from rt.isend(comm, rt.rank, addr, 8, tag=0)

        with pytest.raises(MpiError):
            world.run(program, ranks=[0])

    def test_negative_tag_rejected(self, world):
        def program(rt):
            addr = rt.ctx.space.alloc(8)
            yield from rt.isend(world.comm_world, 1, addr, 8, tag=-3)

        with pytest.raises(MpiError):
            world.run(program, ranks=[0])

    def test_test_returns_completion_state(self, world):
        def program(rt):
            comm = world.comm_world
            if rt.rank == 0:
                addr = rt.ctx.space.alloc(RNDV)
                req = yield from rt.isend(comm, 2, addr, RNDV, tag=3)
                done_now = yield from rt.test(req)
                assert not done_now  # rendezvous can't finish synchronously
                yield from rt.wait(req)
                assert (yield from rt.test(req))
            elif rt.rank == 2:
                addr = rt.ctx.space.alloc(RNDV)
                req = yield from rt.irecv(comm, 0, addr, RNDV, tag=3)
                yield from rt.wait(req)
            return True

        assert all(world.run(program))


class TestProgressSemantics:
    """The property the whole paper hinges on: host MPI only progresses
    inside MPI calls."""

    def test_rendezvous_stalls_while_receiver_computes(self):
        cluster = Cluster(ClusterSpec(nodes=2, ppn=1))
        world = MpiWorld(cluster)
        compute = 200e-6
        finish = {}

        def program(rt):
            comm = world.comm_world
            size = RNDV
            if rt.rank == 0:
                addr = rt.ctx.space.alloc(size)
                req = yield from rt.isend(comm, 1, addr, size, tag=4)
                yield from rt.wait(req)
            else:
                addr = rt.ctx.space.alloc(size)
                req = yield from rt.irecv(comm, 1 - 1 + 0, addr, size, tag=4)
                yield rt.ctx.consume(compute)  # NOT an MPI call
                yield from rt.wait(req)
                finish["recv"] = rt.sim.now
            return True

        world.run(program)
        # The RTS sat unserved during the whole compute: the transfer
        # could only *start* after it, so completion lands after
        # compute + transfer time, not inside the compute window.
        transfer = RNDV / cluster.params.wire_bandwidth
        assert finish["recv"] > compute + transfer

    def test_eager_delivery_needs_no_receiver_cpu(self):
        cluster = Cluster(ClusterSpec(nodes=2, ppn=1))
        world = MpiWorld(cluster)
        finish = {}

        def program(rt):
            comm = world.comm_world
            if rt.rank == 0:
                addr = rt.ctx.space.alloc(EAGER, fill=1)
                req = yield from rt.isend(comm, 1, addr, EAGER, tag=4)
                yield from rt.wait(req)
            else:
                addr = rt.ctx.space.alloc(EAGER)
                req = yield from rt.irecv(comm, 0, addr, EAGER, tag=4)
                yield rt.ctx.consume(200e-6)
                t0 = rt.sim.now
                yield from rt.wait(req)
                finish["wait"] = rt.sim.now - t0
            return True

        world.run(program)
        # Data was already in the bounce buffer: the wait costs only the
        # match + copy-out, microseconds not the full transfer restart.
        assert finish["wait"] < 5e-6
