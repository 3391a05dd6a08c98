"""A ring shift over the non-blocking point-to-point calls."""

from tests.helpers import waitall


class TestSendrecv:
    def test_ring_shift_without_deadlock(self, world):
        """Every rank simultaneously sends right and receives left --
        the classic pattern blocking send/recv would deadlock on; both
        posted non-blocking before either is waited, it cannot."""
        P = world.size
        size = 64 * 1024  # rendezvous: a blocking implementation hangs

        def program(rt):
            cw = world.comm_world
            right = (rt.rank + 1) % P
            left = (rt.rank - 1) % P
            sa = rt.ctx.space.alloc(size, fill=(rt.rank % 200) + 1)
            ra = rt.ctx.space.alloc(size)
            rreq = yield from rt.irecv(cw, left, ra, size, tag=3)
            sreq = yield from rt.isend(cw, right, sa, size, tag=3)
            yield from waitall(rt, [sreq, rreq])
            assert (rt.ctx.space.read(ra, size) == (left % 200) + 1).all()
            return True

        assert all(world.run(program))
        world.assert_quiescent()
