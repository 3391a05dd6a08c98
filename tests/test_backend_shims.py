"""Tests for dependent-request shims (HPL's ring hop) and backend glue."""

import pytest

from tests.helpers import pattern
from repro.apps.hpl import _RingForward, _ring_bcast_p2p
from repro.baselines import make_stack
from repro.hw import ClusterSpec

SPEC = ClusterSpec(nodes=4, ppn=1, proxies_per_dpu=1)


def _ring_once(flavor, size=32 * 1024, compute=0.0, chunk=5e-6):
    """Run one 1-ring broadcast via the shim machinery on all ranks."""
    stack = make_stack(flavor, SPEC)
    data = pattern(size, seed=4)
    out = {}

    def program(be):
        comm = be.stack.comm_world
        if be.rank == 0:
            addr = be.ctx.space.alloc_like(data)
        else:
            addr = be.ctx.space.alloc(size)
        reqs = yield from _ring_bcast_p2p(be, comm, 0, addr, size)
        if compute:
            remaining = compute
            while remaining > 0:
                step = min(chunk, remaining)
                yield be.ctx.consume(step)
                remaining -= step
                for r in reqs:
                    yield from be.test(r)
        yield from be.waitall(reqs)
        out[be.rank] = be.sim.now
        assert (be.ctx.space.read(addr, size) == data).all()
        return True

    assert all(stack.run(program))
    return out


class TestRingForwardShim:
    @pytest.mark.parametrize("flavor", ["intelmpi", "proposed"])
    def test_data_travels_the_whole_ring(self, flavor):
        _ring_once(flavor)

    def test_forward_needs_cpu_intervention(self):
        """Without test pokes, the middle ranks only forward in waitall;
        with pokes, forwards happen during the compute."""
        lazy = _ring_once("intelmpi", compute=0.0)
        eager = _ring_once("intelmpi", compute=100e-6, chunk=5e-6)
        # With a compute region + pokes, the last rank's finish time is
        # dominated by the compute (forwards interleave), not stacked
        # after it.
        assert eager[3] < lazy[3] + 120e-6

    def test_shim_reports_completion_only_after_forward(self):
        stack = make_stack("intelmpi", SPEC)
        state = {}

        def program(be):
            comm = be.stack.comm_world
            size = 1024
            if be.rank == 0:
                addr = be.ctx.space.alloc(size, fill=3)
                req = yield from be.isend(comm, 1, addr, size, tag=53)
                yield from be.wait(req)
            elif be.rank == 1:
                addr = be.ctx.space.alloc(size)
                recv = yield from be._irecv(comm, 0, addr, size, 53)
                shim = _RingForward(be, comm, recv, 2, addr, size)
                # even once the recv lands, the shim is not complete
                # until advance() posts (and completes) the forward
                yield from be.wait(recv)
                state["before_advance"] = shim.complete
                yield from be.wait(shim)
                state["after_wait"] = shim.complete
            elif be.rank == 2:
                addr = be.ctx.space.alloc(size)
                req = yield from be.irecv(comm, 1, addr, size, tag=53)
                yield from be.wait(req)
            return True

        assert all(stack.run(program))
        assert state == {"before_advance": False, "after_wait": True}

    def test_blocking_events_exposes_offload_events(self):
        stack = make_stack("proposed", ClusterSpec(nodes=3, ppn=1, proxies_per_dpu=1))

        def program(be):
            comm = be.stack.comm_world
            size = 2048
            if be.rank == 0:
                addr = be.ctx.space.alloc(size, fill=1)
                req = yield from be.isend(comm, 1, addr, size, tag=53)
                yield from be.wait(req)
            elif be.rank == 1:
                addr = be.ctx.space.alloc(size)
                recv = yield from be._irecv(comm, 0, addr, size, 53)
                shim = _RingForward(be, comm, recv, 2, addr, size)
                evs = shim.blocking_events()
                assert len(evs) == 1  # the offload recv's event
                yield from be.wait(shim)
            elif be.rank == 2:
                addr = be.ctx.space.alloc(size)
                req = yield from be.irecv(comm, 1, addr, size, tag=53)
                yield from be.wait(req)
            return True

        assert all(stack.run(program))
