"""Offloaded collectives: differential correctness and the CPU invariant.

Three guarantees for the ``repro.offload.collectives`` builders and the
ring broadcast the offloading backends record:

1. **Byte-identity against host MPI.**  An offloaded Ibcast /
   Iallreduce must deposit exactly the bytes the host-MPI collective
   deposits, in both gvmi and staged transport modes and at
   non-power-of-two communicator sizes.  Reductions use integer-valued
   float64 payloads, so the sum is exact in any association order and
   "same result" genuinely means byte-identical.
2. **Fluid-vs-exact equivalence.**  At collective scale the flows of
   a one-leaf tree must reproduce the single switch's exact completion
   times within ``FLUID_RTOL`` (barrier lockstep leaves each bulk flow
   alone on its link, where the rate solver lands on the event
   engine's own timestamps -- measured deviation is exactly zero).
3. **Zero host CPU inside the window.**  Between ``Group_Offload_call``
   and ``Group_Wait`` the whole DAG runs on the DPUs: the trace
   invariant that flags host spans inside offloaded windows must stay
   silent for every rank of a full collective.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.helpers import blocking, run_procs
from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld, schedules
from repro.mpi import collectives as host_coll
from repro.obs import EventBus, trace_violations
from repro.offload import (
    OffloadError,
    OffloadFramework,
    allreduce_algorithm,
    build_iallreduce,
    build_ialltoall,
)
from repro.offload.collectives import TAG_ALLREDUCE, record_schedule

#: Matches tests/test_fluid_differential.py: six orders of magnitude of
#: margin over the worst measured fluid deviation.
FLUID_RTOL = 1e-9

MODES = ["gvmi", "staged"]
SIZES = [3, 4, 5]


#: Tag base of the recorded ring broadcast.
TAG_BCAST = 0x7A00


def _cluster(p: int, **spec_kw) -> Cluster:
    return Cluster(ClusterSpec(nodes=p, ppn=1, **spec_kw))


def _contrib(p: int, count: int) -> list[np.ndarray]:
    """Integer-valued float64 payloads: exact sums, any order."""
    return [np.arange(count, dtype=np.float64) * (r + 1) + 2 * r
            for r in range(p)]


# ----------------------------------------------------------------------
# offloaded runners: return {rank: result ndarray} and the finish time
# ----------------------------------------------------------------------
def _offload_bcast(p, data, root=0, mode="gvmi", **spec_kw):
    cl = _cluster(p, **spec_kw)
    fw = OffloadFramework(cl, mode=mode)
    out = {}

    def prog(rank):
        ep = fw.endpoint(rank)
        if rank == root:
            addr = ep.ctx.space.alloc_like(data)
        else:
            addr = ep.ctx.space.alloc(data.nbytes)
        greq, _ = record_schedule(ep, schedules.bcast_ring(rank, p, root, data.nbytes),
                                  base_tag=TAG_BCAST, recv_addr=addr)
        yield from ep.group_call(greq)
        yield from ep.group_wait(greq)
        out[rank] = ep.ctx.space.read_as(addr, np.float64, len(data)).copy()
        return cl.sim.now

    t = run_procs(cl, [prog(r) for r in range(p)])
    return out, max(t)


def _offload_allreduce(p, vals, algorithm=None, mode="gvmi", **spec_kw):
    """``build_iallreduce``, or with ``algorithm`` that schedule
    (``schedules.allreduce_<algorithm>``) recorded directly."""
    cl = _cluster(p, **spec_kw)
    fw = OffloadFramework(cl, mode=mode)
    count = len(vals[0])
    out = {}

    def prog(rank):
        ep = fw.endpoint(rank)
        addr = ep.ctx.space.alloc_like(vals[rank])
        if algorithm is None:
            greq, _scratch = build_iallreduce(ep, addr, count * 8, comm_size=p)
        else:
            build = getattr(schedules, f"allreduce_{algorithm}")
            greq, _scratch = record_schedule(ep, build(rank, p, count * 8),
                                             base_tag=TAG_ALLREDUCE, recv_addr=addr)
        yield from ep.group_call(greq)
        yield from ep.group_wait(greq)
        out[rank] = ep.ctx.space.read_as(addr, np.float64, count).copy()
        return cl.sim.now

    t = run_procs(cl, [prog(r) for r in range(p)])
    return out, max(t)


# ----------------------------------------------------------------------
# host-MPI reference runners
# ----------------------------------------------------------------------
def _host_bcast(p, data, root=0):
    world = MpiWorld(_cluster(p))
    out = {}

    def prog(rt):
        if rt.rank == root:
            addr = rt.ctx.space.alloc_like(data)
        else:
            addr = rt.ctx.space.alloc(data.nbytes)
        yield from blocking(rt, host_coll.ibcast(rt, world.comm_world, root, addr,
                                                 data.nbytes))
        out[rt.rank] = rt.ctx.space.read_as(
            addr, np.float64, len(data)).copy()

    world.run(prog)
    return out


def _host_allreduce(p, vals):
    world = MpiWorld(_cluster(p))
    count = len(vals[0])
    out = {}

    def prog(rt):
        addr = rt.ctx.space.alloc_like(vals[rt.rank])
        yield from host_coll.allreduce(rt, world.comm_world, addr, count * 8)
        out[rt.rank] = rt.ctx.space.read_as(
            addr, np.float64, count).copy()

    world.run(prog)
    return out


# ----------------------------------------------------------------------
class TestByteIdenticalToHostMpi:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("p", SIZES)
    def test_ibcast(self, p, mode):
        data = np.arange(384, dtype=np.float64) * 5 + 1
        root = p // 2
        off, _ = _offload_bcast(p, data, root=root, mode=mode)
        host = _host_bcast(p, data, root=root)
        for r in range(p):
            assert off[r].tobytes() == host[r].tobytes(), f"rank {r}"

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("p", SIZES)
    def test_iallreduce(self, p, mode):
        vals = _contrib(p, 64)
        off, _ = _offload_allreduce(p, vals, mode=mode)
        host = _host_allreduce(p, vals)
        for r in range(p):
            assert off[r].tobytes() == host[r].tobytes(), f"rank {r}"


class TestAlgorithmsAndEdges:
    def test_auto_picks_rd_on_pow2_ring_otherwise(self):
        assert allreduce_algorithm(8) == "rd"
        assert allreduce_algorithm(6) == "ring"

    @pytest.mark.parametrize("p", [3, 5, 6])
    def test_ring_allreduce_non_pow2(self, p):
        vals = _contrib(p, 100)
        ref = np.sum(vals, axis=0)
        off, _ = _offload_allreduce(p, vals, algorithm="ring")
        for r in range(p):
            assert off[r].tobytes() == ref.tobytes(), f"rank {r}"

    @pytest.mark.parametrize("p", [5, 6])
    def test_ring_allreduce_fewer_words_than_ranks(self, p):
        # count < p leaves some ring chunks empty; the zero-byte sends
        # must be skipped symmetrically or the barrier epochs misalign.
        vals = _contrib(p, 3)
        ref = np.sum(vals, axis=0)
        off, _ = _offload_allreduce(p, vals, algorithm="ring")
        for r in range(p):
            assert off[r].tobytes() == ref.tobytes(), f"rank {r}"

    @pytest.mark.parametrize("rank", [2, 3])
    def test_rank_outside_the_communicator_is_refused(self, rank):
        """``comm_size`` names world ranks 0..comm_size-1; anything else
        used to record a pattern for the aliased rank and deadlock."""
        ep = OffloadFramework(_cluster(4)).endpoint(rank)
        addr = ep.ctx.space.alloc(64)
        with pytest.raises(OffloadError, match="outside a communicator of 2"):
            build_iallreduce(ep, addr, 16, comm_size=2)
        with pytest.raises(OffloadError, match="outside a communicator of 2"):
            build_ialltoall(ep, addr, addr, 16, comm_size=2, base_tag=0)

    def test_single_rank_collectives(self):
        data = np.arange(32, dtype=np.float64)
        off, _ = _offload_bcast(1, data)
        assert off[0].tobytes() == data.tobytes()
        off, _ = _offload_allreduce(1, [data])
        assert off[0].tobytes() == data.tobytes()


class TestFluidVsExact:
    @pytest.mark.parametrize("algorithm,nbytes", [
        ("rd", 512 * 1024),        # every round moves one >threshold flow
        ("ring", 4 * 1024 * 1024),  # per-chunk flows, 8 ranks x 512KiB
    ])
    def test_completion_time_within_rtol(self, algorithm, nbytes):
        p = 8
        vals = _contrib(p, nbytes // 8)
        ref = np.sum(vals, axis=0)
        exact, t_exact = _offload_allreduce(p, vals, algorithm=algorithm)
        fluid, t_fluid = _offload_allreduce(
            p, vals, algorithm=algorithm, nodes_per_switch=p)
        assert abs(t_fluid - t_exact) <= FLUID_RTOL * t_exact
        for r in range(p):
            assert exact[r].tobytes() == ref.tobytes()
            assert fluid[r].tobytes() == ref.tobytes()


class TestZeroHostCpuWindow:
    @pytest.mark.parametrize("builder", ["bcast", "allreduce"])
    def test_no_host_spans_inside_offloaded_window(self, builder):
        p = 4
        cl = _cluster(p)
        bus = EventBus.attach(cl)
        fw = OffloadFramework(cl)
        vals = _contrib(p, 64)

        def prog(rank):
            ep = fw.endpoint(rank)
            if builder == "bcast":
                addr = ep.ctx.space.alloc_like(vals[0])
                greq, _ = record_schedule(
                    ep, schedules.bcast_ring(rank, p, 0, vals[0].nbytes),
                    base_tag=TAG_BCAST, recv_addr=addr)
            else:
                addr = ep.ctx.space.alloc_like(vals[rank])
                greq, _ = build_iallreduce(
                    ep, addr, vals[rank].nbytes, comm_size=p)
            yield from ep.group_call(greq)
            yield from ep.group_wait(greq)
            return True

        run_procs(cl, [prog(r) for r in range(p)])
        # Every rank opened and closed a window...
        assert len(bus.select(cat="group", name="offloaded")) == p
        assert len(bus.select(cat="group", name="done")) == p
        # ...and no host lane burned CPU inside any of them (though the
        # hosts did burn CPU outside them).
        assert any(lane.startswith("host") for lane, _, _ in bus.spans())
        assert trace_violations(bus) == []
