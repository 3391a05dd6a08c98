"""Remaining small surfaces: render edges, single-rank collectives, misc APIs."""

import pytest

from tests.helpers import blocking
from repro.apps.harness import mean
from repro.baselines import make_stack
from repro.experiments.common import FigureResult, Series
from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld
from repro.mpi import collectives as coll


class TestHarnessMean:
    def test_empty_is_zero(self):
        assert mean([]) == 0.0

    def test_plain_average(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)


class TestFigureRender:
    def test_no_series_renders_header_and_checks(self):
        fig = FigureResult(fig_id="f", title="t")
        fig.check("x", True)
        text = fig.render()
        assert "f" in text and "[PASS] x" in text

    def test_ragged_series_render_nan_pads(self):
        fig = FigureResult(
            fig_id="f", title="t",
            series=[Series("a", ["p", "q"], [1.0, 2.0]),
                    Series("b", ["p", "q"], [3.0])],
        )
        assert "nan" in fig.render()

    def test_notes_rendered(self):
        fig = FigureResult(fig_id="f", title="t", notes="something important")
        assert "something important" in fig.render()


class TestSingleRankDegenerates:
    def test_bcast_alone(self):
        world = MpiWorld(Cluster(ClusterSpec(nodes=1, ppn=1)))

        def program(rt):
            cw = world.comm_world
            addr = rt.ctx.space.alloc(64, fill=5)
            yield from blocking(rt, coll.ibcast(rt, cw, 0, addr, 64))
            yield from blocking(rt, coll.ibarrier(rt, cw))
            return True

        assert world.run(program) == [True]

    def test_alltoall_alone_is_a_memcpy(self):
        world = MpiWorld(Cluster(ClusterSpec(nodes=1, ppn=1)))

        def program(rt):
            cw = world.comm_world
            sa = rt.ctx.space.alloc(128, fill=9)
            ra = rt.ctx.space.alloc(128)
            yield from blocking(rt, coll.ialltoall(rt, cw, sa, ra, 128))
            assert (rt.ctx.space.read(ra, 128) == 9).all()
            return True

        assert world.run(program) == [True]


class TestBackendBarrierTiming:
    def test_barrier_time_counts_as_comm(self):
        stack = make_stack("intelmpi", ClusterSpec(nodes=2, ppn=1))

        def program(be):
            yield from be.barrier(be.stack.comm_world)
            return be.time_in_comm

        times = stack.run(program)
        assert all(t > 0 for t in times)
