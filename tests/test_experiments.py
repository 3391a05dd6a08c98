"""Tests for the experiment harness plumbing and the cheap figures."""

import pytest

from repro.experiments import ALL_FIGURES
from repro.experiments.common import (
    FigureResult,
    Series,
    SimBarrier,
    fmt_size,
    improvement_pct,
)
from repro.sim import Simulator


class TestHelpers:
    def test_fmt_size(self):
        assert fmt_size(1) == "1B"
        assert fmt_size(4096) == "4.0KiB"
        assert fmt_size(1 << 20) == "1.0MiB"
        assert fmt_size(64 * 1024) == "64KiB"

    def test_improvement_pct(self):
        assert improvement_pct(100, 80) == pytest.approx(20.0)
        assert improvement_pct(100, 120) == pytest.approx(-20.0)
        assert improvement_pct(0, 10) == 0.0

    def test_series_value_at(self):
        s = Series("x", ["a", "b"], [1.0, 2.0])
        assert s.value_at("b") == 2.0


class TestFigureResult:
    def _fig(self):
        return FigureResult(
            fig_id="figX",
            title="demo",
            series=[Series("one", ["p", "q"], [1.0, 2.0], unit="us")],
        )

    def test_checks_accumulate(self):
        fig = self._fig()
        fig.check("ok", True)
        fig.check("bad", False, "detail")
        assert not fig.all_passed
        assert [c.passed for c in fig.checks] == [True, False]

    def test_render_contains_everything(self):
        fig = self._fig()
        fig.check("condition", True, "why")
        text = fig.render()
        assert "figX" in text and "one" in text
        assert "PASS" in text and "why" in text

    def test_series_by_unknown(self):
        with pytest.raises(KeyError):
            self._fig().series_by("nope")


class TestSimBarrier:
    def test_releases_all_at_last_arrival(self):
        sim = Simulator()
        barrier = SimBarrier(sim, 3)
        out = []

        def proc(sim, name, delay):
            yield sim.timeout(delay)
            yield from barrier.arrive()
            out.append((name, sim.now))

        for name, d in [("a", 1.0), ("b", 5.0), ("c", 3.0)]:
            sim.process(proc(sim, name, d))
        sim.run()
        assert all(t == 5.0 for _, t in out)

    def test_reusable_across_rounds(self):
        sim = Simulator()
        barrier = SimBarrier(sim, 2)
        trace = []

        def proc(sim, name, d):
            for r in range(2):
                yield sim.timeout(d)
                yield from barrier.arrive()
                trace.append((r, name, sim.now))

        sim.process(proc(sim, "fast", 1.0))
        sim.process(proc(sim, "slow", 4.0))
        sim.run()
        round0 = [t for r, _, t in trace if r == 0]
        round1 = [t for r, _, t in trace if r == 1]
        assert all(t == 4.0 for t in round0)
        assert all(t == 8.0 for t in round1)


class TestFigureRegistry:
    def test_every_listed_figure_module_exists_and_has_run(self):
        import importlib

        for name in ALL_FIGURES:
            mod = importlib.import_module(f"repro.experiments.{name}")
            assert callable(getattr(mod, "run"))


class TestCheapFigures:
    """The micro figures run in well under a second each; assert their
    paper-shape checks directly in the test suite."""

    def test_fig02_shape(self):
        from repro.experiments import fig02_rdma_latency

        assert fig02_rdma_latency.run().all_passed

    def test_fig03_shape(self):
        from repro.experiments import fig03_rdma_bw

        assert fig03_rdma_bw.run().all_passed

    def test_fig05_shape(self):
        from repro.experiments import fig05_registration

        assert fig05_registration.run().all_passed

    def test_fig01_shape(self):
        from repro.experiments import fig01_timeline

        assert fig01_timeline.run().all_passed


class TestRunallRobustness:
    """A crash in one figure must not abort the batch (satellite of the
    chaos-fabric work: the experiment driver degrades gracefully too)."""

    def test_crash_reported_but_batch_continues(self, monkeypatch, capsys):
        from repro.experiments import runall

        monkeypatch.setattr(
            runall, "ALL_FIGURES", ["fig99_missing", "fig05_registration"])
        rc = runall.main([])
        captured = capsys.readouterr()
        # One crash beside one pass is a *partial* campaign (exit 3),
        # distinct from wrong science (1) -- see docs/RESILIENCE.md.
        assert rc == 3
        assert "fig99_missing: CRASH" in captured.err
        assert "1/2 figure(s) failed" in captured.out
        assert "fig99_missing: crash" in captured.out
        assert "campaign partial" in captured.out
        # the healthy figure after the crash still rendered its table
        assert "fig05" in captured.out

    def test_all_good_batch_exits_zero(self, capsys):
        from repro.experiments import runall

        assert runall.main(["fig05"]) == 0
        assert "all shape checks passed" in capsys.readouterr().out

    def test_unknown_selector_exits_two(self, capsys):
        from repro.experiments import runall

        assert runall.main(["nope"]) == 2
        assert "no figures match" in capsys.readouterr().out

    def test_fluid_banner_prints_the_resolved_threshold(self, capsys):
        from repro.experiments import runall
        from repro.runconfig import DEFAULT_FLUID_THRESHOLD

        assert runall.main(["fig05", "--fluid"]) == 0
        assert (f"(threshold {DEFAULT_FLUID_THRESHOLD} bytes)"
                in capsys.readouterr().err)
        assert runall.main(["fig05", "--fluid", "--fluid-threshold", "4096"]) == 0
        assert "(threshold 4096 bytes)" in capsys.readouterr().err
