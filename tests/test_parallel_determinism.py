"""Serial == parallel: the sweep engine may change only the wall clock.

The parallel engine's correctness claim is that running a figure's
sweep points (or whole figures) across worker processes changes
*nothing* observable: ``to_dict()`` payloads, rendered tables, and
peak-memory metrics are byte-identical for every job count.  These
tests pin that claim on the two figures the issue names (fig15 --
multi-variant cluster sweep; fig05 -- single-cluster size sweep) and on
the crash-isolation semantics.

Point functions handed to worker processes must be module-level (the
spawn start method pickles them by reference), hence the top-level
helpers below.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import fig05_registration, fig15_group_vs_simple
from repro.experiments.common import canonical_json
from repro.experiments.parallel import PointFailure, SweepError, sweep_map
from repro.experiments.runall import run_one, run_selected


# ---------------------------------------------------------------------------
# helpers (top-level: spawn workers import them by qualified name)
# ---------------------------------------------------------------------------

def _times_ten(x):
    return x * 10


def _boom_at_three(x):
    if x == 3:
        raise ValueError(f"injected crash at point {x}")
    return x * 10


def _hard_exit_at_one(x):
    if x == 1:
        os._exit(23)  # simulates a segfaulting worker: no exception, no result
    return x * 10


# ---------------------------------------------------------------------------
# figure-level determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module", [fig05_registration, fig15_group_vs_simple],
                         ids=["fig05", "fig15"])
def test_figure_identical_across_job_counts(module, run_config):
    serial_fig = module.run(scale="quick")
    serial_json = canonical_json(serial_fig.to_dict())
    serial_table = serial_fig.render()
    for jobs in (2, 4):
        run_config(jobs=jobs)
        fig = module.run(scale="quick")
        assert canonical_json(fig.to_dict()) == serial_json, (
            f"{module.__name__}: to_dict() drifted at jobs={jobs}"
        )
        assert fig.render() == serial_table, (
            f"{module.__name__}: rendered table drifted at jobs={jobs}"
        )


def test_run_one_metrics_identical_across_job_counts(run_config):
    """run_one's full payload -- including the peak_resident_bytes
    watermark merged back from the workers -- matches the serial run."""
    fig, exc = run_one("fig15_group_vs_simple")
    assert exc is None
    serial = canonical_json(fig.to_dict())
    assert fig.metrics["peak_resident_bytes"]["host"] > 0
    run_config(jobs=2)
    fig2, exc = run_one("fig15_group_vs_simple")
    assert exc is None
    assert canonical_json(fig2.to_dict()) == serial


def test_runall_figure_sharding_identical():
    """Whole-figure sharding (runall --jobs N) merges in figure order
    with payloads identical to the serial batch."""
    names = ["fig02_rdma_latency", "fig05_registration"]
    serial = run_selected(names, jobs=1)
    sharded = run_selected(names, jobs=2)
    assert [r["name"] for r in serial] == [r["name"] for r in sharded] == names
    for s, p in zip(serial, sharded):
        assert s["error"] is None and p["error"] is None
        assert canonical_json(s["fig"].to_dict()) == \
            canonical_json(p["fig"].to_dict())


# ---------------------------------------------------------------------------
# crash isolation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_injected_crash_yields_point_failure(jobs):
    """A crashing point surfaces as a PointFailure in its slot; the
    neighbouring points are bit-exact against a clean run."""
    points = list(range(6))
    clean = sweep_map(_times_ten, points, jobs=1)
    got = sweep_map(_boom_at_three, points, jobs=jobs, on_error="keep")
    assert len(got) == len(points)
    failure = got[3]
    assert isinstance(failure, PointFailure)
    assert failure.index == 3
    assert failure.error_type == "ValueError"
    assert "injected crash" in failure.message
    for i, value in enumerate(got):
        if i != 3:
            assert value == clean[i], f"neighbour point {i} corrupted"


def test_injected_crash_raises_sweep_error_by_default():
    with pytest.raises(SweepError) as info:
        sweep_map(_boom_at_three, list(range(6)), jobs=2)
    assert info.value.failures[0].index == 3
    assert "injected crash" in str(info.value)


def test_serial_raise_preserves_original_exception():
    with pytest.raises(ValueError, match="injected crash"):
        sweep_map(_boom_at_three, list(range(6)), jobs=1)


def test_hard_worker_death_is_isolated():
    """A worker that dies without raising (os._exit) becomes a
    structured WorkerDied failure; other points still complete."""
    points = list(range(4))
    got = sweep_map(_hard_exit_at_one, points, jobs=2, on_error="keep")
    assert len(got) == len(points)
    dead = [r for r in got if isinstance(r, PointFailure)]
    assert dead, "worker death was not surfaced"
    assert all(r.error_type == "WorkerDied" for r in dead)
    # Point 1 is necessarily among the casualties; survivors are exact.
    assert isinstance(got[1], PointFailure)
    for i, value in enumerate(got):
        if not isinstance(value, PointFailure):
            assert value == i * 10


def test_figure_crash_in_sharded_runall_keeps_going():
    """A figure that crashes inside a worker reports like a serial
    crash (keep-going semantics) and leaves its neighbours intact."""
    names = ["fig05_registration", "fig99_does_not_exist"]
    serial = run_selected(names, jobs=1)
    sharded = run_selected(names, jobs=2)
    for records in (serial, sharded):
        by_name = {r["name"]: r for r in records}
        assert by_name["fig05_registration"]["error"] is None
        assert by_name["fig99_does_not_exist"]["fig"] is None
        assert "ModuleNotFoundError" in by_name["fig99_does_not_exist"]["error"]
    assert canonical_json(serial[0]["fig"].to_dict()) == \
        canonical_json(sharded[0]["fig"].to_dict())
