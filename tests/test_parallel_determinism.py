"""Serial == parallel: the sweep engine may change only the wall clock.

The parallel engine's correctness claim is that running a campaign's
sweep points across worker processes changes *nothing* observable:
``to_dict()`` payloads, rendered tables, and peak-memory metrics are
byte-identical for every job count and every figure selection.  These
tests pin that claim on fig15 (multi-variant cluster sweep), fig05
(single-cluster size sweep) and the shared application sweeps of
figs 11-14, and pin the crash-isolation semantics.

Point functions handed to worker processes must be module-level (the
spawn start method pickles them by reference), hence the top-level
helpers below.
"""

from __future__ import annotations

import importlib
import os
import re

import pytest

from repro.experiments import appruns, fig05_registration
from repro.experiments.common import Sweep, canonical_json
from repro.experiments.parallel import PointFailure, SweepError, sweep_map
from repro.experiments.runall import run_selected


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


def _strip_wall_text(table: str) -> str:
    return re.sub(r"wall_seconds=[0-9.]+", "wall_seconds=X", table)


# ---------------------------------------------------------------------------
# figure-level determinism
# ---------------------------------------------------------------------------

def _peak(records, name):
    (fig,) = [r["fig"] for r in records if r["name"] == name]
    return fig.metrics["peak_resident_bytes"]


@pytest.mark.parametrize("name", ["fig05_registration", "fig15_group_vs_simple"],
                         ids=["fig05", "fig15"])
def test_figure_identical_across_job_counts(name):
    """The whole payload -- series, checks, metrics and the
    peak_resident_bytes max-merged from the points' watermarks -- and
    the rendered table are the same for every job count."""
    (serial,) = run_selected([name], jobs=1)
    assert serial["fig"].metrics["peak_resident_bytes"]["host"] > 0
    for jobs in (2, 4):
        (record,) = run_selected([name], jobs=jobs)
        assert canonical_json(record["fig"].to_dict()) == \
            canonical_json(serial["fig"].to_dict()), f"{name} drifted at jobs={jobs}"
        assert _strip_wall_text(record["fig"].render()) == \
            _strip_wall_text(serial["fig"].render())


def test_run_one_metrics_identical_across_job_counts():
    """A one-figure campaign's full payload -- including the
    peak_resident_bytes watermark merged back from the workers --
    matches the serial run, and neither run records an error."""
    (serial,) = run_selected(["fig15_group_vs_simple"], jobs=1)
    assert serial["error"] is None
    assert serial["fig"].metrics["peak_resident_bytes"]["host"] > 0
    (record,) = run_selected(["fig15_group_vs_simple"], jobs=2)
    assert record["error"] is None
    assert canonical_json(record["fig"].to_dict()) == \
        canonical_json(serial["fig"].to_dict())


def test_runall_figure_sharding_identical():
    """Two figures' points spread over two workers merge, in figure
    order, to payloads identical to the serial campaign."""
    names = ["fig02_rdma_latency", "fig05_registration"]
    serial = run_selected(names, jobs=1)
    sharded = run_selected(names, jobs=2)
    assert [r["name"] for r in serial] == [r["name"] for r in sharded] == names
    for s, p in zip(serial, sharded):
        assert s["error"] is None and p["error"] is None
        assert canonical_json(s["fig"].to_dict()) == \
            canonical_json(p["fig"].to_dict())


@pytest.mark.parametrize("pair", [
    ("fig11_stencil_time", "fig12_stencil_overlap"),
    ("fig13_ialltoall", "fig14_ialltoall_overlap"),
], ids=["fig11-fig12", "fig13-fig14"])
def test_shared_sweep_peak_does_not_depend_on_the_figure_before(pair):
    """A figure's peak_resident_bytes is its own points' watermark,
    whether or not the figure sharing its sweep ran first."""
    first, second = pair
    alone = _peak(run_selected([second], jobs=2), second)
    assert alone["host"] > 0
    both = run_selected([first, second], jobs=2)
    assert _peak(both, second) == alone == _peak(both, first)


def test_a_shared_sweep_runs_once_per_campaign():
    """fig11 and fig12 declare the same stencil sweep: a campaign over
    both starts each of its points once, and hands each figure exactly
    what the figure's own serial ``run(scale)`` builds."""
    events = []
    records = run_selected(["fig11_stencil_time", "fig12_stencil_overlap"],
                           jobs=2, progress=events.append)
    starts = sorted(e["index"] for e in events
                    if e["event"] == "start" and e["label"] == "stencil")
    assert starts == list(range(len(appruns.stencil_sweeps("quick")[0].points)))
    for record in records:
        alone = importlib.import_module(f"repro.experiments.{record['name']}").run()
        campaign = record["fig"].to_dict()
        assert campaign["metrics"].pop("peak_resident_bytes")["host"] > 0
        assert canonical_json(campaign) == canonical_json(alone.to_dict())


def test_one_label_naming_two_functions_is_refused(monkeypatch):
    monkeypatch.setattr(fig05_registration, "sweeps", lambda scale: [
        Sweep("fig02", abs, [(1,)])])
    with pytest.raises(ValueError, match="'fig02' names two functions"):
        run_selected(["fig02_rdma_latency", "fig05_registration"])


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
