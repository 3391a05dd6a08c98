"""Resumable campaigns: kill/resume determinism, retry, quarantine.

Covers the tentpole acceptance of the resilience work: a campaign
killed mid-run and resumed from its journal produces tables identical
(modulo wall_seconds) to an uninterrupted run; transiently-crashing
points are retried on fresh workers; persistent failures are
quarantined and the campaign exits "partial".

The subprocess tests spawn real interpreters (the ``spawn`` start
method); they are marked slow to keep the default suite fast.
"""

import glob
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.campaign import Journal, point_key
from repro.experiments.parallel import PointFailure, sweep_map

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _runall(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.runall", *args],
        env=_env(), capture_output=True, text=True, timeout=600, **kw)


def _strip_wall(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    doc.get("config", {}).pop("wall_seconds", None)
    return doc


def _strip_wall_text(table: str) -> str:
    """Tables embed the run's wall clock in the config header; it is
    the one field excluded from determinism comparisons (matching the
    CI convention of ``grep -v wall_seconds`` on the JSON snapshots)."""
    return re.sub(r"wall_seconds=[0-9.]+", "wall_seconds=X", table)


class TestRunallResume:
    def test_resume_skips_journaled_figures_identically(self, tmp_path):
        """In-process resume: pre-journal one figure, run both, and the
        merged records must be indistinguishable from a cold run."""
        from repro.experiments import runall

        cold = runall.run_selected(["fig02_rdma_latency", "fig05_registration"])
        assert all(r["error"] is None for r in cold)

        j = Journal(tmp_path, label="runall")
        # First campaign: crashes (simulated by only running fig02).
        first = runall.run_selected(["fig02_rdma_latency"], journal=j)
        assert first[0]["error"] is None
        assert len(j.keys()) == 1

        # Resumed campaign over the full selection.
        j2 = Journal(tmp_path, label="runall")
        resumed = runall.run_selected(
            ["fig02_rdma_latency", "fig05_registration"], journal=j2)
        assert j2.hits == 1  # fig02 served from the journal
        for a, b in zip(cold, resumed):
            assert a["name"] == b["name"]
            assert _strip_wall(a["fig"].to_dict()) == _strip_wall(
                b["fig"].to_dict())

    def test_journal_key_depends_on_scale(self, tmp_path):
        """A quick-scale record must never serve a paper-scale run."""
        from repro.experiments.runall import _group_key

        assert _group_key(["fig02_rdma_latency"], "quick") != \
            _group_key(["fig02_rdma_latency"], "paper")

    def test_failed_figures_are_not_journaled(self, tmp_path, monkeypatch):
        from repro.experiments import runall

        monkeypatch.setattr(
            runall, "ALL_FIGURES", ["fig99_missing", "fig05_registration"])
        j = Journal(tmp_path, label="runall")
        records = runall.run_selected(journal=j)
        by_name = {r["name"]: r for r in records}
        assert by_name["fig99_missing"]["error"] is not None
        assert by_name["fig05_registration"]["error"] is None
        # Only the successful group went durable.
        assert len(j.keys()) == 1
        assert point_key("figures", None,
                         (("fig05_registration",), "quick")) in j

    @pytest.mark.slow
    def test_sigkill_mid_campaign_then_resume_is_byte_identical(self, tmp_path):
        figs = ["fig02", "fig04", "fig05"]
        ref_dir, res_dir = tmp_path / "ref", tmp_path / "res"
        camp = tmp_path / "camp"

        ref = _runall([*figs, "--jobs", "2", "--out", str(ref_dir)])
        assert ref.returncode == 0, ref.stderr

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runall", *figs,
             "--jobs", "2", "--resume", str(camp)],
            env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 300
            while time.time() < deadline:
                if glob.glob(str(camp / "journal" / "*.json")):
                    break
                time.sleep(0.02)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        # At least one record survived the kill (maybe all, if the
        # campaign finished before the signal landed -- both are valid
        # resume scenarios).
        assert glob.glob(str(camp / "journal" / "*.json"))

        res = _runall([*figs, "--jobs", "2", "--resume", str(camp),
                       "--out", str(res_dir)])
        assert res.returncode == 0, res.stderr
        for fig in figs:
            assert _strip_wall_text((ref_dir / f"{fig}.txt").read_text()) == \
                _strip_wall_text((res_dir / f"{fig}.txt").read_text())
            a = json.loads((ref_dir / f"{fig}.json").read_text())
            b = json.loads((res_dir / f"{fig}.json").read_text())
            assert _strip_wall(a) == _strip_wall(b)


def _flaky_until(attempt_dir, fail_times, x):
    """Crash the process the first ``fail_times`` times it sees ``x``."""
    marker = os.path.join(attempt_dir, f"attempts-{x}")
    with open(marker, "a") as fh:
        fh.write("x\n")
    with open(marker) as fh:
        attempts = len(fh.readlines())
    if attempts <= fail_times:
        os._exit(42)  # hard death: exercises WorkerDied, not an exception
    return x * 10


def _always_raises(x):
    raise OSError(f"synthetic transient failure on {x}")


class TestRetryQuarantine:
    @pytest.mark.slow
    def test_worker_death_is_retried_on_fresh_worker(self, tmp_path):
        out = sweep_map(
            _flaky_until, [(str(tmp_path), 1, 3), (str(tmp_path), 0, 4)],
            jobs=2, on_error="keep", retries=2,
            label="flaky")
        assert out == [30, 40]
        # The flaky point really did die once before succeeding.
        with open(tmp_path / "attempts-3") as fh:
            assert len(fh.readlines()) == 2

    def test_exhausted_retries_quarantine_the_point(self):
        out = sweep_map(
            _always_raises, [1], jobs=1, on_error="keep",
            retries=2, label="hopeless")
        (failure,) = out
        assert isinstance(failure, PointFailure)
        assert failure.quarantined
        assert failure.attempts == 3  # 1 try + 2 retries
        assert failure.error_type == "OSError"
        d = failure.to_dict()
        assert d["quarantined"] and d["attempts"] == 3

    def test_non_transient_errors_are_not_retried(self):
        calls = []

        def bad(x):
            calls.append(x)
            raise ValueError("wrong answer, retrying will not help")

        out = sweep_map(bad, [1], jobs=1, on_error="keep",
                        retries=5, label="typed")
        assert isinstance(out[0], PointFailure)
        assert out[0].attempts == 1
        assert calls == [1]
