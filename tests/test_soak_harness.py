"""The ``python -m repro soak`` chaos-soak SLO harness.

Acceptance (docs/RESILIENCE.md): under an injected FaultPlan the soak
completes, checkpoints every iteration into the campaign journal, and
emits a schema-stamped SLO report whose recovery-latency histogram is
non-empty; rerunning against the same directory resumes from the
journal and reproduces the report byte-for-byte (modulo wall clock).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import soak
from repro.experiments.campaign import Journal

ROOT = Path(__file__).resolve().parent.parent


def _run(tmp_path, *extra, iters=3):
    out = tmp_path / "soak"
    rc = soak.main(["--iters", str(iters), "--out", str(out), *extra])
    report = json.loads((out / "SLO.json").read_text())
    return rc, out, report


def _strip_wall(report: dict) -> dict:
    report = dict(report)
    report.pop("wall_seconds", None)
    return report


class TestSoakHarness:
    # The pool case runs the two-worker pipe pool and its hang-watchdog
    # deadline path end to end, not only in the sweep's unit tests.
    @pytest.mark.parametrize("iters,pool", [
        (3, ()),
        (5, ("--jobs", "2", "--timeout", "300")),
    ], ids=["serial", "pool"])
    def test_soak_emits_schema_stamped_slo_report(self, tmp_path, iters, pool):
        rc, out, report = _run(tmp_path, *pool, iters=iters)
        assert rc == 0
        assert report["schema"] == soak.SOAK_SCHEMA
        assert report["iterations"] == {
            "requested": iters, "completed": iters, "quarantined": 0}
        # The default fault plan injects control drops: recovery ran,
        # and its latency histogram has real percentiles.
        rl = report["slo"]["recovery_latency"]
        assert rl["count"] > 0
        assert 0 < rl["p50"] <= rl["p95"] <= rl["p99"]
        assert report["slo"]["req_latency"]["count"] > 0
        assert report["fault_stats"]["drops"] > 0
        assert report["counters"]["retransmits"] > 0
        assert report["slo"]["retries_per_point"] > 0

    def test_fault_free_soak_observes_no_recoveries(self, tmp_path):
        rc, out, report = _run(tmp_path, "--drop", "0", "--error-cqe", "0")
        assert rc == 0
        assert report["slo"]["recovery_latency"] == {"count": 0}
        assert report["fault_stats"]["drops"] == 0
        assert report["slo"]["req_latency"]["count"] > 0

    def test_rerun_resumes_from_journal_and_reproduces_report(self, tmp_path):
        rc1, out, first = _run(tmp_path)
        assert rc1 == 0
        j = Journal(out, label="soak")
        assert len(j.keys()) == 3  # one checkpoint per iteration

        rc2, _, second = _run(tmp_path)
        assert rc2 == 0
        assert _strip_wall(first) == _strip_wall(second)

    def test_partial_journal_runs_only_missing_iterations(self, tmp_path):
        rc1, out, _ = _run(tmp_path)
        assert rc1 == 0
        # Damage one checkpoint: the rerun must recompute exactly that
        # iteration and converge on the same report.
        j = Journal(out, label="soak")
        victim = j.keys()[0]
        (j.dir / f"{victim}.json").write_text("garbage")
        rc2, _, report = _run(tmp_path)
        assert rc2 == 0
        assert report["iterations"]["completed"] == 3
        assert Journal(out, label="soak").keys().count(victim) == 1

    def test_iterations_are_seed_deterministic(self, tmp_path):
        _, _, a = _run(tmp_path / "a")
        _, _, b = _run(tmp_path / "b")
        assert _strip_wall(a) == _strip_wall(b)
        _, _, c = _run(tmp_path / "c", "--seed", "99")
        assert _strip_wall(c) != _strip_wall(a)

    def test_config_echoed_into_report(self, tmp_path):
        _, _, report = _run(tmp_path, "--drop", "0.1", "--seed", "5")
        assert report["config"]["drop_prob"] == 0.1
        assert report["config"]["seed"] == 5
        assert report["config"]["scale"] == "quick"
        assert report["config"]["nodes"] == 2
        assert report["config"]["nodes_per_switch"] == 0


class TestSoakTopologyKnobs:
    def test_ring_scales_to_many_ranks(self, tmp_path):
        rc, _, report = _run(tmp_path, "--nodes", "4", "--ppn", "2")
        assert rc == 0
        assert report["iterations"]["completed"] == 3
        assert report["config"] == {**report["config"],
                                    "nodes": 4, "ppn": 2, "proxies": 1}
        # 8 ranks x 12 rounds x (send + recv) per iteration.
        assert report["counters"]["completions"] == 3 * 8 * 12 * 2
        assert report["slo"]["recovery_latency"]["count"] > 0

    def test_shape_extends_the_journal_key(self, tmp_path):
        """Different topologies never collide in one journal directory."""
        out = tmp_path / "soak"
        rc1 = soak.main(["--iters", "2", "--out", str(out)])
        rc2 = soak.main(["--iters", "2", "--out", str(out), "--nodes", "4"])
        assert rc1 == rc2 == 0
        j = Journal(out, label="soak")
        assert len(j.keys()) == 4  # two distinct shapes, two iters each

    def test_multi_proxy_topology(self, tmp_path):
        rc, _, report = _run(tmp_path, "--nodes", "2", "--ppn", "2",
                             "--proxies", "2")
        assert rc == 0
        assert report["iterations"]["completed"] == 3


class TestSoakFluidMode:
    def test_fluid_soak_rides_the_flow_engine(self, tmp_path):
        rc, _, report = _run(tmp_path, "--nodes-per-switch", "4",
                             "--nodes", "4")
        assert rc == 0
        assert report["config"]["nodes_per_switch"] == 4
        assert report["config"]["flow_drop_prob"] > 0
        # Every exchange is at the pinned threshold: flows were real.
        assert report["counters"]["flows"] > 0
        assert report["counters"]["flow_cqes"] > 0
        # The flow fates bit and were recovered from.
        assert report["fault_stats"]["flow_drops"] > 0
        assert report["counters"]["flow_drops"] == \
            report["counters"]["flow_retries"]
        assert report["slo"]["recovery_latency"]["count"] > 0

    def test_fluid_soak_is_deterministic(self, tmp_path):
        _, _, a = _run(tmp_path / "a", "--nodes-per-switch", "4",
                       "--nodes", "4")
        _, _, b = _run(tmp_path / "b", "--nodes-per-switch", "4",
                       "--nodes", "4")
        assert _strip_wall(a) == _strip_wall(b)

    def test_fluid_and_exact_share_a_journal_without_collision(self, tmp_path):
        out = tmp_path / "soak"
        assert soak.main(["--iters", "2", "--out", str(out)]) == 0
        assert soak.main(["--iters", "2", "--out", str(out),
                          "--nodes-per-switch", "2"]) == 0
        assert len(Journal(out, label="soak").keys()) == 4

    def test_flow_drop_zero_disables_flow_fates(self, tmp_path):
        rc, _, report = _run(tmp_path, "--nodes-per-switch", "2",
                             "--flow-drop", "0")
        assert rc == 0
        assert report["fault_stats"]["flow_drops"] == 0
        assert report["counters"]["flows"] > 0

    def test_cross_spine_soak_at_64_nodes(self, tmp_path):
        """64 nodes, 8 per leaf: flow faults also cross spine links.
        Two same-seed runs, each its own interpreter, recover and give
        the same report outside ``wall_seconds``."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        reports = []
        for run in ("a", "b"):
            out = tmp_path / run
            subprocess.run(
                [sys.executable, "-m", "repro", "soak", "--nodes", "64",
                 "--nodes-per-switch", "8", "--iters", "5", "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=600)
            reports.append(json.loads((out / "SLO.json").read_text()))
        a, b = reports
        assert a["schema"] == "repro.soak/1", a["schema"]
        assert a["config"]["nodes_per_switch"] == 8
        assert a["iterations"]["quarantined"] == 0
        rl = a["slo"]["recovery_latency"]
        assert rl["count"] > 0, "no recoveries observed under faults"
        assert a["counters"]["flows"] > 0, "nothing rode the flow engine"
        assert a["fault_stats"]["flow_drops"] > 0, "no flow fates fired"
        assert a["counters"]["flow_drops"] == a["counters"]["flow_retries"]
        assert _strip_wall(a) == _strip_wall(b), \
            "same-seed fat-tree soak reports diverged"
