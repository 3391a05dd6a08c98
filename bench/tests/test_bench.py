"""Checks of the benchmark itself, at ``--smoke`` scale (about 20 s).

Run with ``python -m pytest bench/tests -q`` from the repo root; tier-1
(``testpaths = tests``) does not collect this file.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
from bench import ledger, workloads  # noqa: E402


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], cwd=ROOT, text=True,
                          capture_output=True, timeout=300)


def result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced and one untraced smoke run of every workload, the
    alltoall points checked against a freshly recorded reference."""
    tmp = tmp_path_factory.mktemp("bench")
    refs = tmp / "reference"
    common = ["--smoke", "--reference-dir", str(refs)]
    rec = run_bench(*common, "--record-reference", "--workload",
                    "alltoall_dense_exact", "--out", str(tmp / "rec"))
    assert rec.returncode == 0, rec.stderr
    traced = run_bench(*common, "--repeats", "1", "--trace", "--out", str(tmp / "a"))
    plain = run_bench(*common, "--repeats", "1", "--out", str(tmp / "b"))
    assert traced.returncode == 0, traced.stdout + traced.stderr
    assert plain.returncode == 0, plain.stdout + plain.stderr

    def docs(out):
        return {w: json.loads((tmp / out / f"bench_{w}.json").read_text())
                for w in WORKLOADS}

    return {"tmp": tmp, "refs": refs, "traced": traced, "plain": plain,
            "traced_docs": docs("a"), "plain_docs": docs("b")}


def test_declared_names_follow_the_contract():
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    assert all(unit_re.match(m["unit"])
               for m in DECLARED["end_to_end"] + DECLARED["per_layer"])
    assert len(DECLARED["per_layer"]) <= 128
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in DECLARED["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in DECLARED["workloads"])


def test_declared_names_equal_the_code():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert [w["why"] for w in DECLARED["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] \
        == ledger.LAYER_METRICS
    listed = run_bench("--list")
    assert [line.split()[0] for line in listed.stdout.splitlines()] == WORKLOADS


def test_printed_names_equal_the_declared(smoke):
    e2e = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    for run, declared in ((smoke["plain"], e2e), (smoke["traced"], layer)):
        lines = result_lines(run.stdout)
        assert len(lines) == len(WORKLOADS)
        for line in lines:
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0
            assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
            assert all(isinstance(v["value"], (int, float))
                       for v in line["metrics"].values())
    for line in result_lines(smoke["plain"].stdout):
        assert all(v["value"] != 0 for v in line["metrics"].values())
    for w in WORKLOADS:
        assert re.search(rf"^== {w} ", smoke["plain"].stdout, re.M)
        assert set(smoke["traced_docs"][w]["layers"]) == set(layer)


def test_simulated_results_repeat_exactly(smoke):
    """Across two runs, and (checked by the child, which fails the
    workload otherwise) between the untraced and the traced pass."""
    deterministic = [n for n, _u, _b in ledger.DETERMINISTIC]
    for w in WORKLOADS:
        a, b = smoke["traced_docs"][w], smoke["plain_docs"][w]
        assert a["points_failed"] == b["points_failed"] == 0, a["failures"]
        assert a["sim_digest"] == b["sim_digest"]
        assert {k: a["layers"][k] for k in deterministic} \
            == {k: b["layers"][k] for k in deterministic}
    assert smoke["traced_docs"]["alltoall_dense_exact"]["reference"] == "exact engine"
    assert smoke["traced_docs"]["hpl_lookahead_exact"]["reference"] == "self"


def test_traced_pass_fills_the_ledger(smoke):
    for w in WORKLOADS:
        layers = smoke["traced_docs"][w]["layers"]
        assert layers["trace_overhead_pct"] is not None
        assert layers["sim.core.run_s"] > 0
        assert layers["sim.core.events"] > 0
        assert sum(v for k, v in layers.items() if k.endswith(".self_s")) > 0
    observed = smoke["traced_docs"]["scatter_observed"]["layers"]
    assert observed["obs.slowdown_x"] > 1 and observed["obs.extra_events"] > 0
    assert observed["obs.bus_events"] > 0 and observed["obs.check_s"] > 0
    assert observed["offload.api.send_offload.sim_us"] > 0
    fat = smoke["traced_docs"]["fattree_bulk_fluid"]["layers"]
    assert fat["sim.flows.solve_calls"] > 0 and fat["sim.flows.recomputes_per_flow"] > 0
    assert fat["offload.api.ctrl_msgs_per_op"] is None  # no offload requests here


def test_span_trees_are_well_formed(smoke):
    for w in WORKLOADS:
        trace = json.loads((smoke["tmp"] / "a" / f"trace_{w}.json").read_text())
        events = trace["traceEvents"]
        assert events and trace["metadata"]["spans_recorded"] >= len(events)
        for i, ev in enumerate(events):
            parent = ev["args"]["parent"]
            assert ev["dur"] >= 0
            if parent < 0:
                continue
            assert parent < i
            outer = events[parent]
            assert outer["tid"] == ev["tid"]
            assert outer["ts"] <= ev["ts"] + 1e-3
            assert ev["ts"] + ev["dur"] <= outer["ts"] + outer["dur"] + 1e-3
        for name, total in trace["metadata"]["span_totals"].items():
            assert -1e-9 <= total["self_s"] <= total["total_s"] + 1e-9, name


def test_perturbed_reference_fails_the_run(smoke):
    bad = smoke["tmp"] / "bad_reference"
    bad.mkdir()
    ref = json.loads((smoke["refs"] / "alltoall_dense_exact.json").read_text())
    first = next(iter(ref["points"].values()))
    first["overall_us"] *= 1.0 + 1e-6
    (bad / "alltoall_dense_exact.json").write_text(json.dumps(ref))
    run = run_bench("--smoke", "--repeats", "1", "--workload", "alltoall_dense_exact",
                    "--reference-dir", str(bad), "--out", str(smoke["tmp"] / "c"))
    assert run.returncode != 0
    (line,) = result_lines(run.stdout)
    assert line["correct"] is False and line["failed"] == 1


@pytest.mark.parametrize("workload, figure", [
    ("alltoall_dense_exact", "fig13"), ("hpl_lookahead_exact", "fig17")])
def test_committed_reference_equals_the_committed_figure(workload, figure):
    """The benchmark runs the program that makes the tables."""
    results = ROOT / "results" / f"{figure}.json"
    if not results.exists():
        pytest.skip(f"{results} not in this checkout")
    series = {s["label"]: s["y"] for s in json.loads(results.read_text())["series"]}
    ref = json.loads((ROOT / "bench" / "reference" / f"{workload}.json").read_text())
    grid = workloads.load_grid(workload)
    pts = ref["points"]
    if figure == "fig13":
        labels = {"intelmpi": "IntelMPI", "bluesmpi": "BluesMPI", "proposed": "Proposed"}
        for flavor, label in labels.items():
            ours = [pts[f"{n}n/{flavor}/{b}"]["overall_us"]
                    for n in grid["nodes"] for b in grid["blocks"]]
            assert ours == pytest.approx(series[label], rel=1e-9)
    else:
        for label, _flavor, _bcast in grid["variants"]:
            ours = [pts[f"{int(f * 100)}%/{label}"]["total_us"]
                    / pts[f"{int(f * 100)}%/IntelMPI-1ring"]["total_us"]
                    for f in grid["fractions"]]
            assert ours == pytest.approx(series[label], rel=1e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=60)
    assert run.returncode != 0
    assert not result_lines(run.stdout)
