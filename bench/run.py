#!/usr/bin/env python3
"""The repo benchmark: five regime workloads, end to end and by layer.

    python3 bench/run.py                      every workload, 3 repeats each
    python3 bench/run.py --trace              ... plus the traced pass
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                              one run, as the driver calls it

Each workload runs in one fresh child interpreter (``bench/child.py``)
with every ``REPRO_*`` variable removed, so ambient engine or sharding
settings cannot change what is measured.  Names, units, bounds and the
reason for each workload are declared in ``BENCHMARK.json``;
``bench/README.md`` says how to read the output.

The last line of standard output for each workload is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics without ``--trace``, the per-layer metrics with it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in DECLARED["workloads"]]

#: Fresh interpreters started per run only to time start-up (import of
#: numpy, repro and the benchmark), so ``setup_s`` rests on a median.
#: None at ``--smoke`` scale, where the measuring child's own start-up
#: is the only sample.
STARTUP_PROBES = 3
CHILD_TIMEOUT_S = 600


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_child(args: list[str]) -> dict:
    """Run ``bench.child`` to completion and return the JSON document on
    its last output line.  The child's exit is always waited for."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench.child", "--t-spawn", repr(time.time()), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"bench.child {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def machine_stamp() -> dict:
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], text=True,
                                  capture_output=True).stdout.strip()
        commit = git("rev-parse", "HEAD") or "unknown"
        dirty = bool(git("status", "--porcelain"))
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit, "dirty_tree": dirty,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": cpu,
        "written": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def child_args(name: str, opts) -> list[str]:
    args = ["--workload", name, "--seed", str(opts.seed),
            "--reference-dir", str(opts.reference_dir), "--out", str(opts.out)]
    if opts.smoke:
        args.append("--smoke")
    return args


def run_workload(name: str, opts) -> dict:
    """One workload: start-up probes, the measuring child, the stamped
    document (also written to ``<out>/bench_<name>.json``)."""
    common = child_args(name, opts)
    stamp = machine_stamp()
    startup = [spawn_child([*common, "--import-only"])["startup_s"]
               for _ in range(0 if opts.smoke else STARTUP_PROBES)]
    args = list(common)
    if opts.repeats:
        args += ["--repeats", str(opts.repeats)]
    else:
        args += ["--seconds", str(opts.seconds)]
    if opts.trace:
        args += ["--trace", "--stamp", json.dumps(stamp)]
    doc = spawn_child(args)
    startup.append(doc.pop("startup_s"))
    e2e = doc["end_to_end"]
    build = e2e.pop("build_s")
    e2e["setup_s"] = {
        "value": statistics.median(startup) + build["value"],
        "startup_s": {"value": statistics.median(startup), "min": min(startup),
                      "max": max(startup), "samples": len(startup)},
        "build_s": build,
    }
    doc["stamp"] = {**stamp, "numpy": doc.pop("numpy"),
                    "seed": opts.seed, "repeats": doc["repeats"],
                    "engine": doc["engine"]}
    opts.out.mkdir(parents=True, exist_ok=True)
    (opts.out / f"bench_{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def driver_line(doc: dict, traced: bool) -> str:
    """The one-object result line of the benchmark contract.  Values are
    numbers there: a layer metric that does not apply to the workload
    (``null`` in the document) reads 0."""
    if traced:
        metrics = {m["name"]: {"value": doc["layers"][m["name"]] or 0,
                               "unit": m["unit"]}
                   for m in DECLARED["per_layer"]}
    else:
        metrics = {m["name"]: {"value": doc["end_to_end"][m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in DECLARED["end_to_end"]}
    return json.dumps({
        "correct": doc["points_failed"] == 0,
        "attempted": doc["points_attempted"],
        "failed": min(doc["points_failed"], doc["points_attempted"]),
        "metrics": metrics,
    })


def print_report(doc: dict, traced: bool) -> None:
    units = {m["name"]: m["unit"] for m in
             DECLARED["end_to_end"] + DECLARED["per_layer"]}
    print(f"== {doc['workload']}  [{doc['engine']}; seed {doc['seed']}; "
          f"{doc['scale']} scale; reference: {doc['reference']}]")
    print(f"   {doc['why']}")
    print(f"   points {doc['points_attempted']} attempted, "
          f"{doc['points_failed']} failed; sim_digest {doc['sim_digest'][:16]}")
    for pid, why in doc["failures"].items():
        print(f"   FAILED {pid}: {why}")
    for name, m in doc["end_to_end"].items():
        spread = m.get("build_s", m)  # setup_s shows its build phases' spread
        note = ""
        if "samples" in spread:
            note = (f"  (min {spread['min']:.4g}, max {spread['max']:.4g}, "
                    f"n={spread['samples']}"
                    f"{' build phases' if spread is not m else ''})")
        print(f"   {name:<16s}{m['value']:>14.4f} {units[name]:<5s}{note}")
    if not traced:
        return
    self_total = sum(v for k, v in doc["layers"].items() if k.endswith(".self_s"))
    print(f"   {'layer metric':<42s}{'value':>16s}  unit")
    for name, value in doc["layers"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        share = (f"  {100.0 * value / self_total:5.1f}% of self time"
                 if name.endswith(".self_s") and self_total else "")
        print(f"   {name:<42s}{shown:>16s}  {units[name]}{share}")
    print(f"   spans: {doc['trace_file']}")


def run_set(names: list[str], opts) -> list[dict]:
    docs = []
    for name in names:
        doc = run_workload(name, opts)
        docs.append(doc)
        if not opts.json:
            print_report(doc, opts.trace)
        print(driver_line(doc, opts.trace), flush=True)
    return docs


def record_references(names: list[str], opts) -> int:
    for name in names:
        ref = spawn_child([*child_args(name, opts), "--record-reference"])
        ref["stamp"] = machine_stamp()
        opts.reference_dir.mkdir(parents=True, exist_ok=True)
        path = opts.reference_dir / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"recorded {len(ref['points'])} points of {name} in {path}")
    return 0


def calibrate(names: list[str], opts) -> int:
    """Two sets of ``--calibrate-runs`` runs per workload, one seed per
    run (the same seeds in both sets).  Per workload and end-to-end
    metric: each set's median and quartile spread, and the gap between
    the medians, against the metric's bound in BENCHMARK.json."""
    bounds = {m["name"]: m for m in DECLARED["end_to_end"]}
    sets: list[dict[str, list[dict]]] = []
    for _ in range(2):
        docs: dict[str, list[dict]] = {n: [] for n in names}
        for i in range(opts.calibrate_runs):
            for name in names:
                run_opts = argparse.Namespace(**{**vars(opts), "seed": opts.seed + i})
                docs[name].append(run_workload(name, run_opts))
        sets.append(docs)

    stamp = machine_stamp()
    lines = [
        "# Calibration", "",
        f"`python3 bench/run.py --calibrate --calibrate-runs {opts.calibrate_runs}"
        f" --seconds {opts.seconds:g}`: two sets of {opts.calibrate_runs} runs per"
        f" workload, seeds {opts.seed}..{opts.seed + opts.calibrate_runs - 1}.",
        "", "| stamp | |", "|---|---|",
        *[f"| {k} | {v} |" for k, v in stamp.items()], "",
        "spread = (Q3 - Q1) / median over a set's runs; gap = how much worse the"
        " second set's median is than the first's; both as a share, against the"
        " metric's bound.", "",
        "| workload | metric | median 1 | median 2 | gap | spread 1 | spread 2 |"
        " min..max | bound | |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    ok = True
    for name in names:
        for metric, decl in bounds.items():
            a, b = ([d["end_to_end"][metric]["value"] for d in docs[name]]
                    for docs in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = (med_b - med_a) / med_a
            if decl["better"] == "higher":
                gap = -gap
            spreads = []
            for values in (a, b):
                q1, _q2, q3 = statistics.quantiles(values, n=4)
                spreads.append((q3 - q1) / statistics.median(values))
            bound = decl["bound"]
            verdict = "ok"
            if gap > bound or (metric != "setup_s" and max(spreads) > bound):
                verdict, ok = "OVER BOUND", False
            elif metric != "setup_s" and max(spreads) > bound / 3:
                verdict = "spread above a third of the bound"
            lines.append(
                f"| {name} | {metric} | {med_a:.4f} | {med_b:.4f} | {gap:+.2%} |"
                f" {spreads[0]:.2%} | {spreads[1]:.2%} |"
                f" {min(a + b):.4f}..{max(a + b):.4f} | {bound:.2%} | {verdict} |")
    counts = deterministic_layer_names()
    same = all(
        x["sim_digest"] == y["sim_digest"]
        and all(x["layers"][k] == y["layers"][k] for k in counts)
        for name in names for x, y in zip(sets[0][name], sets[1][name]))
    lines += ["", "Deterministic layer counts and `sim_digest` of every run "
              + ("are identical between the two sets." if same
                 else "DIFFER between the two sets.")]
    failed = sum(d["points_failed"] for docs in sets for ds in docs.values() for d in ds)
    lines += [f"Points failed over all {2 * opts.calibrate_runs * len(names)} runs: {failed}.", ""]
    text = "\n".join(lines)
    opts.out.mkdir(parents=True, exist_ok=True)
    (opts.out / "CALIBRATION.md").write_text(text)
    print(text)
    return 0 if ok and same and not failed else 1


def deterministic_layer_names() -> list[str]:
    # Declared beside the code that reads them; importing it needs repro,
    # which the parent otherwise never loads.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.ledger import DETERMINISTIC
    return [name for name, _unit, _better in DETERMINISTIC]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--list", action="store_true", help="list workloads and exit")
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                    help="run only this workload (repeatable)")
    ap.add_argument("--repeats", type=int, default=0,
                    help="in-process repeats per workload (default 3 unless --seconds)")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="repeat until the run phases add up to this long")
    ap.add_argument("--seed", type=int, default=20230515,
                    help="seed of the generated inputs (fattree_bulk_fluid's plan)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="add the traced pass and report the per-layer ledger")
    ap.add_argument("--out", type=Path, default=BENCH / "out")
    ap.add_argument("--json", action="store_true", help="machine output only")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids (for bench/tests; not comparable)")
    ap.add_argument("--reference-dir", type=Path, default=BENCH / "reference")
    ap.add_argument("--record-reference", action="store_true",
                    help="re-record bench/reference/<workload>.json")
    ap.add_argument("--calibrate", action="store_true",
                    help="two sets of runs; check spreads and gaps against the bounds")
    ap.add_argument("--calibrate-runs", type=int, default=10)
    opts = ap.parse_args()
    opts.out = opts.out.resolve()
    opts.reference_dir = opts.reference_dir.resolve()

    if opts.list:
        for w in DECLARED["workloads"]:
            print(f"{w['name']:<24s}{w['why']}")
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write("bench/run.py: no src/repro beside bench/ -- nothing to measure\n")
        return 2
    names = opts.workload or WORKLOAD_NAMES
    if opts.record_reference:
        return record_references(names, opts)
    if opts.calibrate:
        opts.seconds = opts.seconds or DECLARED["run_seconds"]
        return calibrate(names, opts)
    if not opts.repeats and not opts.seconds:
        opts.repeats = 3
    docs = run_set(names, opts)
    return 1 if any(d["points_failed"] for d in docs) else 0


if __name__ == "__main__":
    sys.exit(main())
