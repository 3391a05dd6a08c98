"""One workload in one fresh interpreter: ``python3 -m bench.child``.

Started by ``bench/run.py`` (never by hand) with every ``REPRO_*``
variable removed from the environment.  Runs the workload's points
closed loop -- one after the other, one process, one thread -- for the
requested repeats, then optionally the traced pass, and prints one JSON
document as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from bench import ledger, trace, workloads  # noqa: E402


def _digest(values_by_point: dict) -> str:
    canon = json.dumps(values_by_point, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _rel_err(sim: dict, ref: dict) -> float:
    """Largest |sim - ref| / |ref| over the reference's values."""
    return max(abs(sim[k] - ref[k]) / abs(ref[k]) for k in ref)


class Pass:
    """One pass over the workload's points: phase times, simulated
    values, failures."""

    def __init__(self):
        self.run_s = 0.0
        self.build_s = 0.0
        self.values: dict[str, dict] = {}
        self.errors: dict[str, str] = {}
        self.events = 0


def run_pass(wl, points, hooks, counters=None, tracer=None) -> Pass:
    """``counters`` (a ledger.PointCounters) is filled when given; reading
    it happens between points, outside both timed phases."""
    out = Pass()
    run_point = wl.run_point if tracer is None else tracer.wrap("point", wl.run_point)
    # The event structures are acyclic and freed by refcount; generation-0
    # sweeps cost several percent and collect almost nothing, so the
    # cyclic collector is paused as experiments.runall.run_one pauses it.
    gc.disable()
    try:
        for index, pt in enumerate(points):
            hooks.begin_point()
            if tracer is not None:
                tracer.point = index
            t0 = time.perf_counter()
            try:
                values = run_point(pt, hooks)
            except Exception as exc:  # noqa: BLE001 - a failed point is a result
                out.errors[pt["id"]] = f"{type(exc).__name__}: {exc}"
                values = None
            total = time.perf_counter() - t0
            out.run_s += hooks.run_s
            out.build_s += total - hooks.run_s
            out.events += sum(c.sim.processed_events for c in hooks.clusters)
            if values is not None:
                out.values[pt["id"]] = values
            if counters is not None:
                counters.read_point(hooks)
        hooks.begin_point()  # drop the last point's cluster before collecting
    finally:
        gc.enable()
    gc.collect()
    return out


def load_reference(path: Path, wl, seed: int, scale: str):
    """The committed reference if it was recorded for this input, else
    None (the run then refers to its own first repeat)."""
    if not path.exists():
        return None
    ref = json.loads(path.read_text())
    if ref["scale"] != scale or (wl.seeded and ref["seed"] != seed):
        return None
    return ref


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--repeats", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--reference-dir", type=Path, required=True)
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--stamp", type=json.loads, default={},
                    help="provenance to put in the trace file's metadata")
    args = ap.parse_args()

    startup_s = time.time() - args.t_spawn
    if args.import_only:
        print(json.dumps({"startup_s": startup_s}))
        return 0

    wl = workloads.WORKLOADS[args.workload]
    scale = "smoke" if args.smoke else "full"
    grid = workloads.load_grid(wl.name, args.smoke)
    points = wl.make_points(grid, args.seed)
    point_ids = [pt["id"] for pt in points]
    hooks = trace.Hooks()
    hooks.install()

    ref_path = args.reference_dir / f"{wl.name}.json"
    if args.record_reference:
        ref_points = [wl.reference_point(pt) for pt in points]
        recorded = run_pass(wl, ref_points, hooks)
        if recorded.errors:
            print(json.dumps({"errors": recorded.errors}))
            return 1
        # The parent stamps this and writes it to the reference directory.
        print(json.dumps({
            "workload": wl.name,
            "scale": scale,
            "seed": args.seed if wl.seeded else None,
            "reference": wl.reference_kind,
            "rtol": {pt["id"]: wl.point_rtol(pt) for pt in points},
            "points": recorded.values,
        }))
        return 0

    # -- timed, untraced repeats ---------------------------------------------
    counters = ledger.PointCounters()
    passes: list[Pass] = []
    while True:
        passes.append(run_pass(wl, points, hooks,
                               counters if not passes else None))
        if args.repeats:
            if len(passes) >= args.repeats:
                break
        elif sum(p.run_s for p in passes) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = passes[0]
    reference = load_reference(ref_path, wl, args.seed, scale)
    ref_values = first.values if reference is None else reference["points"]
    failed: dict[str, str] = {}
    worst = 0.0
    for p in passes:
        failed.update(p.errors)
        for pt in points:
            pid = pt["id"]
            if pid in p.values and pid in ref_values:
                err = _rel_err(p.values[pid], ref_values[pid])
                worst = max(worst, err)
                if err > wl.point_rtol(pt):
                    failed[pid] = (f"simulated value {err:.3e} from reference "
                                   f"(tolerance {wl.point_rtol(pt):.0e})")
    digests = {_digest(p.values) for p in passes}
    if len(digests) > 1:
        failed["<repeats>"] = "simulated values differ between repeats"
    sim_digest = _digest(first.values)

    wall = [p.run_s for p in passes]
    build = [p.build_s for p in passes]
    wall_s = statistics.median(wall)
    layers = {name: None for name, _unit, _better in ledger.LAYER_METRICS}
    layers.update(counters.layer_metrics())
    layers["sim_err_pct"] = 100.0 * worst
    layers["sim.core.us_per_event"] = 1e6 * wall_s / first.events
    layers["sim.core.events_per_s"] = first.events / wall_s

    doc = {
        "workload": wl.name,
        "why": wl.why,
        "engine": grid["engine"],
        "scale": scale,
        "seed": args.seed,
        "reference": "self" if reference is None else wl.reference_kind,
        "numpy": numpy.__version__,
        "points_attempted": len(points),
        "failures": failed,
        "sim_digest": sim_digest,
        "repeats": len(passes),
        "startup_s": startup_s,
        "end_to_end": {
            "wall_s": {"value": wall_s, "min": min(wall), "max": max(wall),
                       "samples": len(wall), "all": wall},
            "build_s": {"value": statistics.median(build), "min": min(build),
                        "max": max(build), "samples": len(build), "all": build},
            "peak_rss_mb": {"value": peak_rss_mb},
            "sim_match_pct": {"value": 100.0 - 100.0 * worst},
        },
        "layers": layers,
        "simulated": first.values,
    }

    # -- traced pass ---------------------------------------------------------
    if args.trace:
        if wl.bare_twin is not None:
            twins = run_pass(wl, [wl.bare_twin(pt) for pt in points], hooks)
            failed.update({f"twin:{k}": v for k, v in twins.errors.items()})
            if _digest(twins.values) != sim_digest:
                failed["<twin>"] = "bare twin gave different simulated values"
            layers["obs.slowdown_x"] = wall_s / twins.run_s
            layers["obs.extra_events"] = first.events - twins.events
        tracer = trace.Tracer()
        tracer.install()
        try:
            traced_counters = ledger.PointCounters()
            traced = run_pass(wl, points, hooks, traced_counters, tracer)
        finally:
            tracer.uninstall()
        failed.update({f"traced:{k}": v for k, v in traced.errors.items()})
        if _digest(traced.values) != sim_digest:
            failed["<traced>"] = "traced pass gave different simulated values"
        traced_layers = traced_counters.layer_metrics()
        moved = sorted(k for k, v in traced_layers.items() if layers[k] != v)
        if moved:
            failed["<traced-counts>"] = f"counts differ under tracing: {moved}"
        layers.update(ledger.traced_metrics(tracer, traced.run_s, wall_s))
        args.out.mkdir(parents=True, exist_ok=True)
        trace_path = args.out / f"trace_{wl.name}.json"
        tracer.write_chrome_trace(trace_path, point_ids, {
            **args.stamp, "workload": wl.name, "seed": args.seed, "scale": scale})
        doc["trace_file"] = str(trace_path)
        doc["self_time_by_module"] = tracer.self_time_by_module()

    doc["points_failed"] = len(failed)
    hooks.uninstall()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
