"""Regenerate every figure: ``python -m repro.experiments.runall``.

Options:
    figNN ...        only these figures (e.g. ``fig13 fig17``)
    --all            explicitly select every figure (the default)
    --scale SCALE    quick (default) or paper
    --jobs N         spread the campaign's sweep points across N worker
                     processes; output is bit-identical to --jobs 1
                     (default: $REPRO_JOBS or 1)
    --resume DIR     crash-safe campaign mode: journal each completed
                     sweep point into DIR/journal/ and skip points
                     already journaled there, so a killed campaign
                     continues where it stopped with identical tables
    --retries N      re-run a sweep point that failed transiently
                     (worker death, deadlock, timeout) up to N extra
                     times on a fresh worker before quarantining it
    --timeout SECS   per-point hang watchdog (SECS > 0): a point
                     exceeding this wall clock is killed and recorded as
                     a structured PointTimeout crash instead of wedging
                     the campaign (forces pool execution)
    --out DIR        also write each table to DIR/figNN.txt plus its JSON
                     result (series, checks, counters/histograms) to
                     DIR/figNN.json

Profile a figure with the standard library:
``python -m cProfile -s cumulative -m repro.experiments.runall figNN``.

Each figure's engine is part of its machine: a figure on a leaf/spine
fat-tree sets ``ClusterSpec(nodes_per_switch=N)`` itself, and its bulk
transfers ride the flow engine (fig19); every other figure runs on the
paper's single switch, exactly.

Campaign exit codes (docs/RESILIENCE.md): 0 = clean (every figure
passed), 1 = failed (shape checks failed, or nothing survived),
2 = usage error, 3 = partial (some figures crashed or were quarantined
but the campaign completed with usable output).

The unit of work is the sweep point: the distinct sweeps the selected
figures declare (11/12 and 13/14 share one) run as one list through
:func:`repro.experiments.parallel.run_sweeps`, then each figure builds
in figure order -- so tables, JSON snapshots and exit status never
depend on job count, completion order or the other figures selected.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
import traceback
from pathlib import Path

from repro.experiments import ALL_FIGURES
from repro.experiments.campaign import (
    EXIT_CLEAN,
    EXIT_FAILED,
    EXIT_PARTIAL,
    EXIT_USAGE,
    Journal,
    campaign_jobs,
    classify_campaign,
)
from repro.experiments.parallel import PointFailure, run_sweeps
from repro.util import atomic_write

__all__ = ["main", "plan", "run_selected"]


def plan(names: list[str], scale: str) -> tuple[dict, dict]:
    """What a campaign over ``names`` runs.

    Returns ``({name: (module, its sweeps), or the exception that kept
    the figure from declaring them}, {(label, points): sweep})``, the
    second holding each distinct sweep once, in plan order.  One label
    naming two functions is an error.
    """
    declared: dict = {}
    sweeps: dict = {}
    fns: dict = {}
    for name in names:
        try:
            module = importlib.import_module(f"repro.experiments.{name}")
            declared[name] = module, module.sweeps(scale)
        except Exception as exc:  # noqa: BLE001 - batch runner must keep going
            declared[name] = exc
            continue
        for sweep in declared[name][1]:
            if fns.setdefault(sweep.label, sweep.fn) is not sweep.fn:
                raise ValueError(f"sweep label {sweep.label!r} names two functions: "
                                 f"{fns[sweep.label]!r} and {sweep.fn!r}")
            sweeps.setdefault((sweep.label, tuple(sweep.points)), sweep)
    return declared, sweeps


def _crashed(name: str, exc: BaseException) -> dict:
    return {"name": name, "fig": None, "error": repr(exc),
            "traceback": "".join(traceback.format_exception(exc))}


def _reduce(name: str, module, scale: str, outcomes: list[list]) -> dict:
    """One figure's record from its sweeps' outcomes: a crash or
    quarantine record when any of its points failed, else its build."""
    points = [o for sweep in outcomes for o in sweep]
    failure = next((o for o in points if isinstance(o, PointFailure)), None)
    if failure is not None:
        return {"name": name, "fig": None,
                "error": f"{failure.error_type}: {failure.message}",
                "traceback": failure.traceback,
                "quarantined": failure.quarantined,
                "attempts": failure.attempts}
    t0 = time.perf_counter()
    try:
        fig = module.build(scale, *([o.value for o in sweep] for sweep in outcomes))
    except Exception as exc:  # noqa: BLE001 - batch runner must keep going
        return _crashed(name, exc)
    wall = time.perf_counter() - t0 + sum(o.wall_s for o in points)
    fig.config.setdefault("wall_seconds", round(wall, 1))
    # Peak resident bytes per side across every cluster the figure's
    # points built -- the memory-footprint row of the snapshot artifact.
    fig.metrics.setdefault("peak_resident_bytes", {
        side: max((o.peak.get(side, 0) for o in points), default=0)
        for side in ("host", "dpu")})
    return {"name": name, "fig": fig, "error": None, "traceback": None}


def run_selected(
    names: list[str] | None = None,
    scale: str = "quick",
    jobs: int = 1,
    progress=None,
    journal: Journal | None = None,
    retries: int = 0,
    point_timeout: float | None = None,
) -> list[dict]:
    """Run figures: every point of the plan, then each figure's build.

    Returns one record per figure, in the order of ``names``:
    ``{"name", "fig": FigureResult | None, "error": str | None,
    "traceback": str | None}``, identical for every ``jobs`` value --
    only the wall clock changes.  A figure whose point failed carries
    ``"quarantined"`` and ``"attempts"`` from that point's failure.

    With ``journal`` set, every completed point is durably recorded
    under a content key of (sweep label, point) and served -- with an
    identical result -- when already journaled (``runall --resume``).
    ``jobs``, ``progress``, ``retries`` and ``point_timeout`` are those
    of :func:`repro.experiments.parallel.run_sweeps`.
    """
    names = list(names) if names is not None else list(ALL_FIGURES)
    declared, sweeps = plan(names, scale)
    results = dict(zip(sweeps, run_sweeps(
        list(sweeps.values()), jobs=jobs, on_error="keep", progress=progress,
        retries=retries, journal=journal, point_timeout=point_timeout)))
    return [
        _crashed(name, d) if isinstance(d, Exception)
        else _reduce(name, d[0], scale,
                     [results[(s.label, tuple(s.points))] for s in d[1]])
        for name, d in declared.items()
    ]


def _print_progress(ev: dict) -> None:
    point = f"{ev['label']} #{ev['index']} {ev['point']!r}"
    if ev["event"] == "retry":
        print(f"  [jobs] {point}: retrying after {ev['error_type']} "
              f"(attempt {ev['attempt']})", file=sys.stderr)
        return
    if ev["event"] != "done":
        return
    if ev.get("cached"):
        status = "resumed from journal"
    else:
        status = "done" if ev.get("ok") else "CRASHED"
    print(f"  [jobs] {point}: {status} ({ev.get('wall_s', 0.0):.1f}s)",
          file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro run", description=__doc__)
    parser.add_argument("figures", nargs="*", help="figNN prefixes to run (default: all)")
    parser.add_argument("--all", action="store_true",
                        help="run every figure (same as no figNN args)")
    parser.add_argument("--scale", default="quick", choices=["quick", "paper"])
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the campaign's sweep points "
                             "(default: $REPRO_JOBS or 1)")
    parser.add_argument("--resume", default=None, metavar="DIR",
                        help="journal completed sweep points into DIR and "
                             "skip points already journaled there")
    parser.add_argument("--retries", type=int, default=0,
                        help="extra attempts for transiently-failed sweep "
                             "points before quarantining them")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-point hang watchdog in seconds")
    parser.add_argument("--out", default=None, help="directory for per-figure text tables")
    args = parser.parse_args(argv)
    jobs = campaign_jobs(parser, args)

    if args.figures and not args.all:
        selected = [
            name for name in ALL_FIGURES
            if any(name.startswith(prefix) for prefix in args.figures)
        ]
        if not selected:
            print(f"no figures match {args.figures}; available: {ALL_FIGURES}")
            return EXIT_USAGE
    else:
        selected = list(ALL_FIGURES)

    journal = Journal(args.resume, label="runall") if args.resume else None

    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    records = run_selected(
        selected, scale=args.scale, jobs=jobs,
        progress=_print_progress if (jobs > 1 or args.timeout) else None,
        journal=journal, retries=args.retries, point_timeout=args.timeout,
    )

    statuses: list[tuple[str, str]] = []
    for rec in records:
        name, fig = rec["name"], rec["fig"]
        if fig is None:
            kind = "quarantined" if rec.get("quarantined") else "crash"
            attempts = rec.get("attempts", 1)
            tried = f" after {attempts} attempts" if attempts > 1 else ""
            print(f"{name}: {kind.upper()}{tried}: {rec['error']}",
                  file=sys.stderr)
            if rec["traceback"]:
                print(rec["traceback"], file=sys.stderr)
            statuses.append((name, kind))
            continue
        text = fig.render()
        print(text)
        print()
        if out_dir:
            atomic_write(out_dir / f"{fig.fig_id}.txt", text + "\n")
            snap = {"schema": "repro.obs/1", **fig.to_dict()}
            atomic_write(out_dir / f"{fig.fig_id}.json",
                         json.dumps(snap, indent=2, sort_keys=True) + "\n")
        statuses.append((name, "pass" if fig.all_passed else "shape-fail"))

    passed = sum(1 for _, s in statuses if s == "pass")
    shape_failed = sum(1 for _, s in statuses if s == "shape-fail")
    lost = sum(1 for _, s in statuses if s in ("crash", "quarantined"))
    bad = [(name, status) for name, status in statuses if status != "pass"]
    if journal is not None and journal.corrupt:
        for path, reason in journal.corrupt:
            print(f"journal: ignored damaged record {path}: {reason}",
                  file=sys.stderr)
    if bad:
        print(f"{len(bad)}/{len(statuses)} figure(s) failed:")
        for name, status in bad:
            print(f"  {name}: {status}")
        code = classify_campaign(passed, lost, shape_failed)
        label = {EXIT_FAILED: "failed", EXIT_PARTIAL: "partial"}.get(
            code, "failed")
        print(f"campaign {label} "
              f"(pass={passed} shape-fail={shape_failed} lost={lost})")
        return code
    print("all shape checks passed")
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
