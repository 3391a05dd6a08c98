"""Regenerate every figure: ``python -m repro.experiments.runall``.

Options:
    figNN ...        only these figures (e.g. ``fig13 fig17``)
    --all            explicitly select every figure (the default)
    --scale SCALE    quick (default) or paper
    --jobs N         shard figure groups (and, for a single figure, its
                     sweep points) across N worker processes; output is
                     bit-identical to --jobs 1 (default: $REPRO_JOBS or 1)
    --resume DIR     crash-safe campaign mode: journal each completed
                     figure group into DIR/journal/ and skip groups
                     already journaled there, so a killed campaign
                     continues where it stopped with identical tables
    --retries N      re-run a figure group that failed transiently
                     (worker death, deadlock, timeout) up to N extra
                     times on a fresh worker before quarantining it
    --timeout SECS   per-figure-group hang watchdog (SECS > 0): a group
                     exceeding this wall clock is killed and recorded as
                     a structured PointTimeout crash instead of wedging
                     the campaign (forces pool execution)
    --out DIR        also write each table to DIR/figNN.txt plus its JSON
                     result (series, checks, counters/histograms) to
                     DIR/figNN.json

Profile a figure with the standard library:
``python -m cProfile -s cumulative -m repro.experiments.runall figNN``.

Each figure's engine is part of its machine: a figure that wants the
fluid-flow hybrid sets ``ClusterSpec(fluid=True)`` itself (fig19).

Campaign exit codes (docs/RESILIENCE.md): 0 = clean (every figure
passed), 1 = failed (shape checks failed, or nothing survived),
2 = usage error, 3 = partial (some figures crashed or were quarantined
but the campaign completed with usable output).

Parallel mode shards *figure groups* -- figures that share a memoised
application sweep (11/12, 13/14) stay together so the sweep still runs
once -- across spawn-based workers via
:func:`repro.experiments.parallel.sweep_map`; results are merged in
figure order, so tables, JSON snapshots and exit status never depend on
job count or completion order.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time
import traceback
from pathlib import Path

from repro.experiments import ALL_FIGURES, parallel
from repro.experiments.campaign import (
    EXIT_CLEAN,
    EXIT_FAILED,
    EXIT_PARTIAL,
    EXIT_USAGE,
    Journal,
    campaign_jobs,
    classify_campaign,
    point_key,
)
from repro.experiments.parallel import PointFailure, sweep_map
from repro.hw import memory as hw_memory
from repro.util import atomic_write

__all__ = ["main", "run_one", "run_selected", "FIGURE_GROUPS"]

#: Figures that must run in the same worker because they share one
#: memoised application sweep (running them apart would recompute it).
FIGURE_GROUPS: list[list[str]] = [
    ["fig01_timeline"],
    ["fig02_rdma_latency"],
    ["fig03_rdma_bw"],
    ["fig04_pingpong_staging"],
    ["fig05_registration"],
    ["fig11_stencil_time", "fig12_stencil_overlap"],
    ["fig13_ialltoall", "fig14_ialltoall_overlap"],
    ["fig15_group_vs_simple"],
    ["fig16_p3dfft"],
    ["fig17_hpl"],
    ["fig19_congestion"],
]


def run_one(name: str, scale: str = "quick"):
    """Run one figure module; returns ``(figure, None)`` or ``(None, exc)``."""
    try:
        module = importlib.import_module(f"repro.experiments.{name}")
        hw_memory.reset_peak_stats()
        # The simulators allocate millions of short-lived objects; the
        # cyclic collector's generation-0 sweeps cost several percent of
        # figure wall-clock and have nothing to collect: no event's value
        # refers to its owner, and a job run through BackendStack.run_once
        # is freed by refcount when dropped -- tests/test_memory_lifetime.py
        # keeps both true.  Pause it for the run; the collection after
        # picks up only jobs that built a bare Cluster and never closed it.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.time()
        try:
            fig = module.run(scale=scale)
        finally:
            if gc_was_enabled:
                gc.enable()
        fig.config.setdefault("wall_seconds", round(time.time() - t0, 1))
        gc.collect()
        # Peak resident bytes per side across every cluster this figure
        # built -- the memory-footprint row of the snapshot artifact.
        fig.metrics.setdefault("peak_resident_bytes", hw_memory.peak_stats())
        return fig, None
    except Exception as exc:  # noqa: BLE001 - batch runner must keep going
        return None, exc


def _run_group(names: tuple, scale: str) -> list[dict]:
    """Run one figure group and return its per-figure records -- the
    sweep-point function for figure-level sharding (a worker runs the
    whole group, nested sweeps in-process) and the in-process path's
    body alike."""
    records = []
    for name in names:
        fig, exc = run_one(name, scale=scale)
        records.append({
            "name": name,
            "fig": fig,
            "error": None if exc is None else repr(exc),
            "traceback": None if exc is None else "".join(
                traceback.format_exception(exc)),
        })
    return records


def _groups_for(names: list[str]) -> list[list[str]]:
    """Figure groups restricted to ``names``, in canonical order."""
    groups = []
    for group in FIGURE_GROUPS:
        members = [n for n in group if n in names]
        if members:
            groups.append(members)
    # Figures missing from FIGURE_GROUPS (future additions) run alone.
    grouped = {n for g in groups for n in g}
    for name in names:
        if name not in grouped:
            groups.append([name])
    return groups


def _group_key(group: list[str], scale: str) -> str:
    """Journal content key of one figure group at one scale.

    Matches the key ``sweep_map(label="figures", journal=...)`` derives
    for the point ``(tuple(group), scale)`` -- one keying scheme no
    matter which execution path (serial, inline, pool) produced the
    record, so any path can resume any other's journal.
    """
    return point_key("figures", None, (tuple(group), scale))


def run_selected(
    names: list[str] | None = None,
    scale: str = "quick",
    jobs: int = 1,
    progress=None,
    journal: Journal | None = None,
    retries: int = 0,
    point_timeout: float | None = None,
) -> list[dict]:
    """Run figures (optionally sharded over ``jobs`` workers).

    Returns one record per figure, in canonical figure order:
    ``{"name", "fig": FigureResult | None, "error": str | None,
    "traceback": str | None}``, identical for every ``jobs`` value --
    only the wall clock changes.

    With ``journal`` set, every fully-successful figure group is
    durably recorded under a content key of (group, scale) and skipped
    -- with identical records -- when already journaled (``runall
    --resume``).  ``retries``/``point_timeout`` are the campaign
    resilience knobs threaded through
    :func:`repro.experiments.parallel.sweep_map`.
    """
    names = list(names) if names is not None else list(ALL_FIGURES)
    groups = _groups_for(names)
    jobs = max(1, int(jobs))

    # Resume: serve journaled groups, run only the remainder.
    by_group: dict[int, list[dict]] = {}
    if journal is not None:
        for gi, group in enumerate(groups):
            hit = journal.lookup(_group_key(group, scale))
            if hit is not None:
                records, peak = hit
                hw_memory.record_peak(peak)
                by_group[gi] = records
                if progress is not None:
                    progress({"event": "done", "label": "figures",
                              "index": gi, "point": (tuple(group), scale),
                              "ok": True, "wall_s": 0.0, "cached": True})
    todo = [gi for gi in range(len(groups)) if gi not in by_group]

    def _group_clean(records) -> bool:
        return bool(records) and all(r["error"] is None for r in records)

    # With one group left there is nothing to shard at figure level, so
    # it runs in process and ``jobs`` parallelises the sweep points
    # inside its figures instead; jobs == 1 is fully serial, nested
    # sweeps included -- the reference execution every parallel mode
    # must reproduce bit for bit.  A hang watchdog needs workers.
    inline = point_timeout is None and (jobs == 1 or len(todo) == 1)
    outer = parallel.default_jobs
    parallel.default_jobs = jobs
    try:
        outcomes = sweep_map(
            _run_group, [(tuple(groups[gi]), scale) for gi in todo],
            jobs=1 if inline else jobs, on_error="keep", label="figures",
            progress=progress, retries=retries, point_timeout=point_timeout,
            # Each clean group is journaled the moment it completes
            # (same key scheme as _group_key), so a kill at any later
            # instant loses only in-flight work.
            journal=journal, journal_if=_group_clean,
        )
    finally:
        parallel.default_jobs = outer
    for gi, outcome in zip(todo, outcomes):
        if isinstance(outcome, PointFailure):
            by_group[gi] = [
                {
                    "name": name, "fig": None,
                    "error": f"{outcome.error_type}: {outcome.message}",
                    "traceback": outcome.traceback,
                    "quarantined": outcome.quarantined,
                    "attempts": outcome.attempts,
                }
                for name in groups[gi]
            ]
        else:
            by_group[gi] = outcome

    records: list[dict] = []
    for gi in range(len(groups)):
        records.extend(by_group[gi])
    return records


def _print_progress(ev: dict) -> None:
    if ev["event"] == "retry":
        names = ",".join(ev["point"][0])
        print(f"  [jobs] {names}: retrying after {ev['error_type']} "
              f"(attempt {ev['attempt']})", file=sys.stderr)
        return
    if ev["event"] != "done":
        return
    names = ",".join(ev["point"][0])
    if ev.get("cached"):
        status = "resumed from journal"
    else:
        status = "done" if ev.get("ok") else "CRASHED"
    print(f"  [jobs] {names}: {status} ({ev.get('wall_s', 0.0):.1f}s)",
          file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("figures", nargs="*", help="figNN prefixes to run (default: all)")
    parser.add_argument("--all", action="store_true",
                        help="run every figure (same as no figNN args)")
    parser.add_argument("--scale", default="quick", choices=["quick", "paper"])
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for figure/sweep sharding "
                             "(default: $REPRO_JOBS or 1)")
    parser.add_argument("--resume", default=None, metavar="DIR",
                        help="journal completed figure groups into DIR and "
                             "skip groups already journaled there")
    parser.add_argument("--retries", type=int, default=0,
                        help="extra attempts for transiently-failed figure "
                             "groups before quarantining them")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-figure-group hang watchdog in seconds")
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
