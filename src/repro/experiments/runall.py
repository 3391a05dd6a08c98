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
    --timeout SECS   per-figure-group hang watchdog: a group exceeding
                     this wall clock is killed and recorded as a
                     structured PointTimeout crash instead of wedging
                     the campaign (forces pool execution)
    --stall-timeout SECS
                     silence window after a worker death before the
                     sweep declares lost points failed (default 30;
                     x4 under --scale paper)
    --fluid          run every figure on the fluid-flow hybrid engine:
                     bulk transfers above the byte threshold advance as
                     rate-shared flows, control stays event-exact
                     (docs/PERFORMANCE.md; tables approximate the exact
                     engine within the documented tolerance)
    --fluid-threshold BYTES
                     bulk/control split for --fluid (default
                     repro.runconfig.DEFAULT_FLUID_THRESHOLD, 256 KiB)
    --out DIR        also write each table to DIR/figNN.txt plus a JSON
                     metrics snapshot (series + counters/histograms) to
                     DIR/figNN.json
    --bench          after the figures, run the engine microbenchmarks
                     and write a BENCH_engine.json snapshot (schema +
                     commit stamp + per-figure wall-clock seconds) to
                     the --out directory (default results/)
    --bench-parallel rerun the selected figures at jobs=1/2/4 and write
                     a BENCH_parallel.json scaling snapshot
    --profile        run each figure under cProfile and print the top
                     25 functions by cumulative time (forces --jobs 1)

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
from dataclasses import replace
from pathlib import Path

from repro import runconfig
from repro.experiments import ALL_FIGURES
from repro.experiments.campaign import (
    EXIT_CLEAN,
    EXIT_FAILED,
    EXIT_PARTIAL,
    EXIT_USAGE,
    Journal,
    classify_campaign,
    point_key,
)
from repro.experiments.parallel import PointFailure, in_worker, sweep_map
from repro.hw import memory as hw_memory
from repro.runconfig import (
    DEFAULT_FLUID_THRESHOLD,
    DEFAULT_STALL_TIMEOUT,
    RunConfig,
)
from repro.util import atomic_write

__all__ = ["main", "run_figures", "run_one", "run_selected", "FIGURE_GROUPS"]

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


def run_one(name: str, scale: str = "quick", profile: bool = False):
    """Run one figure module; returns ``(figure, None)`` or ``(None, exc)``.

    With ``profile=True`` the figure runs under cProfile and the top 25
    functions by cumulative time are printed to stderr.
    """
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
            if profile:
                import cProfile
                import pstats

                profiler = cProfile.Profile()
                profiler.enable()
                try:
                    fig = module.run(scale=scale)
                finally:
                    profiler.disable()
                    print(f"--- {name}: top 25 by cumulative time ---",
                          file=sys.stderr)
                    pstats.Stats(profiler, stream=sys.stderr) \
                        .sort_stats("cumulative").print_stats(25)
            else:
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


def _run_group(names: tuple, scale: str, profile: bool = False) -> list[dict]:
    """Run one figure group and return its per-figure records -- the
    sweep-point function for figure-level sharding (a worker runs the
    whole group, nested sweeps in-process) and the in-process path's
    body alike."""
    records = []
    for name in names:
        fig, exc = run_one(name, scale=scale, profile=profile)
        records.append({
            "name": name,
            "fig": fig,
            "error": None if exc is None else repr(exc),
            "traceback": None if exc is None else "".join(
                traceback.format_exception(exc)),
            # The live exception for in-process callers (run_figures
            # re-raises it); dropped in workers, where the record
            # crosses a pickle boundary and the string form is the
            # reliable representation.
            "exc": None if in_worker() else exc,
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
    record, so any path can resume any other's journal.  The engine
    mode rides in the ``extra`` slot: fluid and exact records of the
    same group never collide, so resuming after flipping ``--fluid``
    recomputes instead of serving the other engine's tables.
    """
    return point_key("figures", None, (tuple(group), scale),
                     extra=runconfig.current().journal_extra)


def _journal_safe(records: list[dict]) -> list[dict]:
    """Strip live exception objects before pickling into the journal."""
    return [{**rec, "exc": None} for rec in records]


def run_selected(
    names: list[str] | None = None,
    scale: str = "quick",
    jobs: int = 1,
    profile: bool = False,
    progress=None,
    journal: Journal | None = None,
    retries: int = 0,
    point_timeout: float | None = None,
) -> list[dict]:
    """Run figures (optionally sharded over ``jobs`` workers).

    Returns one record per figure, in canonical figure order:
    ``{"name", "fig": FigureResult | None, "error": str | None,
    "traceback": str | None, "exc": BaseException | None}``.  ``exc``
    is the live exception when the figure ran in this process and None
    when it ran in a worker or was served from a journal; every other
    field is identical for every ``jobs`` value -- only the wall clock
    changes.

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
    if profile:
        jobs = 1
        point_timeout = None

    # Resume: serve journaled groups, run only the remainder.
    cached: dict[int, list[dict]] = {}
    if journal is not None:
        for gi, group in enumerate(groups):
            hit = journal.lookup(_group_key(group, scale))
            if hit is not None:
                records, peak = hit
                hw_memory.record_peak(peak)
                cached[gi] = records
                if progress is not None:
                    progress({"event": "done", "label": "figures",
                              "index": gi, "point": (tuple(group), scale),
                              "ok": True, "wall_s": 0.0, "cached": True})
    todo = [gi for gi in range(len(groups)) if gi not in cached]

    def _group_clean(records) -> bool:
        return bool(records) and all(r["error"] is None for r in records)

    def _checkpoint(gi: int, records: list[dict]) -> None:
        """WAL discipline: journal a fully-successful group *as it
        completes*, so a kill at any later instant loses only in-flight
        work (a write failure costs resumability, never correctness)."""
        if journal is None or not _group_clean(records):
            return
        try:
            journal.record(
                _group_key(groups[gi], scale),
                (_journal_safe(records), hw_memory.peak_stats()),
                meta={"group": list(groups[gi]), "scale": scale},
            )
        except Exception:
            pass

    by_group: dict[int, list[dict]] = dict(cached)
    if todo and (point_timeout is not None or (jobs > 1 and len(todo) > 1)):
        points = [(tuple(groups[gi]), scale) for gi in todo]
        outcomes = sweep_map(
            _run_group, points, jobs=jobs, on_error="keep",
            label="figures", progress=progress,
            retries=retries, point_timeout=point_timeout,
            # The pool journals each group the moment its worker
            # reports in (same key scheme as _group_key).
            journal=journal,
            journal_if=_group_clean,
        )
        for gi, outcome in zip(todo, outcomes):
            if isinstance(outcome, PointFailure):
                by_group[gi] = [
                    {
                        "name": name, "fig": None,
                        "error": f"{outcome.error_type}: "
                                 f"{outcome.message}",
                        "traceback": outcome.traceback,
                        "exc": None,
                        "quarantined": outcome.quarantined,
                        "attempts": outcome.attempts,
                    }
                    for name in groups[gi]
                ]
            else:
                by_group[gi] = outcome
    elif todo:
        # In process.  With one group left there is nothing to shard at
        # figure level, so ``jobs`` parallelises the sweep points inside
        # the figure instead; jobs == 1 is fully serial, nested sweeps
        # included -- the reference execution every parallel mode must
        # reproduce bit for bit.
        outer = runconfig.current()
        runconfig.install(replace(outer, jobs=jobs))
        try:
            for gi in todo:
                by_group[gi] = _run_group(tuple(groups[gi]), scale, profile)
                _checkpoint(gi, by_group[gi])
        finally:
            runconfig.install(outer)

    records: list[dict] = []
    for gi in range(len(groups)):
        records.extend(by_group[gi])
    return records


def run_figures(names: list[str], scale: str = "quick", jobs: int = 1) -> list:
    """Run several figures, raising on the first failure (library use).

    Serial runs re-raise the figure's original exception; sharded runs
    (where the exception object stayed in the worker) raise a
    ``RuntimeError`` carrying the worker's formatted traceback.
    """
    results = []
    for rec in run_selected(names, scale=scale, jobs=jobs):
        if rec["error"] is not None:
            if rec.get("exc") is not None:
                raise rec["exc"]
            raise RuntimeError(
                f"{rec['name']} failed: {rec['error']}\n{rec['traceback']}")
        results.append(rec["fig"])
    return results


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
    parser.add_argument("--stall-timeout", type=float, default=None,
                        help="worker-death stall window in seconds "
                             f"(default {DEFAULT_STALL_TIMEOUT:g}; "
                             "x4 under --scale paper)")
    parser.add_argument("--fluid", action="store_true",
                        help="run on the fluid-flow hybrid engine (bulk "
                             "transfers as rate-shared flows; approximate)")
    parser.add_argument("--fluid-threshold", type=int, default=None,
                        metavar="BYTES",
                        help="bulk/control byte split for --fluid (default "
                             f"DEFAULT_FLUID_THRESHOLD = {DEFAULT_FLUID_THRESHOLD})")
    parser.add_argument("--out", default=None, help="directory for per-figure text tables")
    parser.add_argument("--bench", action="store_true",
                        help="also run engine microbenchmarks and write BENCH_engine.json")
    parser.add_argument("--bench-parallel", action="store_true",
                        help="rerun the selected figures at jobs=1/2/4 and "
                             "write a BENCH_parallel.json scaling snapshot")
    parser.add_argument("--profile", action="store_true",
                        help="run each figure under cProfile (top 25 cumulative)")
    args = parser.parse_args(argv)

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

    stall_timeout = args.stall_timeout
    if stall_timeout is None and args.scale == "paper":
        # Paper-scale points legitimately run for minutes.
        stall_timeout = 4.0 * DEFAULT_STALL_TIMEOUT
    run = RunConfig.resolve(
        jobs=1 if args.profile else args.jobs, fluid=args.fluid,
        fluid_threshold=args.fluid_threshold, stall_timeout=stall_timeout)
    runconfig.install(run)
    if run.fluid:
        print("engine: fluid-flow hybrid "
              f"(threshold {run.fluid_threshold} bytes)", file=sys.stderr)

    journal = Journal(args.resume, label="runall") if args.resume else None

    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    records = run_selected(
        selected, scale=args.scale, jobs=run.jobs, profile=args.profile,
        progress=_print_progress if (run.jobs > 1 or args.timeout) else None,
        journal=journal, retries=args.retries, point_timeout=args.timeout,
    )

    statuses: list[tuple[str, str]] = []
    fig_walls: dict[str, float] = {}
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
        fig_walls[fig.fig_id] = fig.config.get("wall_seconds", 0.0)
        statuses.append((name, "pass" if fig.all_passed else "shape-fail"))

    if args.bench:
        from repro.experiments import benchkit

        print("running engine microbenchmarks...")
        snap = benchkit.collect_snapshot(
            figure_walls=fig_walls, scale=args.scale, verbose=True)
        bench_dir = out_dir if out_dir else Path("results")
        bench_dir.mkdir(parents=True, exist_ok=True)
        bench_path = bench_dir / "BENCH_engine.json"
        atomic_write(bench_path,
                     json.dumps(snap, indent=2, sort_keys=True) + "\n")
        print(f"wrote {bench_path}")

    if args.bench_parallel:
        from repro.experiments import benchkit

        print("running parallel-scaling snapshot (jobs=1/2/4)...")
        snap = benchkit.collect_parallel_snapshot(
            names=selected, scale=args.scale, verbose=True)
        bench_dir = out_dir if out_dir else Path("results")
        bench_dir.mkdir(parents=True, exist_ok=True)
        bench_path = bench_dir / "BENCH_parallel.json"
        atomic_write(bench_path,
                     json.dumps(snap, indent=2, sort_keys=True) + "\n")
        print(f"wrote {bench_path}")

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
