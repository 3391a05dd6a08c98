"""Work-stealing process-pool scheduler for embarrassingly parallel sweeps.

Every paper figure is (or contains) a sweep: an ordered list of
independent points -- ``(message_size, variant)``, ``(flavor, nodes,
block)`` -- each of which builds its own :class:`~repro.hw.Cluster`,
runs one isolated simulation, and returns a picklable record.
:func:`sweep_map` runs those points either serially (the reference
semantics) or across worker processes, and **merges the results in
point order**, so the output is bit-identical to the serial run
regardless of job count or completion order.

Design rules that make "parallel changes nothing" hold:

* **Ordered merge.**  The parent dispatches the next undone point to
  the first idle worker (self-scheduling / work stealing); results
  stream back tagged with their point index, and
  :func:`merge_messages` re-assembles them in index order.
* **Seeds from the spec, never the clock.**  Each point gets a seed
  derived by :func:`repro.sim.rng.spawn_seed` from the sweep's root
  seed and the point's stable key ``(label, index)``.  The derivation
  is pure, so job count, completion order and retries cannot perturb it.
* **Fresh interpreters.**  Workers are started with the ``spawn``
  method: no inherited module-global counters, lru_caches or RNG state
  from the parent can leak into a point's behaviour.
* **Crash isolation.**  A point that raises (or a worker process that
  dies outright) surfaces as a structured :class:`PointFailure` in the
  merged result instead of killing the sweep -- the same keep-going
  semantics ``runall`` applies to whole figures.
* **Watermark merge.**  Each worker measures ``hw.memory.peak_stats()``
  around its point and the parent max-merges them, so per-figure
  ``peak_resident_bytes`` snapshots match the serial run exactly.

Resilience (docs/RESILIENCE.md):

* **Retry + quarantine.**  ``retries=N`` re-runs a *transiently* failed
  point (worker death, :class:`DeadlockError`, timeouts -- see
  :data:`TRANSIENT_ERROR_TYPES`) up to N extra times with exponential
  backoff, each attempt on a freshly spawned worker.  A point that
  exhausts its budget is **quarantined**: its :class:`PointFailure`
  (with the attempt count) occupies the slot and the sweep keeps going.
* **Hang conversion.**  ``point_timeout`` bounds one point's wall
  clock; an overdue worker is killed and the point becomes a
  structured ``PointTimeout`` failure (retryable) instead of wedging
  the campaign.  Enforcement needs process isolation, so a timeout
  routes even a jobs=1 sweep through a single-worker pool.
* **Journal.**  ``journal=`` (a :class:`~repro.experiments.campaign.Journal`)
  makes the sweep resumable: completed points are durably recorded
  under a content key of (label, seed, point) and skipped -- with
  byte-identical results and merged peak-memory watermarks -- on the
  next run.
* **Stall detection.**  The parent's dead-worker sweep and the
  all-workers-gone backstop use the run config's ``stall_timeout``
  (30 s; ``runall --scale paper`` scales it up) instead of a
  hard-coded constant.

Progress/timing flows back over the same IPC channel as results
(``start``/``done``/``retry`` events through an optional ``progress``
callback); ``benchkit`` consumes it to stamp per-figure walls and the
``results/BENCH_parallel.json`` scaling snapshot.

Job-count resolution: an explicit ``jobs=`` argument wins; otherwise
the installed :class:`~repro.runconfig.RunConfig`'s ``jobs`` applies
(``runall --jobs`` / ``$REPRO_JOBS``).  Workers receive the parent's
config as an argument and install it with ``jobs=1``, so nested sweeps
always run serially (no pool-in-pool) on the parent's engine.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import pickle
import time
import traceback
from queue import Empty
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Optional, Sequence

from repro import runconfig
from repro.runconfig import RunConfig
from repro.sim.rng import spawn_seed

__all__ = [
    "PointFailure",
    "SweepError",
    "TRANSIENT_ERROR_TYPES",
    "sweep_map",
    "merge_messages",
    "point_seeds",
    "in_worker",
]

#: Set in worker processes: nested sweeps must not spawn pools.
_IN_WORKER = False

#: Error types treated as *transient* by the retry machinery: the point
#: itself may be fine, the execution environment failed around it.
#: Everything else (a ValueError in the figure code, a failed shape
#: check) is deterministic and retrying it would reproduce the failure.
TRANSIENT_ERROR_TYPES = frozenset({
    "WorkerDied",       # hard process death (SIGKILL, segfault, os._exit)
    "PointTimeout",     # killed by the per-point hang watchdog
    "DeadlockError",    # sim watchdog fired (chaos can starve progress)
    "OSError",          # resource exhaustion around the point
    "MemoryError",
    "ConnectionError",
    "EOFError",
    "BrokenPipeError",
})


def in_worker() -> bool:
    """True inside a sweep worker process."""
    return _IN_WORKER


def _resolve_jobs(jobs: int | None, n_points: int) -> int:
    if _IN_WORKER:
        return 1
    j = runconfig.current().jobs if jobs is None else max(1, int(jobs))
    return min(j, max(1, n_points))


# ---------------------------------------------------------------------------
# failures
# ---------------------------------------------------------------------------

@dataclass
class PointFailure:
    """Structured record of one sweep point that crashed.

    Occupies the failed point's slot in the merged result list; the
    neighbouring points are unaffected (keep-going semantics).
    ``attempts`` counts every execution attempt (1 without retries);
    ``quarantined`` marks a failure that survived the retry budget and
    was deliberately parked rather than aborting the sweep.
    """

    index: int
    point: Any
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    quarantined: bool = False

    def to_dict(self) -> dict:
        """JSON-ready form (campaign reports, SLO artifacts)."""
        return {
            "index": self.index,
            "point": repr(self.point),
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        q = " quarantined" if self.quarantined else ""
        return f"PointFailure(#{self.index} {self.point!r}: " \
               f"{self.error_type}: {self.message}; " \
               f"attempts={self.attempts}{q})"


class SweepError(RuntimeError):
    """Raised by ``sweep_map(on_error='raise')`` when points failed."""

    def __init__(self, failures: list[PointFailure]):
        self.failures = failures
        first = failures[0]
        detail = f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""
        super().__init__(
            f"{len(failures)} sweep point(s) failed; first: point "
            f"#{first.index} {first.point!r}: {first.error_type}: "
            f"{first.message}{detail}\n{first.traceback}"
        )


# ---------------------------------------------------------------------------
# deterministic merge (pure -- property-tested directly)
# ---------------------------------------------------------------------------

def merge_messages(n_points: int, messages: Iterable[tuple]) -> list:
    """Merge completion messages into a point-ordered result list.

    ``messages`` is any iterable of ``("ok", index, value)`` /
    ``("err", index, PointFailure)`` tuples in *arbitrary* completion
    order; the output is ordered by point index.  Every index in
    ``range(n_points)`` must appear exactly once.
    """
    slots: list = [_MISSING] * n_points
    for kind, index, payload in messages:
        if not 0 <= index < n_points:
            raise ValueError(f"point index {index} out of range 0..{n_points - 1}")
        if slots[index] is not _MISSING:
            raise ValueError(f"point index {index} completed twice")
        if kind not in ("ok", "err"):
            raise ValueError(f"unknown message kind {kind!r}")
        slots[index] = payload
    missing = [i for i, s in enumerate(slots) if s is _MISSING]
    if missing:
        raise ValueError(f"points never completed: {missing}")
    return slots


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


def point_seeds(root_seed: int, label: str, n_points: int) -> list[int]:
    """Per-point seeds for a sweep: pure in (root, label, index).

    Identical for every job count and completion order by construction
    (property-tested in ``tests/test_properties_parallel.py``).
    """
    return [spawn_seed(root_seed, label, i) for i in range(n_points)]


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _call_point(fn: Callable, point, seed_kwarg: str | None, seed: int):
    args = point if isinstance(point, tuple) else (point,)
    if seed_kwarg:
        return fn(*args, **{seed_kwarg: seed})
    return fn(*args)


def _worker_main(wid: int, fn, seed_kwarg, run: RunConfig, task_q,
                 result_q) -> None:
    """Serve points from this worker's private queue until the ``None``
    sentinel.  The queue holds at most one task at a time (the parent
    dispatches point-by-point), which is what lets the parent kill an
    idle or hung worker without racing a half-claimed task.  ``run`` is
    the parent's config, installed with ``jobs=1``."""
    global _IN_WORKER
    _IN_WORKER = True
    runconfig.install(replace(run, jobs=1))
    from repro.hw import memory as hw_memory

    while True:
        item = task_q.get()
        if item is None:
            break
        index, point, seed = item
        hw_memory.reset_peak_stats()
        t0 = time.perf_counter()
        try:
            value = _call_point(fn, point, seed_kwarg, seed)
            # Pickle here, synchronously: an unpicklable result must
            # surface as this point's failure, not as a feeder-thread
            # crash that wedges the whole sweep.  The same blob doubles
            # as the journal payload on the parent side.
            blob = pickle.dumps((value, hw_memory.peak_stats()))
            result_q.put(("ok", wid, index,
                          (blob, time.perf_counter() - t0)))
        except BaseException as exc:  # noqa: BLE001 - crash isolation
            failure = PointFailure(
                index=index, point=point,
                error_type=type(exc).__name__, message=str(exc),
                traceback=traceback.format_exc(),
            )
            result_q.put(("err", wid, index,
                          (pickle.dumps(failure), time.perf_counter() - t0)))
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                break


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

@dataclass
class _Worker:
    """Parent-side handle of one worker process and its private queue."""

    wid: int
    proc: Any
    task_q: Any
    #: Point index currently dispatched to this worker (None = idle).
    index: Optional[int] = None
    #: ``time.monotonic()`` of the dispatch (hang watchdog anchor).
    started: float = 0.0


@dataclass
class _SweepConfig:
    """Resolved knobs of one pool run (packed to keep signatures sane)."""

    fn: Callable
    points: list
    label: str
    seeds: list[int]
    seed_kwarg: Optional[str]
    on_error: str
    progress: Optional[Callable]
    retries: int = 0
    retry_backoff: float = 0.05
    transient: frozenset = TRANSIENT_ERROR_TYPES
    journal: Any = None
    journal_if: Optional[Callable] = None
    point_timeout: Optional[float] = None
    #: The parent's run config: stall window, journal engine key, and
    #: what every worker installs.
    run: RunConfig = RunConfig()


def sweep_map(
    fn: Callable,
    points: Sequence,
    jobs: int | None = None,
    on_error: str = "raise",
    label: str | None = None,
    seed_root: int = 0,
    seed_kwarg: str | None = None,
    progress: Callable[[dict], None] | None = None,
    retries: int = 0,
    retry_backoff: float = 0.05,
    transient: Iterable[str] | None = None,
    journal=None,
    journal_if: Callable[[Any], bool] | None = None,
    point_timeout: float | None = None,
) -> list:
    """Run ``fn`` over ``points``; return results in point order.

    Each point is a tuple of positional arguments for ``fn`` (a bare
    value is treated as a 1-tuple).  With ``jobs > 1`` the points run
    on a spawn-based worker pool; results (and per-point peak-memory
    watermarks) are merged so the returned list -- and all observable
    parent-process state -- is identical to the serial run.

    ``on_error='raise'`` raises :class:`SweepError` once the whole
    sweep has drained (serial mode raises in place, preserving the
    original exception); ``on_error='keep'`` leaves a
    :class:`PointFailure` in the failed slot.

    ``retries`` grants each point that many *extra* attempts when it
    fails with a transient error type (``transient`` overrides
    :data:`TRANSIENT_ERROR_TYPES`), with exponential backoff
    (``retry_backoff * 2**(attempt-1)`` seconds) between attempts; in
    pool mode every retry runs on a freshly spawned worker.  A point
    that exhausts the budget is quarantined (see :class:`PointFailure`).

    ``journal`` (a :class:`repro.experiments.campaign.Journal`) makes
    the sweep resumable: completed points are recorded durably and
    served from the journal on re-runs.  ``journal_if`` optionally
    filters which successful results are worth journaling.

    ``point_timeout`` kills any single point exceeding that many
    wall-clock seconds (a retryable ``PointTimeout`` failure); it
    forces pool execution even at jobs=1, since hang conversion needs
    a killable process boundary.

    ``seed_kwarg`` names a keyword argument of ``fn`` that receives the
    point's derived seed (``spawn_seed(seed_root, label, index)``);
    without it the seeds are still derived and reported through
    ``progress`` so stochastic figures can adopt them incrementally.

    ``progress`` (parent-side) receives dict events:
    ``{"event": "start"|"done"|"retry", "label", "index", "point",
    "ok", "wall_s", "seed", "attempt", "cached"}`` (keys as relevant).
    """
    if on_error not in ("raise", "keep"):
        raise ValueError(f"on_error must be 'raise' or 'keep', not {on_error!r}")
    points = list(points)
    label = label or getattr(fn, "__name__", "sweep")
    seeds = point_seeds(seed_root, label, len(points))
    n_jobs = _resolve_jobs(jobs, len(points))
    cfg = _SweepConfig(
        fn=fn, points=points, label=label, seeds=seeds,
        seed_kwarg=seed_kwarg, on_error=on_error, progress=progress,
        retries=max(0, int(retries)),
        retry_backoff=max(0.0, float(retry_backoff)),
        transient=frozenset(transient) if transient is not None
        else TRANSIENT_ERROR_TYPES,
        journal=journal, journal_if=journal_if,
        point_timeout=point_timeout, run=runconfig.current(),
    )
    # Hang conversion needs a killable process boundary; route a
    # timed sweep through a pool even when it is otherwise serial.
    if n_jobs <= 1 and not (point_timeout and not _IN_WORKER):
        return _sweep_serial(cfg)
    return _sweep_pool(cfg, n_jobs)


# ---------------------------------------------------------------------------
# serial execution (the reference semantics)
# ---------------------------------------------------------------------------

def _journal_key_of(cfg: _SweepConfig, index: int) -> str:
    """Journal key of one point: (label, seed, point).

    The seed enters the key only for seeded sweeps (``seed_kwarg``
    set): an unseeded ``fn`` cannot depend on the per-point seed, so
    its records stay valid -- and reusable -- whatever position the
    point occupies in a later selection (``runall --resume`` with a
    different figure subset).
    """
    from repro.experiments.campaign import point_key

    seed = cfg.seeds[index] if cfg.seed_kwarg else None
    return point_key(cfg.label, seed, cfg.points[index],
                     extra=cfg.run.journal_extra)


def _journal_lookup(cfg: _SweepConfig, index: int):
    """``(value, peak)`` journaled for this point, or None."""
    if cfg.journal is None:
        return None
    return cfg.journal.lookup(_journal_key_of(cfg, index))


def _journal_record(cfg: _SweepConfig, index: int, value, peak,
                    blob: bytes | None = None) -> None:
    if cfg.journal is None:
        return
    if cfg.journal_if is not None and not cfg.journal_if(value):
        return
    key = _journal_key_of(cfg, index)
    try:
        if blob is not None:
            cfg.journal.record_bytes(key, blob, meta={"index": index})
        else:
            cfg.journal.record(key, (value, peak), meta={"index": index})
    except Exception:
        # Journaling is an optimisation for the *next* run; never let a
        # record failure (unpicklable value, full disk) kill this one.
        pass


def _sweep_serial(cfg: _SweepConfig) -> list:
    from repro.hw import memory as hw_memory

    results = []
    failures = []
    for index, point in enumerate(cfg.points):
        cached = _journal_lookup(cfg, index)
        if cached is not None:
            value, peak = cached
            hw_memory.record_peak(peak)
            results.append(value)
            if cfg.progress is not None:
                cfg.progress({"event": "done", "label": cfg.label,
                              "index": index, "point": point, "ok": True,
                              "wall_s": 0.0, "seed": cfg.seeds[index],
                              "cached": True})
            continue
        if cfg.progress is not None:
            cfg.progress({"event": "start", "label": cfg.label, "index": index,
                          "point": point, "seed": cfg.seeds[index]})
        t0 = time.perf_counter()
        value, ok, attempts = _run_point_serial(cfg, index, point)
        if not ok:
            failures.append(value)
        results.append(value)
        if cfg.progress is not None:
            cfg.progress({"event": "done", "label": cfg.label, "index": index,
                          "point": point, "ok": ok,
                          "wall_s": time.perf_counter() - t0,
                          "seed": cfg.seeds[index], "attempt": attempts})
    return results


def _run_point_serial(cfg: _SweepConfig, index: int, point):
    """One point, serial mode, with in-place retries.

    Returns ``(value_or_failure, ok, attempts)``.  ``on_error='raise'``
    re-raises the original exception once the retry budget is spent
    (preserving serial raise semantics for non-retrying callers).
    """
    from repro.hw import memory as hw_memory

    attempts = 0
    while True:
        attempts += 1
        # Isolate this point's watermark so its journal record carries
        # its own peak; max-merge keeps the global watermark exact.
        before = hw_memory.peak_stats()
        hw_memory.reset_peak_stats()
        try:
            value = _call_point(cfg.fn, point, cfg.seed_kwarg,
                                cfg.seeds[index])
            peak = hw_memory.peak_stats()
            hw_memory.record_peak(before)
            _journal_record(cfg, index, value, peak)
            return value, True, attempts
        except Exception as exc:
            hw_memory.record_peak(before)
            retryable = (type(exc).__name__ in cfg.transient
                         and attempts <= cfg.retries)
            if retryable:
                if cfg.progress is not None:
                    cfg.progress({"event": "retry", "label": cfg.label,
                                  "index": index, "point": point,
                                  "attempt": attempts,
                                  "error_type": type(exc).__name__,
                                  "seed": cfg.seeds[index]})
                backoff = cfg.retry_backoff * (2 ** (attempts - 1))
                if backoff > 0:
                    time.sleep(backoff)
                continue
            if cfg.on_error == "raise":
                raise
            failure = PointFailure(
                index=index, point=point,
                error_type=type(exc).__name__, message=str(exc),
                traceback=traceback.format_exc(),
                attempts=attempts, quarantined=True,
            )
            return failure, False, attempts


# ---------------------------------------------------------------------------
# pool execution
# ---------------------------------------------------------------------------

class _Pool:
    """Parent-side scheduler: dispatch, retry, hang watchdog, respawn.

    Unlike a shared task queue, the parent hands each worker exactly one
    point at a time through a private queue.  That makes every unit of
    work attributable -- a dead or hung worker implicates exactly one
    known point -- so retries, timeouts and replacement workers are
    race-free by construction.
    """

    def __init__(self, cfg: _SweepConfig, n_jobs: int):
        self.cfg = cfg
        self.n_jobs = n_jobs
        self.ctx = mp.get_context("spawn")
        self.result_q = self.ctx.Queue()
        self.workers: dict[int, _Worker] = {}
        self._next_wid = 0
        self.pending: list[int] = []          # indices awaiting dispatch
        self.retry_at: list[tuple[float, int]] = []  # (monotonic, index) heap
        self.attempts: dict[int, int] = {}
        self.messages: list[tuple] = []
        self.completed: set[int] = set()
        self.last_event = time.monotonic()

    # -- lifecycle ------------------------------------------------------

    def spawn_worker(self) -> _Worker:
        wid = self._next_wid
        self._next_wid += 1
        task_q = self.ctx.Queue()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(wid, self.cfg.fn, self.cfg.seed_kwarg, self.cfg.run,
                  task_q, self.result_q),
            daemon=True,
        )
        proc.start()
        worker = _Worker(wid=wid, proc=proc, task_q=task_q)
        self.workers[wid] = worker
        return worker

    def retire_worker(self, worker: _Worker, kill: bool = False) -> None:
        self.workers.pop(worker.wid, None)
        if worker.proc.is_alive():
            if kill:
                worker.proc.kill()
            else:
                worker.proc.terminate()
        worker.task_q.cancel_join_thread()

    def shutdown(self) -> None:
        for worker in list(self.workers.values()):
            if worker.proc.is_alive():
                try:
                    worker.task_q.put(None)
                except Exception:  # pragma: no cover - queue torn down
                    pass
        deadline = time.monotonic() + 5.0
        for worker in list(self.workers.values()):
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            worker.task_q.cancel_join_thread()
        self.result_q.cancel_join_thread()

    # -- scheduling -----------------------------------------------------

    def unresolved(self) -> int:
        return len(self.cfg.points) - len(self.completed)

    def promote_due_retries(self) -> None:
        now = time.monotonic()
        while self.retry_at and self.retry_at[0][0] <= now:
            _, index = heapq.heappop(self.retry_at)
            # A late result may have completed the point while its
            # retry was waiting out the backoff.
            if index not in self.completed:
                self.pending.append(index)

    def dispatch(self) -> None:
        """Hand pending points to idle live workers, spawning up to the
        job budget when dispatchable work outnumbers live workers."""
        if not self.pending:
            return
        for worker in list(self.workers.values()):
            if worker.index is None and not worker.proc.is_alive():
                # Died while idle (exit-on-exception path): replace lazily.
                self.retire_worker(worker)
        busy = sum(1 for w in self.workers.values() if w.index is not None)
        while self.pending and len(self.workers) < min(self.n_jobs,
                                                       busy + len(self.pending)):
            self.spawn_worker()
        for worker in self.workers.values():
            while self.pending and self.pending[0] in self.completed:
                self.pending.pop(0)
            if not self.pending:
                break
            if worker.index is not None:
                continue
            index = self.pending.pop(0)
            self.attempts[index] = self.attempts.get(index, 0) + 1
            worker.index = index
            worker.started = time.monotonic()
            worker.task_q.put((index, self.cfg.points[index],
                               self.cfg.seeds[index]))
            self._progress({"event": "start", "index": index,
                            "attempt": self.attempts[index]})

    def _progress(self, ev: dict) -> None:
        if self.cfg.progress is None:
            return
        index = ev["index"]
        ev.setdefault("label", self.cfg.label)
        ev.setdefault("point", self.cfg.points[index])
        ev.setdefault("seed", self.cfg.seeds[index])
        self.cfg.progress(ev)

    # -- resolution -----------------------------------------------------

    def resolve_ok(self, index: int, value, peak, wall: float,
                   blob: bytes | None = None) -> None:
        from repro.hw import memory as hw_memory

        if index in self.completed:
            return
        hw_memory.record_peak(peak)
        self.messages.append(("ok", index, value))
        self.completed.add(index)
        self.last_event = time.monotonic()
        _journal_record(self.cfg, index, value, peak, blob=blob)
        self._progress({"event": "done", "index": index, "ok": True,
                        "wall_s": wall,
                        "attempt": self.attempts.get(index, 1)})

    def resolve_err(self, index: int, failure: PointFailure,
                    wall: float = 0.0) -> bool:
        """Retry a transient failure within budget, else quarantine.

        Returns True when a retry was scheduled (the caller retires the
        reporting worker, if still alive, so the retry runs on a fresh
        process)."""
        if index in self.completed:
            return False
        self.last_event = time.monotonic()
        attempts = self.attempts.get(index, 1)
        if (failure.error_type in self.cfg.transient
                and attempts <= self.cfg.retries):
            self._progress({"event": "retry", "index": index,
                            "attempt": attempts,
                            "error_type": failure.error_type})
            backoff = self.cfg.retry_backoff * (2 ** (attempts - 1))
            heapq.heappush(self.retry_at,
                           (time.monotonic() + backoff, index))
            return True
        failure.attempts = attempts
        failure.quarantined = self.cfg.on_error == "keep"
        self.messages.append(("err", index, failure))
        self.completed.add(index)
        self._progress({"event": "done", "index": index, "ok": False,
                        "wall_s": wall, "attempt": attempts})
        return False

    # -- failure detection ----------------------------------------------

    def reap_dead_workers(self) -> None:
        """Dead worker with a dispatched point -> WorkerDied failure."""
        for worker in list(self.workers.values()):
            if worker.proc.is_alive():
                continue
            index = worker.index
            self.retire_worker(worker)
            if index is None or index in self.completed:
                continue
            self.resolve_err(index, PointFailure(
                index=index, point=self.cfg.points[index],
                error_type="WorkerDied",
                message=f"worker {worker.wid} exited with code "
                        f"{worker.proc.exitcode} while running point "
                        f"#{index}",
            ))

    def kill_overdue_workers(self) -> None:
        """Per-point hang watchdog: kill and convert to PointTimeout."""
        if not self.cfg.point_timeout:
            return
        now = time.monotonic()
        for worker in list(self.workers.values()):
            if worker.index is None:
                continue
            if now - worker.started <= self.cfg.point_timeout:
                continue
            index = worker.index
            self.retire_worker(worker, kill=True)
            self.resolve_err(index, PointFailure(
                index=index, point=self.cfg.points[index],
                error_type="PointTimeout",
                message=f"point #{index} exceeded the "
                        f"{self.cfg.point_timeout:.1f}s hang watchdog "
                        f"(worker {worker.wid} killed)",
            ), wall=now - worker.started)

    def fail_stalled(self, why: str) -> None:
        """Backstop: mark every unresolved point failed (no retry)."""
        self.pending.clear()
        self.retry_at.clear()
        for index in range(len(self.cfg.points)):
            if index in self.completed:
                continue
            self.attempts[index] = max(self.attempts.get(index, 1),
                                       self.cfg.retries + 1)
            self.resolve_err(index, PointFailure(
                index=index, point=self.cfg.points[index],
                error_type="WorkerDied", message=why,
            ))


def _sweep_pool(cfg: _SweepConfig, n_jobs: int) -> list:
    from repro.hw import memory as hw_memory

    pool = _Pool(cfg, n_jobs)

    # Serve journaled points before any worker spawns.
    for index in range(len(cfg.points)):
        cached = _journal_lookup(cfg, index)
        if cached is not None:
            value, peak = cached
            hw_memory.record_peak(peak)
            pool.messages.append(("ok", index, value))
            pool.completed.add(index)
            pool._progress({"event": "done", "index": index, "ok": True,
                            "wall_s": 0.0, "cached": True})
        else:
            pool.pending.append(index)

    try:
        while pool.unresolved():
            pool.promote_due_retries()
            pool.dispatch()
            if not pool.workers and not pool.pending and not pool.retry_at:
                pool.fail_stalled("all workers exited before running "
                                  "this point")
                continue
            wait = 1.0
            if pool.retry_at:
                wait = min(wait, max(0.01,
                                     pool.retry_at[0][0] - time.monotonic()))
            try:
                kind, wid, index, payload = pool.result_q.get(timeout=wait)
            except Empty:
                pool.reap_dead_workers()
                pool.kill_overdue_workers()
                if (pool.unresolved()
                        and not any(w.proc.is_alive()
                                    for w in pool.workers.values())
                        and not pool.pending and not pool.retry_at):
                    pool.fail_stalled("all workers exited before running "
                                      "this point")
                elif (pool.unresolved()
                      and time.monotonic() - pool.last_event
                      > cfg.run.stall_timeout
                      and not pool.pending and not pool.retry_at
                      and all(w.index is None
                              for w in pool.workers.values())):
                    # Nothing dispatched, nothing due, nothing arriving:
                    # results were lost in transit (worker death races).
                    pool.fail_stalled("sweep stalled after a worker death")
                continue
            worker = pool.workers.get(wid)
            if worker is not None and worker.index == index:
                worker.index = None
            blob, wall = payload
            value = pickle.loads(blob)
            if kind == "ok":
                result, peak = value
                pool.resolve_ok(index, result, peak, wall, blob=blob)
            else:
                retried = pool.resolve_err(index, value, wall=wall)
                if retried and worker is not None:
                    # Fresh-worker discipline: the process that just
                    # failed this point is idle (its private queue is
                    # empty), so retiring it here is race-free; the
                    # next dispatch spawns a clean replacement.
                    pool.retire_worker(worker)
    finally:
        pool.shutdown()

    merged = merge_messages(len(cfg.points), pool.messages)
    failures = [r for r in merged if isinstance(r, PointFailure)]
    if failures and cfg.on_error == "raise":
        raise SweepError(failures)
    return merged
