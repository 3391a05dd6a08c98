"""Process-pool scheduler for embarrassingly parallel sweeps.

Every paper figure is (or contains) a sweep: an ordered list of
independent points -- ``(message_size, variant)``, ``(flavor, nodes,
block)`` -- each of which builds its own :class:`~repro.hw.Cluster`,
runs one isolated simulation, and returns a picklable record.
:func:`sweep_map` runs those points either serially (the reference
semantics) or across worker processes, and **merges the results in
point order**, so the output is bit-identical to the serial run
regardless of job count or completion order.

Design rules that make "parallel changes nothing" hold:

* **Ordered merge.**  The parent pushes the next undone point to the
  first idle worker, one point per worker at a time; results come back
  tagged with their point index, and :func:`merge_messages`
  re-assembles them in index order.
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

Each worker owns one duplex pipe and the parent blocks on the busy
workers' pipes and process sentinels together.  A pipe send has no
feeder thread, so by the time a worker's sentinel fires everything it
sent is readable; the parent drains a ready pipe before it reads a
death into it.  Every dispatched point is therefore resolved by exactly
one of three things: a result, a worker death (``WorkerDied``) or a
passed deadline (``PointTimeout``).

Retries, quarantine, the ``point_timeout`` hang watchdog and the
resume journal are described on :func:`sweep_map` and in
docs/RESILIENCE.md.  Both execution modes resolve every attempt through
one :class:`_Sweep`, so retry classification, backoff, quarantine,
journal records and ``progress`` events are written once.

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
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing.connection import wait
from typing import Any, Callable, Iterable, Sequence

from repro import runconfig
from repro.experiments.campaign import point_key
from repro.hw import memory as hw_memory
from repro.sim.rng import spawn_seed

__all__ = [
    "PointFailure",
    "SweepError",
    "TRANSIENT_ERROR_TYPES",
    "sweep_map",
    "merge_messages",
    "point_seeds",
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

#: Seconds before a failed point's first retry; each further retry of
#: the same point waits twice as long as the one before.
RETRY_BACKOFF = 0.05


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


def _failure(index: int, point, exc: BaseException) -> PointFailure:
    """The failure record of an attempt that raised ``exc`` (called
    inside the ``except`` block, so the traceback is the live one)."""
    return PointFailure(index=index, point=point,
                        error_type=type(exc).__name__, message=str(exc),
                        traceback=traceback.format_exc())


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


def _call_point(fn: Callable, point, seed_kwarg: str | None, seed: int):
    args = point if isinstance(point, tuple) else (point,)
    if seed_kwarg:
        return fn(*args, **{seed_kwarg: seed})
    return fn(*args)


# ---------------------------------------------------------------------------
# the sweep: one resolution path for both execution modes
# ---------------------------------------------------------------------------

class _Sweep:
    """One sweep's points and the one place an attempt is resolved.

    Both executors call :meth:`start` before every attempt and
    :meth:`finish` or :meth:`fail` after it, so retry classification,
    backoff, quarantine, journal records and progress events are the
    same in-process and in a pool.
    """

    def __init__(self, fn: Callable, points: list, label: str,
                 seed_root: int, seed_kwarg: str | None, on_error: str,
                 progress: Callable[[dict], None] | None, retries: int,
                 journal, journal_if: Callable[[Any], bool] | None):
        self.fn = fn
        self.points = points
        self.label = label
        self.seeds = point_seeds(seed_root, label, len(points))
        self.seed_kwarg = seed_kwarg
        self.on_error = on_error
        self.progress = progress
        self.retries = retries
        self.journal = journal
        self.journal_if = journal_if
        #: The parent's run config: journal engine key, and what every
        #: worker installs.
        self.run = runconfig.current()
        self.attempts = [0] * len(points)
        self.messages: list[tuple] = []

    def unresolved(self) -> int:
        return len(self.points) - len(self.messages)

    def _event(self, event: str, index: int, **fields) -> None:
        if self.progress is not None:
            self.progress({"event": event, "label": self.label,
                           "index": index, "point": self.points[index],
                           "seed": self.seeds[index], **fields})

    def _journal_key(self, index: int) -> str:
        """Journal key of one point: (label, seed, point).

        The seed enters the key only for seeded sweeps (``seed_kwarg``
        set): an unseeded ``fn`` cannot depend on the per-point seed, so
        its records stay valid -- and reusable -- whatever position the
        point occupies in a later selection (``runall --resume`` with a
        different figure subset).
        """
        seed = self.seeds[index] if self.seed_kwarg else None
        return point_key(self.label, seed, self.points[index],
                         extra=self.run.journal_extra)

    def serve_journaled(self) -> list[int]:
        """Resolve every journaled point; return the indices left to run."""
        todo = []
        for index in range(len(self.points)):
            cached = (None if self.journal is None
                      else self.journal.lookup(self._journal_key(index)))
            if cached is None:
                todo.append(index)
                continue
            value, peak = cached
            hw_memory.record_peak(peak)
            self.messages.append(("ok", index, value))
            self._event("done", index, ok=True, wall_s=0.0, cached=True)
        return todo

    def start(self, index: int) -> tuple:
        """Count one attempt at ``index``; return its task."""
        self.attempts[index] += 1
        self._event("start", index, attempt=self.attempts[index])
        return index, self.points[index], self.seeds[index]

    def finish(self, index: int, value, peak, wall: float,
               blob: bytes | None = None) -> None:
        """Resolve ``index`` with ``value``.  ``blob`` is the worker's
        pickle of ``(value, peak)``, journaled as is."""
        hw_memory.record_peak(peak)
        self.messages.append(("ok", index, value))
        if self.journal is not None and (self.journal_if is None
                                         or self.journal_if(value)):
            try:
                self.journal.record_bytes(
                    self._journal_key(index),
                    blob or pickle.dumps((value, peak)), meta={"index": index})
            except Exception:
                # Journaling is an optimisation for the *next* run; never
                # let a record failure (unpicklable value, full disk)
                # kill this one.
                pass
        self._event("done", index, ok=True, wall_s=wall,
                    attempt=self.attempts[index])

    def fail(self, index: int, failure: PointFailure,
             wall: float) -> float | None:
        """Resolve a failed attempt at ``index``.

        Returns the backoff before a retry when the failure is transient
        and the point has budget left; otherwise records the failure in
        the point's slot and returns None.
        """
        attempts = self.attempts[index]
        if (failure.error_type in TRANSIENT_ERROR_TYPES
                and attempts <= self.retries):
            self._event("retry", index, attempt=attempts,
                        error_type=failure.error_type)
            return RETRY_BACKOFF * 2 ** (attempts - 1)
        failure.attempts = attempts
        failure.quarantined = self.on_error == "keep"
        self.messages.append(("err", index, failure))
        self._event("done", index, ok=False, wall_s=wall, attempt=attempts)
        return None

    def result(self) -> list:
        merged = merge_messages(len(self.points), self.messages)
        failures = [r for r in merged if isinstance(r, PointFailure)]
        if failures and self.on_error == "raise":
            raise SweepError(failures)
        return merged


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
    fails with one of :data:`TRANSIENT_ERROR_TYPES`, waiting
    ``RETRY_BACKOFF * 2**(attempt-1)`` seconds before each; in pool
    mode every retry runs on a freshly spawned worker.  A point that
    exhausts the budget is quarantined (see :class:`PointFailure`).

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
    sweep = _Sweep(fn, points, label, seed_root, seed_kwarg, on_error,
                   progress, max(0, int(retries)), journal, journal_if)
    todo = sweep.serve_journaled()
    n_jobs = _resolve_jobs(jobs, len(todo))
    # Hang conversion needs a killable process boundary; route a
    # timed sweep through a pool even when it is otherwise serial.
    if n_jobs > 1 or (point_timeout and not _IN_WORKER):
        _Pool(sweep, n_jobs, point_timeout).run(todo)
    else:
        _run_serial(sweep, todo)
    return sweep.result()


# ---------------------------------------------------------------------------
# serial execution (the reference semantics)
# ---------------------------------------------------------------------------

def _run_serial(sweep: _Sweep, todo: list[int]) -> None:
    """Run ``todo`` in this process, in point order; a point's retries
    run before the next point starts.  ``on_error='raise'`` re-raises
    the original exception once the point's retry budget is spent."""
    for index in todo:
        while True:
            _, point, seed = sweep.start(index)
            # Isolate this point's watermark so its journal record
            # carries its own peak; max-merge keeps the global one exact.
            before = hw_memory.peak_stats()
            hw_memory.reset_peak_stats()
            t0 = time.perf_counter()
            try:
                value = _call_point(sweep.fn, point, sweep.seed_kwarg, seed)
            except Exception as exc:
                hw_memory.record_peak(before)
                backoff = sweep.fail(index, _failure(index, point, exc),
                                     time.perf_counter() - t0)
                if backoff is None:
                    if sweep.on_error == "raise":
                        raise
                    break
                time.sleep(backoff)
            else:
                peak = hw_memory.peak_stats()
                hw_memory.record_peak(before)
                sweep.finish(index, value, peak, time.perf_counter() - t0)
                break


# ---------------------------------------------------------------------------
# pool execution
# ---------------------------------------------------------------------------

def _worker_main(fn, seed_kwarg, run: runconfig.RunConfig, conn) -> None:
    """Serve points from ``conn`` until the parent closes it.

    The parent sends one ``(index, point, seed)`` task at a time and
    reads one reply per task: ``(True, pickle of (value, peak), wall)``
    or ``(False, PointFailure, wall)``.  A worker that failed a point
    exits, so no attempt ever runs in a process another attempt broke.
    ``run`` is the parent's config, installed with ``jobs=1``.
    """
    global _IN_WORKER
    _IN_WORKER = True
    runconfig.install(replace(run, jobs=1))
    while True:
        try:
            index, point, seed = conn.recv()
        except EOFError:
            return
        hw_memory.reset_peak_stats()
        t0 = time.perf_counter()
        try:
            value = _call_point(fn, point, seed_kwarg, seed)
            # Pickle here, synchronously: an unpicklable result must
            # surface as this point's failure.  The same blob doubles
            # as the journal payload on the parent side.
            blob = pickle.dumps((value, hw_memory.peak_stats()))
        except BaseException as exc:  # noqa: BLE001 - crash isolation
            conn.send((False, _failure(index, point, exc),
                       time.perf_counter() - t0))
            return
        conn.send((True, blob, time.perf_counter() - t0))


@dataclass
class _Worker:
    """Parent-side handle of one worker process and its pipe end."""

    proc: Any
    conn: Any
    #: Point index dispatched to this worker while it is busy.
    index: int = -1
    #: ``time.monotonic()`` of the dispatch (hang watchdog anchor).
    started: float = 0.0


class _Pool:
    """Parent-side scheduler: dispatch, death and deadline detection.

    The parent hands each worker exactly one point at a time, so every
    unit of work is attributable -- a dead or hung worker implicates
    exactly one known point -- and retries, timeouts and replacement
    workers are race-free by construction.
    """

    def __init__(self, sweep: _Sweep, n_jobs: int,
                 point_timeout: float | None):
        self.sweep = sweep
        self.n_jobs = n_jobs
        self.point_timeout = point_timeout or None
        self.ctx = mp.get_context("spawn")
        self.pending: deque[int] = deque()
        self.retry_at: list[tuple[float, int]] = []  # (monotonic, index) heap
        self.idle: list[_Worker] = []
        self.busy: list[_Worker] = []

    def run(self, todo: list[int]) -> None:
        self.pending.extend(todo)
        try:
            while self.sweep.unresolved():
                self.dispatch()
                ready = set(wait([o for w in self.busy
                                  for o in (w.conn, w.proc.sentinel)],
                                 self.wait_timeout()))
                now = time.monotonic()
                for worker in list(self.busy):
                    if worker.conn in ready or worker.proc.sentinel in ready:
                        self.collect(worker)
                    elif (self.point_timeout is not None
                          and now - worker.started >= self.point_timeout):
                        self.lost(worker, "PointTimeout",
                                  f"exceeded the {self.point_timeout:.1f}s "
                                  f"hang watchdog; worker killed")
        finally:
            self.shutdown()

    # -- scheduling -----------------------------------------------------

    def spawn(self) -> _Worker:
        conn, child = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(self.sweep.fn, self.sweep.seed_kwarg, self.sweep.run, child),
            daemon=True,
        )
        proc.start()
        # Only the worker holds the other end now, so its exit reads as
        # EOF on ``conn``.
        child.close()
        return _Worker(proc=proc, conn=conn)

    def dispatch(self) -> None:
        """Queue due retries, then hand pending points to idle workers,
        spawning up to the job budget."""
        now = time.monotonic()
        while self.retry_at and self.retry_at[0][0] <= now:
            self.pending.append(heapq.heappop(self.retry_at)[1])
        while self.pending and len(self.busy) < self.n_jobs:
            worker = self.idle.pop() if self.idle else self.spawn()
            if not worker.proc.is_alive():
                self.retire(worker)
                continue
            worker.index = self.pending.popleft()
            worker.started = now
            self.busy.append(worker)
            try:
                worker.conn.send(self.sweep.start(worker.index))
            except OSError:
                pass  # the worker is gone: its sentinel resolves the point

    def wait_timeout(self) -> float | None:
        """Seconds until the earliest retry due time or point deadline."""
        due = [self.retry_at[0][0]] if self.retry_at else []
        if self.point_timeout is not None:
            due += [w.started + self.point_timeout for w in self.busy]
        return max(0.0, min(due) - time.monotonic()) if due else None

    # -- resolution -----------------------------------------------------

    def collect(self, worker: _Worker) -> None:
        """Resolve ``worker``'s point from its reply or, when nothing is
        left to read, from its death."""
        try:
            reply = worker.conn.recv() if worker.conn.poll() else None
        except (EOFError, OSError):
            reply = None
        if reply is None:
            self.lost(worker, "WorkerDied", "worker exited")
            return
        self.busy.remove(worker)
        ok, payload, wall = reply
        if ok:
            value, peak = pickle.loads(payload)
            self.idle.append(worker)
            self.sweep.finish(worker.index, value, peak, wall, blob=payload)
        else:
            self.retire(worker)  # it exits after a failure anyway
            self.failed(worker.index, payload, wall)

    def lost(self, worker: _Worker, error_type: str, what: str) -> None:
        """``worker`` died or overran its deadline holding its point."""
        self.busy.remove(worker)
        self.retire(worker)
        index = worker.index
        self.failed(index, PointFailure(
            index=index, point=self.sweep.points[index],
            error_type=error_type,
            message=f"point #{index}: {what} (pid {worker.proc.pid}, "
                    f"exit code {worker.proc.exitcode})",
        ), time.monotonic() - worker.started)

    def failed(self, index: int, failure: PointFailure, wall: float) -> None:
        backoff = self.sweep.fail(index, failure, wall)
        if backoff is not None:
            heapq.heappush(self.retry_at, (time.monotonic() + backoff, index))

    # -- lifecycle ------------------------------------------------------

    def retire(self, worker: _Worker) -> None:
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join()
        worker.conn.close()

    def shutdown(self) -> None:
        """Close idle workers' pipes (they exit on EOF); kill the busy
        ones, which only an exception in the parent leaves behind."""
        for worker in self.busy:
            worker.proc.kill()
        for worker in self.idle + self.busy:
            worker.conn.close()
        deadline = time.monotonic() + 5.0
        for worker in self.idle + self.busy:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join()
