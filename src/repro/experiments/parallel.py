"""Process-pool scheduler for embarrassingly parallel sweeps.

Every paper figure is one or more sweeps: an ordered list of
independent points -- ``(message_size, variant)``, ``(flavor, nodes,
block)`` -- each of which builds its own :class:`~repro.hw.Cluster`,
runs one isolated simulation, and returns a picklable record.
:func:`run_sweeps` runs the points of many sweeps as one list (a
campaign's), serially or across worker processes, and **merges the
results in point order**, so the output is bit-identical to the serial
run regardless of job count or completion order.

Design rules that make "parallel changes nothing" hold:

* **Ordered merge.**  The parent pushes the next undone point to the
  first idle worker, one point per worker at a time, function included;
  results come back tagged with their slot, and :func:`merge_messages`
  re-assembles them in point order.
* **Seeds from the spec, never the clock.**  Each point gets a seed
  derived by :func:`repro.sim.rng.spawn_seed` from the root seed and
  the point's stable key ``(label, index)``.  The derivation is pure,
  so job count, completion order and retries cannot perturb it.
* **Fresh interpreters.**  Workers are started with the ``spawn``
  method: no inherited module-global counters, caches or RNG state
  from the parent can leak into a point's behaviour.
* **Crash isolation.**  A point that raises (or a worker process that
  dies outright) surfaces as a structured :class:`PointFailure` in the
  merged result instead of killing the sweep -- the same keep-going
  semantics ``runall`` applies to whole figures.
* **Per-point watermarks.**  Every point measures
  ``hw.memory.peak_stats()`` over itself alone, in whichever process
  runs it, and hands it back in its :class:`PointResult`; a caller
  max-merges the peaks of the points it cares about.

Each worker owns one duplex pipe and the parent blocks on the busy
workers' pipes and process sentinels together.  A pipe send has no
feeder thread, so by the time a worker's sentinel fires everything it
sent is readable; the parent drains a ready pipe before it reads a
death into it.  Every dispatched point is therefore resolved by exactly
one of three things: a result, a worker death (``WorkerDied``) or a
passed deadline (``PointTimeout``).

Retries, quarantine, the ``point_timeout`` hang watchdog and the
resume journal are described on :func:`run_sweeps` and in
docs/RESILIENCE.md.  Both execution modes resolve every attempt through
one :class:`_Run`, so retry classification, backoff, quarantine,
journal records and ``progress`` events are written once.
"""

from __future__ import annotations

import gc
import heapq
import math
import multiprocessing as mp
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Iterable, Sequence

from repro.experiments.campaign import point_key
from repro.hw import memory as hw_memory
from repro.sim.rng import spawn_seed

__all__ = [
    "PointFailure",
    "PointResult",
    "Sweep",
    "SweepError",
    "TRANSIENT_ERROR_TYPES",
    "run_sweeps",
    "sweep_map",
    "merge_messages",
]

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


# ---------------------------------------------------------------------------
# sweeps and their outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sweep:
    """Independent points and the module-level ``fn(*point)`` that runs
    one.  Label and point are a point's journal key, so a point holds
    every argument its value depends on, the scale included."""

    label: str
    fn: Callable
    points: list


@dataclass(frozen=True)
class PointResult:
    """A completed point: its value, the peak resident bytes per side it
    reached on its own, and its wall time (0.0 when journal-served)."""

    value: Any
    peak: dict
    wall_s: float


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


def _call_point(fn: Callable, point, kwargs: dict) -> tuple:
    """Run one point, in process or in a worker: ``(value, peak)``.

    The cyclic collector pauses for the point: its generation-0 sweeps
    cost several percent and find nothing, since a finished job is freed
    by refcount (tests/test_memory_lifetime.py).  Paused, nothing leaves
    generation 0, so the young collection after sees all the point made:
    the cycles of a bare Cluster it never closed.
    """
    args = point if isinstance(point, tuple) else (point,)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    hw_memory.reset_peak_stats()
    try:
        return fn(*args, **kwargs), hw_memory.peak_stats()
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect(0)


# ---------------------------------------------------------------------------
# the sweep: one resolution path for both execution modes
# ---------------------------------------------------------------------------

class _Run:
    """One run's points and the one place an attempt is resolved.

    Both executors call :meth:`start` before every attempt and
    :meth:`finish` or :meth:`fail` after it, so retry classification,
    backoff, quarantine, journal records and progress events are the
    same in-process and in a pool.  A point's *slot* is its position in
    the run; its ``index`` is its position in its own sweep.
    """

    def __init__(self, sweeps: list[Sweep], seed_root: int,
                 seed_kwarg: str | None, on_error: str,
                 progress: Callable[[dict], None] | None, retries: int,
                 journal):
        self.sweeps = sweeps
        self.slots = [(s, i) for s in sweeps for i in range(len(s.points))]
        self.seeds = [spawn_seed(seed_root, s.label, i) for s, i in self.slots]
        self.seed_kwarg = seed_kwarg
        self.on_error = on_error
        self.progress = progress
        self.retries = retries
        self.journal = journal
        self.attempts = [0] * len(self.slots)
        self.messages: list[tuple] = []

    def unresolved(self) -> int:
        return len(self.slots) - len(self.messages)

    def _event(self, event: str, slot: int, **fields) -> None:
        if self.progress is not None:
            sweep, index = self.slots[slot]
            self.progress({"event": event, "label": sweep.label,
                           "index": index, "point": sweep.points[index],
                           "seed": self.seeds[slot], **fields})

    def _journal_key(self, slot: int) -> str:
        """Journal key of one point: (label, seed, point).

        The seed enters the key only for seeded runs (``seed_kwarg``
        set): an unseeded ``fn`` cannot depend on the per-point seed, so
        its records stay valid -- and reusable -- whatever else a later
        run selects (``runall --resume`` with a different figure subset).
        """
        sweep, index = self.slots[slot]
        seed = self.seeds[slot] if self.seed_kwarg else None
        return point_key(sweep.label, seed, sweep.points[index])

    def serve_journaled(self) -> list[int]:
        """Resolve every journaled point; return the slots left to run."""
        todo = []
        for slot in range(len(self.slots)):
            cached = (None if self.journal is None
                      else self.journal.lookup(self._journal_key(slot)))
            if cached is None:
                todo.append(slot)
                continue
            value, peak = cached
            self.messages.append(("ok", slot, PointResult(value, peak, 0.0)))
            self._event("done", slot, ok=True, wall_s=0.0, cached=True)
        return todo

    def start(self, slot: int) -> tuple:
        """Count one attempt at ``slot``; return its message for the
        executor: ``(index, point, fn, kwargs)``."""
        self.attempts[slot] += 1
        self._event("start", slot, attempt=self.attempts[slot])
        sweep, index = self.slots[slot]
        kwargs = {self.seed_kwarg: self.seeds[slot]} if self.seed_kwarg else {}
        return index, sweep.points[index], sweep.fn, kwargs

    def finish(self, slot: int, value, peak, wall: float,
               blob: bytes | None = None) -> None:
        """Resolve ``slot`` with ``value``.  ``blob`` is the worker's
        pickle of ``(value, peak)``, journaled as is."""
        self.messages.append(("ok", slot, PointResult(value, peak, wall)))
        if self.journal is not None:
            try:
                self.journal.record_bytes(
                    self._journal_key(slot),
                    blob or pickle.dumps((value, peak)),
                    meta={"index": self.slots[slot][1]})
            except Exception:
                # Journaling is an optimisation for the *next* run; never
                # let a record failure (unpicklable value, full disk)
                # kill this one.
                pass
        self._event("done", slot, ok=True, wall_s=wall,
                    attempt=self.attempts[slot])

    def fail(self, slot: int, failure: PointFailure,
             wall: float) -> float | None:
        """Resolve a failed attempt at ``slot``.

        Returns the backoff before a retry when the failure is transient
        and the point has budget left; otherwise records the failure in
        the point's slot and returns None.
        """
        attempts = self.attempts[slot]
        if (failure.error_type in TRANSIENT_ERROR_TYPES
                and attempts <= self.retries):
            self._event("retry", slot, attempt=attempts,
                        error_type=failure.error_type)
            return RETRY_BACKOFF * 2 ** (attempts - 1)
        failure.attempts = attempts
        failure.quarantined = self.on_error == "keep"
        self.messages.append(("err", slot, failure))
        self._event("done", slot, ok=False, wall_s=wall, attempt=attempts)
        return None

    def result(self) -> list[list]:
        merged = iter(merge_messages(len(self.slots), self.messages))
        results = [[next(merged) for _ in s.points] for s in self.sweeps]
        failures = [r for rs in results for r in rs if isinstance(r, PointFailure)]
        if failures and self.on_error == "raise":
            raise SweepError(failures)
        return results


def run_sweeps(
    sweeps: Sequence[Sweep],
    jobs: int = 1,
    on_error: str = "raise",
    seed_root: int = 0,
    seed_kwarg: str | None = None,
    progress: Callable[[dict], None] | None = None,
    retries: int = 0,
    journal=None,
    point_timeout: float | None = None,
) -> list:
    """Run every point of every sweep; return, per sweep and in point
    order, a :class:`PointResult` per point that completed and a
    :class:`PointFailure` per point that did not.  With ``jobs > 1`` the
    points run on a spawn-based worker pool, dispatched in sweep and
    point order, one per worker at a time; the result is identical to
    the serial run's but for wall times.

    ``on_error='raise'`` raises :class:`SweepError` once every point has
    drained (serial mode raises in place, preserving the original
    exception); ``on_error='keep'`` leaves the failures in their slots.

    ``retries`` grants each point that many *extra* attempts when it
    fails with one of :data:`TRANSIENT_ERROR_TYPES`, waiting
    ``RETRY_BACKOFF * 2**(attempt-1)`` seconds before each; in pool
    mode every retry runs on a freshly spawned worker.  A point that
    exhausts the budget is quarantined (see :class:`PointFailure`).

    ``journal`` (a :class:`repro.experiments.campaign.Journal`) makes
    the run resumable: completed points are recorded durably and
    served from the journal on re-runs.

    ``point_timeout`` kills any single point exceeding that many
    wall-clock seconds (a retryable ``PointTimeout`` failure); it must
    be positive and finite, and it forces pool execution even at
    jobs=1, since hang conversion needs a killable process boundary.

    ``seed_kwarg`` names a keyword argument of every ``fn`` that
    receives the point's derived seed (``spawn_seed(seed_root, label,
    index)``); without it the seeds are still derived and reported
    through ``progress`` so stochastic sweeps can adopt them
    incrementally.

    ``progress`` (parent-side) receives dict events:
    ``{"event": "start"|"done"|"retry", "label", "index", "point",
    "ok", "wall_s", "seed", "attempt", "cached"}`` (keys as relevant).
    """
    if on_error not in ("raise", "keep"):
        raise ValueError(f"on_error must be 'raise' or 'keep', not {on_error!r}")
    if point_timeout is not None and not 0 < point_timeout < math.inf:
        raise ValueError("point_timeout must be a positive, finite number "
                         f"of seconds, not {point_timeout!r}")
    run = _Run(list(sweeps), seed_root, seed_kwarg, on_error, progress,
               max(0, int(retries)), journal)
    todo = run.serve_journaled()
    n_jobs = min(max(1, int(jobs)), max(1, len(todo)))
    # Hang conversion needs a killable process boundary; route a
    # timed run through a pool even when it is otherwise serial.
    if n_jobs > 1 or point_timeout is not None:
        _Pool(run, n_jobs, point_timeout).drain(todo)
    else:
        _run_serial(run, todo)
    return run.result()


def sweep_map(fn: Callable, points: Sequence, label: str | None = None,
              **options) -> list:
    """Run ``fn`` over ``points`` as sweep ``label`` (default: the
    function's name); return the values in point order, a
    :class:`PointFailure` in a failed point's slot.  Each point is a
    tuple of positional arguments for ``fn`` (a bare value is treated
    as a 1-tuple).  ``options`` are those of :func:`run_sweeps`."""
    sweep = Sweep(label or getattr(fn, "__name__", "sweep"), fn, list(points))
    (results,) = run_sweeps([sweep], **options)
    return [r.value if isinstance(r, PointResult) else r for r in results]


# ---------------------------------------------------------------------------
# serial execution (the reference semantics)
# ---------------------------------------------------------------------------

def _run_serial(run: _Run, todo: list[int]) -> None:
    """Run ``todo`` in this process, in slot order; a point's retries
    run before the next point starts.  ``on_error='raise'`` re-raises
    the original exception once the point's retry budget is spent."""
    for slot in todo:
        while True:
            index, point, fn, kwargs = run.start(slot)
            t0 = time.perf_counter()
            try:
                value, peak = _call_point(fn, point, kwargs)
            except Exception as exc:
                backoff = run.fail(slot, _failure(index, point, exc),
                                   time.perf_counter() - t0)
                if backoff is None:
                    if run.on_error == "raise":
                        raise
                    break
                time.sleep(backoff)
            else:
                run.finish(slot, value, peak, time.perf_counter() - t0)
                break


# ---------------------------------------------------------------------------
# pool execution
# ---------------------------------------------------------------------------

def _worker_main(conn) -> None:
    """Serve points from ``conn`` until the parent closes it.

    The parent sends one ``(index, point, fn, kwargs)`` task at a time
    and reads one reply per task: ``(True, pickle of (value, peak),
    wall)`` or ``(False, PointFailure, wall)``.  A worker that failed a
    point exits, so no attempt ever runs in a process another attempt
    broke.
    """
    while True:
        try:
            index, point, fn, kwargs = conn.recv()
        except EOFError:
            return
        t0 = time.perf_counter()
        try:
            # Pickle here, synchronously: an unpicklable result must
            # surface as this point's failure.  The same blob doubles
            # as the journal payload on the parent side.
            blob = pickle.dumps(_call_point(fn, point, kwargs))
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
    #: Slot of the point dispatched to this worker while it is busy.
    slot: int = -1
    #: ``time.monotonic()`` of the dispatch (hang watchdog anchor).
    started: float = 0.0


class _Pool:
    """Parent-side scheduler: dispatch, death and deadline detection.

    The parent hands each worker exactly one point at a time, so every
    unit of work is attributable -- a dead or hung worker implicates
    exactly one known point -- and retries, timeouts and replacement
    workers are race-free by construction.
    """

    def __init__(self, run: _Run, n_jobs: int,
                 point_timeout: float | None):
        self.run = run
        self.n_jobs = n_jobs
        self.point_timeout = point_timeout
        self.ctx = mp.get_context("spawn")
        self.pending: deque[int] = deque()
        self.retry_at: list[tuple[float, int]] = []  # (monotonic, slot) heap
        self.idle: list[_Worker] = []
        self.busy: list[_Worker] = []

    def drain(self, todo: list[int]) -> None:
        self.pending.extend(todo)
        try:
            while self.run.unresolved():
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
            args=(child,),
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
            worker.slot = self.pending.popleft()
            worker.started = now
            self.busy.append(worker)
            try:
                worker.conn.send(self.run.start(worker.slot))
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
            self.run.finish(worker.slot, value, peak, wall, blob=payload)
        else:
            self.retire(worker)  # it exits after a failure anyway
            self.failed(worker.slot, payload, wall)

    def lost(self, worker: _Worker, error_type: str, what: str) -> None:
        """``worker`` died or overran its deadline holding its point."""
        self.busy.remove(worker)
        self.retire(worker)
        sweep, index = self.run.slots[worker.slot]
        self.failed(worker.slot, PointFailure(
            index=index, point=sweep.points[index], error_type=error_type,
            message=f"point #{index}: {what} (pid {worker.proc.pid}, "
                    f"exit code {worker.proc.exitcode})",
        ), time.monotonic() - worker.started)

    def failed(self, slot: int, failure: PointFailure, wall: float) -> None:
        backoff = self.run.fail(slot, failure, wall)
        if backoff is not None:
            heapq.heappush(self.retry_at, (time.monotonic() + backoff, slot))

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
