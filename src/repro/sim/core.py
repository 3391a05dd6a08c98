"""Event calendar, events and condition events.

The engine follows the classic event-scheduling world view, with the
queue shaped for SPMD traffic where almost every event ties with its
predecessor: one FIFO bucket per simulated *instant* (float ``==``),
plus a heap of the distinct future instants.  The order is total and
fully deterministic: earlier instants first, and the events of one
instant fire in the order they were scheduled.

An :class:`Event` is a one-shot box: it is *pending* until somebody
calls :meth:`Event.succeed` or :meth:`Event.fail`, at which point it is
appended to the current instant's bucket and, when popped, delivers its
value to every registered callback (usually suspended processes).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import chain
from sys import getrefcount
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
    "DeadlockError",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (double trigger, etc.)."""


class DeadlockError(SimulationError):
    """The event queue ran dry while the simulation still had waiters.

    Raised by :meth:`Simulator.run` when an ``until`` event can never
    fire.  ``reports`` holds one human-readable line per outstanding
    wait, gathered from the registered :attr:`Simulator.watchdog_probes`
    (parked proxy executors, unmatched counter keys, pending offload or
    MPI requests), so a hang names its culprits instead of spinning
    forever.
    """

    def __init__(self, message: str, reports: Optional[list[str]] = None):
        self.reports = list(reports or [])
        if self.reports:
            message = message + "\n  outstanding waits:\n    " + "\n    ".join(self.reports)
        super().__init__(message)


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    ``cause`` carries an arbitrary, caller-defined payload.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Pending:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


#: Sentinel stored in :attr:`Event._value` while the event has no value yet.
PENDING = _Pending()


class Event:
    """A one-shot occurrence in simulated time.

    Processes wait on events by ``yield``-ing them; arbitrary code can
    observe them through :attr:`callbacks`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callables invoked as ``cb(event)`` when the event is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._scheduled = False
        #: Failed events whose exception was consumed set this to avoid
        #: the "unhandled failure" crash at processing time.
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule it at the current time.

        The schedule step is inlined (this is the hottest trigger path);
        it must stay equivalent to :meth:`Simulator._schedule_at` at
        ``now``.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if self._scheduled:
            raise SimulationError(f"{self!r} already scheduled")
        self._ok = True
        self._value = value
        self._scheduled = True
        self.sim._cur.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed; waiting processes get the exception thrown."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() expects an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule_at(self, self.sim.now)
        return self

    def defuse(self) -> None:
        """Declare a failure as handled so the kernel does not crash."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds in the future.

    Construction is deliberately flat (no ``super().__init__`` chain):
    timeouts dominate event traffic.  :meth:`Simulator.timeout` recycles
    processed instances through a free list, so this constructor only
    runs on pool misses.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which would never fire
            raise ValueError(f"negative or NaN delay {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = False
        self._defused = False
        self.delay = delay
        sim._schedule_at(self, sim.now + delay)


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("_events", "_count", "_results")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = tuple(events)
        self._count = 0
        # Child outcomes accumulate here as each child fires; the dict is
        # handed over wholesale at satisfaction time.  (The previous
        # implementation rebuilt it from scratch inside every _check,
        # which made an n-way barrier O(n^2) in its children.)  Only
        # children that have actually *fired* ever appear: a pending
        # Timeout is "triggered" from creation but must not show up.
        self._results: dict[Event, Any] = {}
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("events from different simulators")
        # Register on (or immediately account for) each child event.
        for ev in self._events:
            if ev.processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        if not self._events and self._value is PENDING:
            self.succeed(self._results)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        self._results[event] = event._value
        if self._satisfied():
            self.succeed(self._results)


class AllOf(_Condition):
    """Succeeds once every child event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self._events)


class AnyOf(_Condition):
    """Succeeds once at least one child event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1 or not self._events


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.process(my_generator(sim))
        sim.run()

    The queue is an instant calendar.  ``_cur`` holds the events still
    due at ``now``, in scheduling order; ``_buckets`` maps each future
    instant to what is due then, also in scheduling order -- the event
    itself while it is alone (a lone event costs no container), a list
    from the second on; ``_times`` is a heap of those distinct instants.
    ``_cur`` is never in ``_buckets`` and its instant never in
    ``_times``, so anything scheduled for ``now`` -- however it got
    there -- queues behind what that instant already holds.
    """

    #: Upper bound on the Timeout free list; past this, processed
    #: timeouts are simply dropped to the allocator.
    _TIMEOUT_POOL_MAX = 256

    def __init__(self) -> None:
        #: Current simulated time, in seconds; only the kernel's loop
        #: (and a ``run`` to a deadline) writes it.
        self.now: float = 0.0
        self._cur: deque[Event] = deque()
        self._buckets: dict[float, Event | list[Event]] = {}
        self._times: list[float] = []
        #: Optional :class:`~repro.obs.events.EventBus`; ``None`` keeps
        #: the kernel entirely observation-free.
        self.bus = None
        #: Free lists of processed, unreferenced Timeout / plain Event
        #: instances (see :meth:`run` for the recycling condition).
        self._timeout_pool: list[Timeout] = []
        self._event_pool: list[Event] = []
        #: Number of events processed so far (diagnostics/determinism tests).
        self.processed_events: int = 0
        #: Deadlock diagnostics: callables returning lines describing
        #: outstanding waits.  Consulted only when a ``run(until=event)``
        #: goes dry, so registering probes costs nothing in the hot path.
        self.watchdog_probes: list[Callable[[], Iterable[str]]] = []
        #: Optional :class:`~repro.sim.flows.FlowEngine` interleaving
        #: coarse fluid-flow progress with this queue: a fat-tree's bulk
        #: transfers.  ``None`` on a single switch (every message walks
        #: the exact ports); set via :meth:`attach_flow_engine`.
        self.flow_engine = None

    def attach_flow_engine(self, engine) -> None:
        """Interleave a fluid :class:`~repro.sim.flows.FlowEngine`.

        The engine schedules its own wake events on this queue, so flow
        progress and event-exact control traffic advance on one clock.
        Its probe joins the deadlock watchdog so a hung run names
        in-flight flows.
        """
        self.flow_engine = engine
        self.watchdog_probes.append(engine.probe)

    def close(self) -> None:
        """End of life: forget what is scheduled, pooled, registered or
        observing without processing an event -- each of those refers back
        here.  A scheduled event also lets go of its waiters (a timeout
        an ``any_of`` outlived would otherwise keep a cycle with it).
        ``now`` and ``processed_events`` stay readable."""
        for due in chain(self._cur, self._buckets.values()):
            for ev in due if type(due) is list else (due,):
                ev.callbacks = None
        for held in (self._cur, self._buckets, self._times, self._timeout_pool,
                     self._event_pool, self.watchdog_probes):
            held.clear()
        self.bus = None

    def _deadlock_reports(self) -> list[str]:
        reports: list[str] = []
        for probe in self.watchdog_probes:
            try:
                reports.extend(probe())
            except Exception as exc:  # pragma: no cover - diagnostics must not mask
                reports.append(f"<probe {probe!r} failed: {exc!r}>")
        return reports

    # -- event factories ------------------------------------------------
    def event(self) -> Event:
        pool = self._event_pool
        if pool:
            # Recycled instances are fully reset to pending state at
            # recycle time (see the pool branch in :meth:`run`).
            return pool.pop()
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if not pool:
            return Timeout(self, delay, value)
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay {delay!r}")
        t = pool.pop()
        # callbacks is already an (empty, reused) list; _ok is True.
        t.delay = delay
        t._value = value
        t._scheduled = True
        t._defused = False
        # _schedule_at's filing step, inlined: the hottest scheduling site.
        now = self.now
        when = now + delay
        if when == now:
            self._cur.append(t)
        else:
            buckets = self._buckets
            due = buckets.get(when)
            if due is None:
                buckets[when] = t
                heappush(self._times, when)
            elif type(due) is list:
                due.append(t)
            else:
                buckets[when] = [due, t]
        return t

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, generator) -> "Process":
        cls = _process_cls()
        return cls(self, generator)

    # -- scheduling ------------------------------------------------------
    def _schedule_at(self, event: Event, when: float) -> None:
        """Schedule at an *absolute* time (fast-path use).

        Closed-form paths that precompute a chain of hop times must
        schedule at the exact floats of that chain: going through a
        relative delay (``now + (when - now)``) re-rounds and can drift
        from the step-by-step path by an ulp.
        """
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        if not when >= self.now:
            if when != when:
                raise ValueError("cannot schedule at NaN")
            raise SimulationError("cannot schedule into the past")
        event._scheduled = True
        if when == self.now:
            self._cur.append(event)
            return
        buckets = self._buckets
        due = buckets.get(when)
        if due is None:
            buckets[when] = event
            heappush(self._times, when)
        elif type(due) is list:
            due.append(event)
        else:
            buckets[when] = [due, event]

    def call_at(self, when: float, fn: Callable[[Event], None]) -> None:
        """Call ``fn(event)`` at absolute time ``when`` (``now`` queues it
        behind this instant's events): a callback chain's kick-off."""
        ev = self.event()
        ev._ok = True
        ev._value = None
        ev.callbacks.append(fn)
        self._schedule_at(ev, when)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue is empty, a deadline passes, or an event fires.

        ``until`` may be a time (run up to and including that instant) or
        an :class:`Event` (run until it is processed; returns its value).
        Stopping on an event may leave the rest of its instant in
        ``_cur``; the next ``run`` carries on from there.

        This is the kernel's only loop.  The queue, pools and helpers
        are bound to locals because the loop runs once per simulated
        event.  A processed Timeout or plain Event goes back to its free
        list when ``getrefcount`` says nothing else holds it (2: the
        local ``event`` and the call's own argument); ``popleft()`` has
        already dropped the queue's reference, and both classes use
        ``__slots__`` without a weakref slot, so there is no hidden
        alias.  The emptied callbacks list is reused too, so a pooled
        instance costs no allocation.
        """
        if isinstance(until, Event):
            sentinel = until
            if sentinel.callbacks is None:
                return sentinel._value if sentinel._ok else None
            deadline = float("inf")
        else:
            sentinel = None
            deadline = float("inf") if until is None else float(until)
            if not deadline >= self.now:
                raise ValueError("cannot run into the past")
        cur = self._cur
        times = self._times
        buckets = self._buckets
        t_pool = self._timeout_pool
        e_pool = self._event_pool
        pool_max = self._TIMEOUT_POOL_MAX
        timeout_cls = Timeout
        event_cls = Event
        refcount = getrefcount
        processed = self.processed_events
        try:
            while True:
                if cur:
                    event = cur.popleft()
                else:
                    if not times or times[0] > deadline:
                        break
                    self.now = when = heappop(times)
                    event = buckets.pop(when)
                    if type(event) is list:
                        cur.extend(event)
                        event = cur.popleft()
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for cb in callbacks:
                        cb(event)
                processed += 1
                if not event._ok and not event._defused:
                    raise event._value
                if event is sentinel:
                    break
                cls = type(event)
                if cls is timeout_cls:
                    if refcount(event) == 2 and len(t_pool) < pool_max:
                        callbacks.clear()
                        event.callbacks = callbacks
                        event._value = None
                        event._scheduled = False
                        t_pool.append(event)
                elif cls is event_cls:
                    if refcount(event) == 2 and len(e_pool) < pool_max:
                        callbacks.clear()
                        event.callbacks = callbacks
                        event._value = PENDING
                        event._ok = True
                        event._scheduled = False
                        event._defused = False
                        e_pool.append(event)
        finally:
            self.processed_events = processed
        if sentinel is None:
            if until is not None:
                self.now = deadline
            return None
        if sentinel.callbacks is not None:
            reports = self._deadlock_reports()
            if self.bus is not None:
                self.bus.emit("sim", "deadlock", "sim", waiters=len(reports))
            raise DeadlockError(
                "simulation ran dry before `until` event fired",
                reports,
            )
        if not sentinel._ok:
            raise sentinel._value
        return sentinel._value


_PROCESS_CLS = None


def _process_cls():
    # Lazy, cached import: repro.sim.process imports this module, so the
    # class cannot be imported at module load, but resolving it through
    # the import machinery on every Simulator.process call is measurable.
    global _PROCESS_CLS
    if _PROCESS_CLS is None:
        from repro.sim.process import Process

        _PROCESS_CLS = Process
    return _PROCESS_CLS
