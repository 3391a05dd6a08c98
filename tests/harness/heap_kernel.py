"""The ``(time, seq, event)`` heap the kernel used before the instant calendar.

``HeapQueue`` is that queue as it stood -- one binary heap of
``(time, next(seq), event)`` tuples, ``seq`` a global creation counter
that breaks same-time ties -- reduced to push, pop and peek.  It is the
oracle for ``repro.sim.core``'s calendar: the total order "earlier time
first, then smaller ``seq``" is what "earlier instant first, then
first scheduled" must reproduce bit for bit.

``HeapSimulator`` is the glue that lets whole programs (processes,
resources, stores, conditions, even a ``Cluster``) run on that queue:
every scheduling entry point of :class:`~repro.sim.core.Simulator`
pushes here, and a deliberately plain ``step``/``run`` pops.  It recycles
nothing, so a free-list bug in the production kernel shows up as a
divergence too.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush

from repro.sim.core import DeadlockError, Event, SimulationError, Simulator, Timeout


class HeapQueue:
    def __init__(self):
        self._heap = []
        self._seq = itertools.count()

    def push(self, when, event):
        heappush(self._heap, (when, next(self._seq), event))

    def pop(self):
        when, _, event = heappop(self._heap)
        return when, event

    def peek(self):
        return self._heap[0][0] if self._heap else float("inf")

    def __len__(self):
        return len(self._heap)


class _DueNow:
    """Stands in for ``Simulator._cur``: the inlined triggers in
    ``core``/``resources`` append to it, which here is a push at ``now``."""

    def __init__(self, sim):
        self.sim = sim

    def append(self, event):
        self.sim.queue.push(self.sim.now, event)


class HeapSimulator(Simulator):
    def __init__(self):
        super().__init__()
        self.queue = HeapQueue()
        self._cur = _DueNow(self)

    def peek(self):
        return self.queue.peek()

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def _schedule_at(self, event, when):
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        if when != when:
            raise ValueError("cannot schedule at NaN")
        if when < self.now:
            raise SimulationError("cannot schedule into the past")
        event._scheduled = True
        self.queue.push(when, event)

    def step(self):
        if not self.queue:
            raise SimulationError("step() with no scheduled event")
        self.now, event = self.queue.pop()
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        self.processed_events += 1
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until=None):
        if isinstance(until, Event):
            if until.processed:
                return until._value if until._ok else None
            while self.queue and not until.processed:
                self.step()
            if not until.processed:
                raise DeadlockError("simulation ran dry before `until` event fired",
                                    self._deadlock_reports())
            if not until._ok:
                raise until._value
            return until._value
        deadline = float("inf") if until is None else float(until)
        if not deadline >= self.now:
            raise ValueError("cannot run into the past")
        while self.queue and self.queue.peek() <= deadline:
            self.step()
        if until is not None:
            self.now = deadline
        return None
