"""The kernel's one-event loop, kept as the oracle for its inlined one.

``repro.sim.core.Simulator.run`` is the kernel's only loop: the
per-event work is inlined there, with the queue and pools bound to
locals.  The plain single-event form of that work,
:meth:`SteppingSimulator.step`, is what it is checked against, in the
two ways tests drive it:

* :class:`SteppingSimulator` -- the production kernel plus ``step()``,
  so a test can interleave single events with production ``run()``
  calls on one queue;
* :class:`StepLoopSimulator` -- ``run()`` as the obvious loop over
  ``step()``, which the production loop must match event for event
  (``tests/harness/test_kernel_differential.py``).  ``tie_order``
  builds on it to permute same-instant order.
"""

from __future__ import annotations

from heapq import heappop
from sys import getrefcount

from repro.sim.core import PENDING, Event, SimulationError, Simulator, Timeout

__all__ = ["SteppingSimulator", "StepLoopSimulator", "next_time"]


def next_time(sim: Simulator) -> float:
    """Time of the next scheduled event on the production calendar
    (``inf`` if none): the rest of the current instant, else the
    earliest future instant."""
    if sim._cur:
        return sim.now
    return sim._times[0] if sim._times else float("inf")


class SteppingSimulator(Simulator):
    peek = next_time

    def step(self) -> None:
        """Pop and process one event."""
        cur = self._cur
        if cur:
            event = cur.popleft()
        else:
            if not self._times:
                raise SimulationError("step() with no scheduled event")
            # The instant is spent: move on to the next one and make
            # what is due then the new ``_cur``.
            self.now = when = heappop(self._times)
            event = self._buckets.pop(when)
            if type(event) is list:
                cur.extend(event)
                event = cur.popleft()
        callbacks = event.callbacks
        event.callbacks = None
        if len(callbacks) == 1:
            # Dominant case: exactly one waiter (a suspended process).
            callbacks[0](event)
        else:
            for cb in callbacks:
                cb(event)
        self.processed_events += 1
        if not event._ok and not event._defused:
            # A failure that nothing consumed: crash loudly rather than
            # silently losing the exception.
            raise event._value
        # Recycle fully-consumed timeouts and plain events.  getrefcount
        # == 2 means the only references left are our local `event` and
        # the getrefcount argument itself: popleft() already dropped the
        # queue's, and no process, condition, or user code still holds
        # the object (both classes use __slots__ with no weakref slot,
        # so there is no hidden aliasing).  The emptied callbacks list
        # is reused too, so a pooled instance costs zero allocations.
        cls = type(event)
        if cls is Timeout:
            if getrefcount(event) == 2:
                pool = self._timeout_pool
                if len(pool) < self._TIMEOUT_POOL_MAX:
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._value = None
                    event._scheduled = False
                    pool.append(event)
        elif cls is Event:
            if getrefcount(event) == 2:
                pool = self._event_pool
                if len(pool) < self._TIMEOUT_POOL_MAX:
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._value = PENDING
                    event._ok = True
                    event._scheduled = False
                    event._defused = False
                    pool.append(event)


class StepLoopSimulator(SteppingSimulator):
    def run(self, until=None):
        if isinstance(until, Event):
            if not until.processed:
                while (self._cur or self._times) and not until.processed:
                    self.step()
                if until.processed and not until._ok:
                    raise until._value
        else:
            deadline = float("inf") if until is None else float(until)
            while (self._cur or self._times) and self.peek() <= deadline:
                self.step()
        # Nothing left to fire: the production run() returns the value or
        # reports the deadlock / validates the deadline and sets the clock.
        return super().run(until)
