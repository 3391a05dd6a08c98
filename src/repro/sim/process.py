"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: every value the generator
``yield``-s must be an :class:`~repro.sim.core.Event`; the process
suspends until that event fires and is resumed with the event's value
(or has the event's exception thrown into it on failure).

A ``Process`` is itself an ``Event`` that succeeds with the generator's
return value, so processes can wait on each other::

    def child(sim):
        yield sim.timeout(1.0)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        assert value == 42
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim.core import Event, SimulationError, Simulator

__all__ = ["Process"]


class Process(Event):
    """Wraps a generator and advances it through simulated time."""

    __slots__ = ("_generator", "_target", "_closed", "name")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() expects a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        #: The event this process is currently waiting on (None if running
        #: or finished).
        self._target: Optional[Event] = None
        self._closed = False
        self.name = name or getattr(generator, "__name__", "process")
        if sim.bus is not None:
            sim.bus.emit("proc", "start", "sim", name=self.name)
        # Kick off at the current instant via an initialisation event
        # (pool-recycled: nothing holds it after the kick-off pop).
        sim.call_at(sim.now, self._start)

    # -- public --------------------------------------------------------
    def close(self) -> None:
        """End of life without simulating: stop waiting and close the
        generator (its ``finally`` blocks run); a parked process stays
        pending for good, and so does one not started yet (its body never
        runs when the kick-off comes)."""
        target, self._target = self._target, None
        if target is not None and target.callbacks is not None:
            target.callbacks.remove(self._resume)
        self._closed = True
        self._generator.close()

    # -- engine --------------------------------------------------------
    def _start(self, event: Event) -> None:
        # The kick-off: a process closed before it never runs its body.
        if not self._closed:
            self._resume(event)

    def _resume(self, event: Event) -> None:
        # The hottest frame in the simulator: locals are bound once and
        # the generator's bound methods reused across the resume loop.
        self._target = None
        gen = self._generator
        send = gen.send
        sim = self.sim
        while True:
            try:
                if event._ok:
                    next_target = send(event._value)
                else:
                    event._defused = True
                    next_target = gen.throw(event._value)
            except StopIteration as stop:
                if sim.bus is not None:
                    sim.bus.emit("proc", "end", "sim", name=self.name)
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(next_target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_target!r}"
                )
                try:
                    gen.throw(exc)
                except StopIteration as stop:
                    self.succeed(stop.value)
                except BaseException as err:
                    self.fail(err)
                return
            if next_target.sim is not sim:
                raise SimulationError("yielded an event from a different simulator")

            cbs = next_target.callbacks
            if cbs is None:
                # Already fired and delivered: loop immediately with its
                # outcome.  (A merely *triggered* event -- e.g. a pending
                # Timeout, whose value exists from creation -- must still
                # be waited on so simulated time advances to its firing.)
                event = next_target
                continue
            cbs.append(self._resume)
            self._target = next_target
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
