"""A counted FIFO lock built from plain events (test-only).

The kernel fuzzer and the determinism edge tests need processes that
contend for something with capacity; the simulator itself has no such
primitive (an HCA port is a slot its messages hold, ``repro.hw.nic.Port``).
``request()`` returns an event that fires when the caller is admitted:
at once if a unit is free and nobody waits, else when a ``release()``
hands its unit to the head of the queue.
"""

from __future__ import annotations

from collections import deque

from repro.sim import Event, Simulator


class Semaphore:
    def __init__(self, sim: Simulator, capacity: int):
        self.sim = sim
        self.free = capacity
        self.waiting: deque[Event] = deque()

    def request(self) -> Event:
        ev = self.sim.event()
        if self.free and not self.waiting:
            self.free -= 1
            ev.succeed()
        else:
            self.waiting.append(ev)
        return ev

    def release(self) -> None:
        if self.waiting:
            self.waiting.popleft().succeed()
        else:
            self.free += 1
