"""Permute the order in which the events of one instant fire (test-only).

The kernel's tie rule is "events of one instant fire in the order they
were scheduled".  With a bucket per instant, breaking that rule on
purpose is a few lines around ``Simulator._cur`` -- so it lives here, as
a measuring instrument, and not as a kernel mode: ``tests/test_tie_order``
uses it to show that protocol *correctness* does not depend on tie order
and to bound how far reported *times* move when it changes (ROADMAP
item 1, step 1).

The loop is deliberately the slow, obvious one
(:class:`~tests.harness.step_kernel.StepLoopSimulator`): every event goes
through ``step()``, which first moves the chosen event of the current
instant to the front of ``_cur`` and then lets the one-event ``step()``
fire it.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from heapq import heappop

from tests.harness.step_kernel import StepLoopSimulator


class TieOrderSimulator(StepLoopSimulator):
    #: ``"fifo"`` (the production order), ``"lifo"``, or an int seed for
    #: a uniformly random pick; bound on a subclass by :func:`tie_order`.
    order: str | int = "fifo"

    def __init__(self):
        super().__init__()
        self._pick = random.Random(self.order).randrange \
            if isinstance(self.order, int) else None

    def step(self):
        cur = self._cur
        if not cur and self._times:
            # Adopt the next instant whole, so that its first event is
            # subject to the choice like any other.
            self._now = when = heappop(self._times)
            due = self._buckets.pop(when)
            cur.extend(due if type(due) is list else (due,))
        if len(cur) > 1 and self.order != "fifo":
            i = len(cur) - 1 if self.order == "lifo" else self._pick(len(cur))
            cur.appendleft(cur[i])
            del cur[i + 1]
        super().step()


@contextmanager
def tie_order(monkeypatch, order):
    """Every ``Cluster`` built inside the block runs on a simulator that
    fires same-instant events in ``order``."""
    cls = type("TieOrderSimulator", (TieOrderSimulator,), {"order": order})
    with monkeypatch.context() as patch:
        patch.setattr("repro.hw.cluster.Simulator", cls)
        yield cls
