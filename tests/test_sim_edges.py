"""Edge cases of the simulation kernel the optimized fast paths must honor.

These pin down tie-breaking and degenerate-input semantics that the
performance work in ``sim/core.py`` (inlined run loop, event free-lists,
resource fast paths) is required to preserve:

* zero-delay ``Timeout`` vs ``succeed()`` at the same timestamp resolve
  strictly by schedule order (the global seq counter);
* empty conditions (``AnyOf([])`` / ``AllOf([])``) succeed immediately;
* waiting on an already-processed event resumes the process at once with
  the event's recorded outcome;
* ``processed_events`` is bit-stable across seeded re-runs of the same
  workload (the perf harness keys its events/sec metric on it).
"""

from __future__ import annotations

import pytest

from repro.sim import AllOf, AnyOf, SimulationError, Simulator
from repro.sim.rng import RngRegistry


class TestSameTimestampTieBreak:
    def test_zero_delay_timeout_before_later_succeed(self, sim):
        """A timeout(0) scheduled first fires before a succeed() issued after."""
        order = []
        t = sim.timeout(0, value="timeout")
        ev = sim.event()
        ev.succeed("succeed")
        t.callbacks.append(lambda e: order.append(e.value))
        ev.callbacks.append(lambda e: order.append(e.value))
        sim.run()
        assert order == ["timeout", "succeed"]

    def test_succeed_before_later_zero_delay_timeout(self, sim):
        """Reversing the schedule order reverses the firing order."""
        order = []
        ev = sim.event()
        ev.succeed("succeed")
        t = sim.timeout(0, value="timeout")
        t.callbacks.append(lambda e: order.append(e.value))
        ev.callbacks.append(lambda e: order.append(e.value))
        sim.run()
        assert order == ["succeed", "timeout"]

    def test_equal_delay_timeouts_fire_in_creation_order(self, sim):
        order = []
        for tag in ("a", "b", "c"):
            sim.timeout(1.0, value=tag).callbacks.append(
                lambda e: order.append(e.value))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 1.0

    def test_zero_delay_timeout_does_not_advance_clock(self, sim):
        def proc(sim):
            yield sim.timeout(0)
            return sim.now

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 0.0


class TestEmptyConditions:
    def test_any_of_empty_succeeds_immediately(self, sim):
        cond = AnyOf(sim, [])
        assert cond.triggered
        assert cond.value == {}
        sim.run()
        assert cond.processed

    def test_all_of_empty_succeeds_immediately(self, sim):
        cond = AllOf(sim, [])
        assert cond.triggered
        assert cond.value == {}

    def test_process_yielding_empty_any_of_resumes_at_once(self, sim):
        def proc(sim):
            result = yield sim.any_of([])
            return (sim.now, result)

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == (0.0, {})


class TestAlreadyProcessedEvent:
    def test_yield_on_processed_event_resumes_immediately(self, sim):
        """Waiting on a spent event must deliver its recorded value without
        consuming simulated time (the resume loop takes the
        ``callbacks is None`` shortcut)."""
        ev = sim.event()
        ev.succeed(41)
        sim.run()
        assert ev.processed

        def late(sim):
            value = yield ev
            return (sim.now, value + 1)

        p = sim.process(late(sim))
        sim.run()
        assert p.value == (0.0, 42)

    def test_condition_on_processed_children(self, sim):
        a = sim.event()
        a.succeed("x")
        sim.run()
        cond = sim.all_of([a])
        assert cond.triggered
        assert cond.value == {a: "x"}

    def test_processed_failed_event_rethrows_on_yield(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        ev.defuse()
        sim.run()

        def late(sim):
            try:
                yield ev
            except RuntimeError as exc:
                return str(exc)

        p = sim.process(late(sim))
        sim.run()
        assert p.value == "boom"

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)


class TestProcessedEventsDeterminism:
    @staticmethod
    def _workload(seed: int) -> tuple[int, float]:
        """A contention-heavy seeded run; returns (processed_events, end time)."""
        from repro.sim.resources import Store
        from tests.harness.semaphore import Semaphore

        sim = Simulator()
        rng = RngRegistry(root_seed=seed).stream("edges")
        port = Semaphore(sim, capacity=2)
        queue = Store(sim)

        def producer(sim, i):
            for _ in range(10):
                yield sim.timeout(float(rng.integers(1, 5)))
                queue.put(i)

        def consumer(sim):
            for _ in range(20):
                yield queue.get()
                req = port.request()
                yield req
                yield sim.timeout(0.5)
                port.release()

        for i in range(4):
            sim.process(producer(sim, i))
        sim.process(consumer(sim))
        sim.process(consumer(sim))
        sim.run()
        return sim.processed_events, sim.now

    def test_identical_across_reruns(self):
        first = self._workload(seed=7)
        second = self._workload(seed=7)
        assert first == second
        assert first[0] > 0

    def test_each_seed_self_consistent(self):
        for seed in (0, 1, 2026):
            assert self._workload(seed) == self._workload(seed)

    def test_counter_survives_nested_run_calls(self, sim):
        """run(until=...) segments must accumulate, not reset, the counter."""
        for _ in range(5):
            sim.timeout(1.0)
        sim.run(until=0.5)
        mid = sim.processed_events
        sim.run()
        assert sim.processed_events >= mid
        assert sim.processed_events == mid + 5
