"""Unit tests for the simulation kernel: events, conditions, clock."""

import pytest

from repro.sim import (
    AllOf,
    SimulationError,
    Simulator,
    Timeout,
)
from tests.harness.step_kernel import SteppingSimulator


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        fired = []

        def proc(sim):
            yield sim.timeout(2.5)
            fired.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        assert fired == [2.5]

    def test_peek_reports_next_event_time(self, sim):
        sim.timeout(3.0)
        sim.timeout(1.0)
        assert sim.peek() == pytest.approx(1.0)

    def test_peek_empty_heap_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_run_until_time_stops_exactly(self, sim):
        def proc(sim):
            for _ in range(10):
                yield sim.timeout(1.0)

        sim.process(proc(sim))
        sim.run(until=4.5)
        assert sim.now == pytest.approx(4.5)

    def test_run_into_past_rejected(self, sim):
        sim.process(iter_timeout(sim, 5.0))
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_nan_delay_rejected_at_every_entry(self, sim):
        nan = float("nan")
        with pytest.raises(ValueError):
            sim.timeout(nan)  # empty free list: the constructor branch
        with pytest.raises(ValueError):
            Timeout(sim, nan)
        sim.timeout(0.0)
        sim.run()
        assert sim._timeout_pool
        with pytest.raises(ValueError):
            sim.timeout(nan)  # the recycling branch
        assert sim._timeout_pool  # the rejected call consumed nothing
        with pytest.raises(ValueError):
            sim._schedule(sim.event(), nan)
        with pytest.raises(ValueError):
            sim._schedule_at(sim.event(), nan)
        assert sim.peek() == float("inf")

    def test_nan_delay_loses_no_other_timeout(self, sim):
        # Used to pass the `delay < 0` guard and break the heap invariant:
        # only the 1.0 and 2.0 timeouts fired and run() returned at 2.0.
        fired = []
        for d in (3.0, float("nan"), 1.0, 2.0):
            try:
                sim.timeout(d).callbacks.append(lambda _e, d=d: fired.append(d))
            except ValueError:
                pass
        sim.run()
        assert fired == [1.0, 2.0, 3.0] and sim.now == 3.0

    def test_infinite_delay_is_legal(self, sim):
        sim.timeout(float("inf"))
        sim.timeout(1.0)
        assert sim.peek() == 1.0
        sim.run(until=5.0)
        assert sim.now == 5.0 and sim.peek() == float("inf")

    def test_step_on_empty_queue_is_a_simulation_error(self):
        sim = SteppingSimulator()
        with pytest.raises(SimulationError, match="no scheduled event"):
            sim.step()
        sim.timeout(1.0)
        sim.step()
        assert sim.now == 1.0
        with pytest.raises(SimulationError, match="no scheduled event"):
            sim.step()

    def test_zero_timeout_fires_at_now(self, sim):
        t = sim.timeout(0.0, value="x")
        sim.run()
        assert t.processed and t.value == "x"


def iter_timeout(sim, d):
    yield sim.timeout(d)


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        got = []

        def waiter(sim):
            got.append((yield ev))

        sim.process(waiter(sim))
        ev.succeed(41)
        sim.run()
        assert got == [41]

    def test_double_succeed_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_then_succeed_rejected(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("x"))
        ev.defuse()
        with pytest.raises(SimulationError):
            ev.succeed(1)

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_unhandled_failure_crashes_run(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_failure_thrown_into_waiter(self, sim):
        ev = sim.event()
        caught = []

        def waiter(sim):
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(waiter(sim))
        ev.fail(ValueError("kapow"))
        sim.run()
        assert caught == ["kapow"]

    def test_value_unavailable_until_triggered(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_pending_timeout_is_triggered_but_not_processed(self, sim):
        t = Timeout(sim, 1.0)
        assert t.triggered and not t.processed


class TestConditions:
    def test_all_of_waits_for_every_event(self, sim):
        times = []

        def proc(sim):
            yield sim.all_of([sim.timeout(1.0), sim.timeout(3.0), sim.timeout(2.0)])
            times.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        assert times == [3.0]

    def test_any_of_fires_on_first(self, sim):
        times = []

        def proc(sim):
            result = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
            times.append((sim.now, list(result.values())))

        sim.process(proc(sim))
        sim.run()
        assert times == [(1.0, ["fast"])]

    def test_all_of_empty_fires_immediately(self, sim):
        done = []

        def proc(sim):
            yield sim.all_of([])
            done.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        assert done == [0.0]

    def test_any_of_collects_only_fired_events(self, sim):
        def proc(sim):
            slow = sim.timeout(9.0, "slow")
            result = yield sim.any_of([slow, sim.timeout(1.0, "fast")])
            assert "slow" not in result.values()
            assert list(result.values()) == ["fast"]

        p = sim.process(proc(sim))
        sim.run()
        assert p.ok

    def test_condition_propagates_failure(self, sim):
        bad = sim.event()
        caught = []

        def proc(sim):
            try:
                yield sim.all_of([sim.timeout(1.0), bad])
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(proc(sim))
        bad.fail(RuntimeError("child failed"))
        sim.run()
        assert caught == ["child failed"]

    def test_cross_simulator_events_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            AllOf(sim, [sim.timeout(1.0), other.timeout(1.0)])

    def test_nested_conditions(self, sim):
        out = []

        def proc(sim):
            inner = sim.any_of([sim.timeout(2.0, "a"), sim.timeout(4.0, "b")])
            yield sim.all_of([inner, sim.timeout(1.0)])
            out.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        assert out == [2.0]


class TestDeterminism:
    def test_tie_break_is_insertion_order(self, sim):
        order = []

        def make(tag):
            def proc(sim):
                yield sim.timeout(1.0)
                order.append(tag)

            return proc

        for tag in ("a", "b", "c"):
            sim.process(make(tag)(sim))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_identical_runs_process_identical_event_counts(self):
        def build():
            s = Simulator()

            def proc(sim, n):
                for _ in range(n):
                    yield sim.timeout(0.5)

            for n in (3, 5, 7):
                s.process(proc(s, n))
            s.run()
            return s.processed_events, s.now

        assert build() == build()


class TestRunUntilEvent:
    def test_returns_event_value(self, sim):
        def proc(sim):
            yield sim.timeout(2.0)
            return "answer"

        p = sim.process(proc(sim))
        assert sim.run(until=p) == "answer"

    def test_raises_if_heap_dries_first(self, sim):
        never = sim.event()
        sim.timeout(1.0)
        with pytest.raises(SimulationError, match="ran dry"):
            sim.run(until=never)

    def test_until_already_processed_event(self, sim):
        t = sim.timeout(1.0, "v")
        sim.run()
        assert sim.run(until=t) == "v"

    def test_failed_until_event_raises(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            raise KeyError("inner")

        p = sim.process(proc(sim))
        with pytest.raises(KeyError):
            sim.run(until=p)
