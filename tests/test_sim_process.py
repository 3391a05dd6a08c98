"""Unit tests for generator-based processes."""

import pytest

from repro.sim import SimulationError


class TestLifecycle:
    def test_return_value_becomes_event_value(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            return 99

        p = sim.process(proc(sim))
        sim.run()
        assert p.processed and p.value == 99

    def test_process_waits_on_process(self, sim):
        def child(sim):
            yield sim.timeout(2.0)
            return "from-child"

        def parent(sim):
            value = yield sim.process(child(sim))
            return (value, sim.now)

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == ("from-child", 2.0)

    def test_triggered_tracks_state(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)

        p = sim.process(proc(sim))
        assert not p.triggered
        sim.run()
        assert p.triggered

    def test_exception_fails_the_process_event(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("died")

        def watcher(sim, target):
            try:
                yield target
            except RuntimeError as exc:
                return f"saw {exc}"

        p = sim.process(proc(sim))
        w = sim.process(watcher(sim, p))
        sim.run()
        assert w.value == "saw died"

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_generator_like_object_runs(self, sim):
        class Once:
            """Has ``send`` and ``throw`` but is no Python generator."""

            def send(self, value):
                raise StopIteration(7)

            def throw(self, exc):
                raise exc

        p = sim.process(Once())
        sim.run()
        assert p.value == 7

    def test_yielding_non_event_raises_inside_process(self, sim):
        def proc(sim):
            yield 42  # not an event

        p = sim.process(proc(sim))
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()
        assert p.triggered

    def test_immediate_return_process(self, sim):
        def proc(sim):
            return "now"
            yield  # pragma: no cover

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "now"

    def test_yield_from_composition(self, sim):
        def inner(sim):
            yield sim.timeout(1.0)
            return 10

        def outer(sim):
            a = yield from inner(sim)
            b = yield from inner(sim)
            return a + b

        p = sim.process(outer(sim))
        sim.run()
        assert p.value == 20 and sim.now == 2.0

    def test_close_before_start_stays_pending(self, sim):
        ran = []

        def body(sim):
            ran.append("body")
            yield sim.timeout(1.0)

        def waiter(sim, target):
            yield target
            ran.append("woken")

        p = sim.process(body(sim))
        w = sim.process(waiter(sim, p))
        p.close()
        sim.run()
        assert ran == [] and not p.triggered
        assert not w.triggered


class TestConcurrency:
    def test_many_processes_share_the_clock(self, sim):
        finish = {}

        def proc(sim, name, delay):
            yield sim.timeout(delay)
            finish[name] = sim.now

        for name, d in [("a", 3.0), ("b", 1.0), ("c", 2.0)]:
            sim.process(proc(sim, name, d))
        sim.run()
        assert finish == {"a": 3.0, "b": 1.0, "c": 2.0}

    def test_process_chain_of_dependencies(self, sim):
        def stage(sim, upstream, delay):
            if upstream is not None:
                yield upstream
            yield sim.timeout(delay)
            return sim.now

        p1 = sim.process(stage(sim, None, 1.0))
        p2 = sim.process(stage(sim, p1, 1.0))
        p3 = sim.process(stage(sim, p2, 1.0))
        sim.run()
        assert (p1.value, p2.value, p3.value) == (1.0, 2.0, 3.0)
