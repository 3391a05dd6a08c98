"""The instant calendar against the ``(time, seq)`` heap it replaced.

Small schedule programs -- processes that sleep, fire and fail shared
events, contend for resources, trade items through stores, spawn
children and wait on conditions, with delays chosen so that most events
tie -- run on :class:`repro.sim.Simulator` (with the one-event
``step()`` of ``tests/harness/step_kernel``), on
``tests/harness/heap_kernel.HeapSimulator`` and on
``step_kernel.StepLoopSimulator``, whose ``run()`` is the plain loop over
``step()``, all driven through the same random mix of ``run(until=t)``,
``run(until=event)`` and ``step()`` calls.  Everything observable must
be identical: the ``(now, label)``
firing sequence, ``peek()`` before every segment, how each segment ended
(deadlock, unhandled failure, misuse error), the final clock and
``processed_events``.

Tier-1 runs ``TIER1_EXAMPLES`` programs; CI's ``perf`` job runs ten
times as many with ``--hypothesis-profile=fuzz`` (registered in
``tests/conftest.py``: the Hypothesis plugin loads the named profile
before it imports any test module).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.harness.heap_kernel import HeapSimulator
from tests.harness.semaphore import Semaphore
from tests.harness.step_kernel import StepLoopSimulator, SteppingSimulator, next_time
from repro.sim import DeadlockError, SimulationError, Simulator, Store
from repro.sim.core import Event, Timeout

KERNELS = [Simulator, HeapSimulator]
TIER1_EXAMPLES = 200

#: ``1e-30`` is a fresh instant at t=0 and rounds to ``now`` anywhere
#: later; ``-0.0`` and ``0.0`` must share an instant; 0.1/0.2/0.3 sum to
#: floats that differ in the last place depending on the order added.
DELAYS = (0.0, 0.0, -0.0, 1e-30, 0.1, 0.2, 0.3, 0.25, 0.5, 1.0)
N_EVENTS = 3


# -- programs -----------------------------------------------------------------
def _ops(depth):
    delay = st.sampled_from(DELAYS)
    event = st.integers(0, N_EVENTS - 1)
    pick = st.integers(0, 1)
    op = st.one_of(
        st.tuples(st.just("sleep"), delay),
        st.tuples(st.just("forget"), delay),
        st.tuples(st.just("fire"), event),
        st.tuples(st.just("fire"), event),
        st.tuples(st.just("fail"), event),
        st.tuples(st.just("await"), event),
        st.tuples(st.just("at"), delay),
        st.tuples(st.just("hold"), pick, delay),
        st.tuples(st.just("put"), pick),
        st.tuples(st.just("get"), pick),
        st.tuples(st.just("all"), st.lists(delay, max_size=3), event),
        st.tuples(st.just("any"), st.lists(delay, min_size=1, max_size=3), event),
    )
    if depth:
        op = st.one_of(op, st.tuples(st.just("spawn"),
                                     st.lists(_ops(depth - 1), max_size=5)))
    return op


PROGRAMS = st.lists(st.lists(_ops(2), max_size=8), min_size=1, max_size=5)
SEGMENTS = st.lists(st.one_of(
    st.tuples(st.just("time"), st.sampled_from((0.0, 0.1, 0.25, 0.6, 1.0, 3.0))),
    st.tuples(st.just("proc"), st.integers(0, 4)),
    st.tuples(st.just("event"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("step"), st.integers(1, 4)),
), max_size=6)


def execute(kernel, program, segments):
    """Run ``program`` on ``kernel()`` in ``segments``; return all that
    can be observed from outside, in order."""
    sim = kernel()
    seen = []
    events = [Event(sim) for _ in range(N_EVENTS)]
    for k, ev in enumerate(events):
        ev.callbacks.append(lambda _e, k=k: seen.append((sim.now, f"event{k}")))
    resources = [Semaphore(sim, 1), Semaphore(sim, 2)]
    stores = [Store(sim), Store(sim)]

    def body(label, ops):
        for i, op in enumerate(ops):
            kind, here = op[0], f"{label}.{i}"
            if kind == "sleep":
                yield sim.timeout(op[1])
            elif kind == "forget":
                sim.timeout(op[1])
            elif kind == "fire":
                if not events[op[1]].triggered:
                    events[op[1]].succeed(here)
            elif kind == "fail":
                if not events[op[1]].triggered:
                    events[op[1]].fail(RuntimeError(here))
            elif kind == "await":
                try:
                    yield events[op[1]]
                except RuntimeError:
                    seen.append((sim.now, here + " caught"))
            elif kind == "at":
                ev = sim.event()
                ev._value = None
                ev.callbacks.append(lambda _e, h=here: seen.append((sim.now, h + " at")))
                # At t=0 the delay itself is the target, so -0.0 gets in.
                sim._schedule_at(ev, op[1] if sim.now == 0.0 else sim.now + op[1])
            elif kind == "hold":
                req = resources[op[1]].request()
                yield req
                seen.append((sim.now, here + " granted"))
                yield sim.timeout(op[2])
                resources[op[1]].release()
            elif kind == "put":
                stores[op[1]].put(here)
            elif kind == "get":
                got = yield stores[op[1]].get()
                seen.append((sim.now, f"{here} got {got}"))
            elif kind in ("all", "any"):
                children = [sim.timeout(d) for d in op[1]]
                if not events[op[2]].processed:
                    children.append(events[op[2]])
                cond = sim.all_of(children) if kind == "all" else sim.any_of(children)
                try:
                    yield cond
                except RuntimeError:
                    seen.append((sim.now, here + " caught"))
            elif kind == "spawn":
                sim.process(body(here + ">", op[1]))
            seen.append((sim.now, here))

    procs = [sim.process(body(f"p{j}", ops)) for j, ops in enumerate(program)]

    def segment(seg):
        kind, arg = seg
        seen.append(("peek", sim.peek()))
        try:
            if kind == "time":
                sim.run(until=sim.now + arg)
            elif kind == "proc":
                sim.run(until=procs[arg % len(procs)])
            elif kind == "event":
                sim.run(until=events[arg])
            elif kind == "step":
                for _ in range(arg):
                    sim.step()
            else:
                sim.run()
        except DeadlockError:
            seen.append("deadlock")
        except SimulationError as exc:
            seen.append(f"misuse: {exc}")
        except RuntimeError as exc:
            seen.append(f"unhandled: {exc}")
        seen.append((kind, sim.now, sim.processed_events))

    for seg in segments:
        segment(seg)
    # Drain: every unhandled failure interrupts one run() call.
    for _ in range(N_EVENTS + 1):
        segment(("drain", None))
    assert sim.peek() == float("inf")
    return seen


@settings(max_examples=max(TIER1_EXAMPLES, settings.default.max_examples),
          deadline=None)
@given(PROGRAMS, SEGMENTS)
def test_calendar_fires_what_the_heap_fired(program, segments):
    seen = execute(SteppingSimulator, program, segments)
    assert seen == execute(HeapSimulator, program, segments)
    assert seen == execute(StepLoopSimulator, program, segments)


@pytest.mark.parametrize("name", ["ring_broadcast", "group_ialltoall"])
def test_the_oracle_reproduces_the_golden_traces(name, monkeypatch):
    """The reference is the old kernel only if the whole offload stack,
    run on it, still emits the checked-in event streams byte for byte."""
    from tests import test_golden_traces as golden

    monkeypatch.setattr("repro.hw.cluster.Simulator", HeapSimulator)
    obs = golden.SCENARIOS[name]()
    assert isinstance(obs.cluster.sim, HeapSimulator)
    assert golden.serialize_events(obs.bus) == \
        (golden.GOLDEN_DIR / f"{name}.events").read_text()


def test_the_harness_reports_ties_deadlocks_and_failures():
    """``execute`` is only an oracle if ties, deadlocks, caught failures
    and mid-instant stops show up in what it returns: one hand-written
    program that has them all."""
    program = [
        [("hold", 0, 0.0), ("fire", 0), ("put", 1), ("put", 1), ("await", 2)],
        [("hold", 0, 1e-30), ("await", 0), ("get", 1), ("all", [0.0, 0.5], 1)],
        [("spawn", [("sleep", 0.5), ("fail", 1)]), ("at", -0.0), ("any", [0.5, 0.5], 0)],
    ]
    segments = [("step", 3), ("proc", 0), ("time", 0.5), ("event", 2)]
    seen = execute(SteppingSimulator, program, segments)
    assert seen == execute(HeapSimulator, program, segments)
    assert seen == execute(StepLoopSimulator, program, segments)
    assert "deadlock" in seen
    assert any(isinstance(s, tuple) and str(s[1]).endswith("caught") for s in seen)
    instants = [s[0] for s in seen if isinstance(s, tuple) and isinstance(s[0], float)]
    assert len(instants) > 2 * len(set(instants))


# -- one regression per hazard of the bucket design ---------------------------
def _logger(sim, log, name):
    return lambda _ev: log.append((sim.now, name))


def _peek(sim) -> float:
    """The next event time on either kernel."""
    return sim.peek() if isinstance(sim, HeapSimulator) else next_time(sim)


@pytest.mark.parametrize("kernel", KERNELS)
class TestHazards:
    @pytest.mark.parametrize("delay", [0.0, -0.0, 1e-30])
    def test_zero_delay_timeout_precedes_a_later_succeed(self, kernel, delay):
        """A timeout due *now* must queue behind what the instant already
        holds and ahead of what is triggered after it -- not in a fresh
        bucket that would fire last."""
        sim, log = kernel(), []
        sim.timeout(1.0).callbacks.append(_logger(sim, log, "first"))
        sim.timeout(1.0).callbacks.append(lambda _e: (
            sim.timeout(delay).callbacks.append(_logger(sim, log, "timeout")),
            sim.event().succeed().callbacks.append(_logger(sim, log, "succeed")),
        ))
        sim.timeout(1.0).callbacks.append(_logger(sim, log, "third"))
        sim.run()
        assert log == [(1.0, "first"), (1.0, "third"), (1.0, "timeout"), (1.0, "succeed")]

    def test_a_future_instant_keeps_scheduling_order(self, kernel):
        """A lone future event is stored bare and promoted to a list by
        the second; every way of getting there must append."""
        sim, log = kernel(), []
        for _ in range(4):  # stock the free list: timeout() has two paths
            sim.timeout(0.0)
        sim.run()
        for name in "abc":
            sim.timeout(2.0).callbacks.append(_logger(sim, log, name))
        for name in "de":
            ev = sim.event()
            ev._value = None
            ev.callbacks.append(_logger(sim, log, name))
            sim._schedule_at(ev, 2.0)
        Timeout(sim, 2.0).callbacks.append(_logger(sim, log, "f"))
        for name in "gh":  # lone, then promoted by the constructor path
            Timeout(sim, 3.0).callbacks.append(_logger(sim, log, name))
        sim.timeout(3.0).callbacks.append(_logger(sim, log, "i"))
        sim.run()
        assert [name for _t, name in log] == list("abcdefghi")

    def test_schedule_after_run_until_an_empty_instant(self, kernel):
        """``run(until=t)`` leaves ``now == t`` with nothing due; what is
        then scheduled for ``t`` belongs to that instant, in order."""
        sim, log = kernel(), []
        sim.timeout(5.0).callbacks.append(_logger(sim, log, "later"))
        sim.run(until=2.0)
        assert (sim.now, _peek(sim)) == (2.0, 5.0)
        sim.timeout(0.0).callbacks.append(_logger(sim, log, "a"))
        sim.event().succeed().callbacks.append(_logger(sim, log, "b"))
        ev = sim.event()
        ev._value = None
        ev.callbacks.append(_logger(sim, log, "c"))
        sim._schedule_at(ev, 2.0)
        assert _peek(sim) == 2.0
        with pytest.raises(SimulationError, match="past"):
            sim._schedule_at(sim.event(), 1.0)
        sim.run()
        assert log == [(2.0, "a"), (2.0, "b"), (2.0, "c"), (5.0, "later")]

    def test_resume_after_run_until_event_stopped_mid_instant(self, kernel):
        sim, log = kernel(), []
        evs = [sim.timeout(1.0) for _ in range(3)]
        for name, ev in zip("abc", evs):
            ev.callbacks.append(_logger(sim, log, name))
        sim.run(until=evs[1])
        assert log == [(1.0, "a"), (1.0, "b")]
        assert (sim.now, _peek(sim)) == (1.0, 1.0)
        sim.timeout(0.0).callbacks.append(_logger(sim, log, "d"))
        sim.run(until=evs[2])
        assert log[-1] == (1.0, "c")
        sim.run(until=1.0)
        assert log[-1] == (1.0, "d") and _peek(sim) == float("inf")

    def test_run_dry_is_a_deadlock_only_when_both_levels_are_empty(self, kernel):
        sim = kernel()
        never = sim.event()
        sim.timeout(1.0)
        with pytest.raises(DeadlockError):
            sim.run(until=never)
        assert sim.now == 1.0
        sim.timeout(0.0).callbacks.append(lambda _e: never.succeed("late"))
        assert sim.run(until=never) == "late"


def test_fire_and_forget_timeouts_are_still_recycled():
    """``popleft()`` drops the queue's reference before the refcount
    test; were a bucket iterated in place, no Timeout would ever be
    pooled again."""
    sim = Simulator()

    def chain(n):
        for _ in range(n):
            yield sim.timeout(1.0)
            sim.timeout(0.0)

    sim.process(chain(50))
    sim.run()
    assert len(sim._timeout_pool) > 0
    pooled = sim._timeout_pool[-1]
    assert sim.timeout(1.0) is pooled
