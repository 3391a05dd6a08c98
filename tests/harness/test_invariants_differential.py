"""The indexed checker against its verbatim predecessor.

``repro.obs.invariants`` answers every lookup from the bus's per-kind
index, keyed dicts and bisects; ``tests/harness/invariants_reference``
is the same checker as it stood before, scanning and re-scanning.  On
clean runs, on every deliberately broken run of ``test_invariants`` and
on seeded mutations of recorded streams the two must return the *same
list in the same order* -- same invariants, same messages, same
first-match choices.  A scaling pin keeps the quadratic loops from
coming back.
"""

import random
import time
from types import SimpleNamespace

import pytest

from tests import test_faults_flows as flows
from tests.harness import invariants_reference as reference
from tests.harness.test_invariants import SYNTHETIC_STREAMS, lost_fin_run
from tests.test_golden_traces import SCENARIOS
from repro.experiments.fig15_group_vs_simple import _scatter_dest
from repro.hw import Cluster, ClusterSpec, FaultSpec, ProxyKillPlan
from repro.obs import EventBus, observe_cluster, trace_violations
from repro.offload import OffloadFramework


def _both(bus, **kw) -> list[str]:
    """Violations, after asserting the oracle reports exactly the same."""
    got = trace_violations(bus, **kw)
    assert got == reference.violations_of(bus, **kw)
    return got


def _keys(obs):
    return obs.cluster._verbs.keys


class TestRealRuns:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_golden_runs(self, name):
        obs = SCENARIOS[name]()
        assert _both(obs.bus, keys=_keys(obs)) == []

    def test_lost_fin_run(self):
        obs = lost_fin_run()
        assert len(_both(obs.bus, keys=_keys(obs))) == 2

    @pytest.mark.parametrize("name", sorted(SYNTHETIC_STREAMS))
    def test_synthetic_streams(self, name):
        bus = SYNTHETIC_STREAMS[name]()
        _both(bus)
        _both(bus, allow_replay_after_fault=False)
        _both(bus, check_overlap=False)


# -- seeded mutations ---------------------------------------------------------
def _replay(events, spans=()) -> EventBus:
    """A fresh bus holding ``events`` in the given order (``seq`` re-stamped)
    and ``spans``."""
    clock = SimpleNamespace(now=0.0)
    bus = EventBus(sim=clock)
    for time_, cat, name, entity, args in events:
        clock.now = time_
        bus.emit(cat, name, entity, **args)
    for span in spans:
        bus.span(*span)
    return bus


def _recorded(bus):
    events = [(ev.time, ev.cat, ev.name, ev.entity, dict(ev.args))
              for ev in bus.events]
    return events, bus.spans()


#: Categories some invariant reads; mutations land here four times in five.
_CHECKED_CATS = ("req", "xfer", "ctrl", "group", "flow", "fault", "proxy")


def _pick(rng, events, cat=None, name=None):
    """Index of a random event; with no kind given, of a random *kind*
    first, so rare kinds (group.done, flow.retry) are hit as often as
    the wqe.post bulk."""
    if cat is None:
        kinds = sorted({(e[1], e[2]) for e in events})
        checked = [k for k in kinds if k[0] in _CHECKED_CATS]
        cat, name = rng.choice(checked if rng.random() < 0.8 else kinds)
    hits = [i for i, e in enumerate(events)
            if e[1] == cat and (name is None or e[2] == name)]
    return rng.choice(hits) if hits else None


def _arrow_pairs(events) -> list[tuple[int, int]]:
    """``(post, deliver)`` indices of the transfers in ``events``."""
    posts = {e[4].get("xid"): i for i, e in enumerate(events)
             if e[1:3] == ("xfer", "post")}
    return [(posts[e[4].get("xid")], i) for i, e in enumerate(events)
            if e[1:3] == ("xfer", "deliver") and e[4].get("xid") in posts]


def _mutate(rng, events, spans):
    """Apply one random mutation in place."""
    horizon = max(e[0] for e in events)
    hosts = sorted({s[0] for s in spans if s[0].startswith("host")})
    ops = ["drop", "duplicate", "shift", "retime_to_zero", "flip_arg"]
    if hosts:
        ops += ["shift_span", "insert_span", "append_early_span"]
    if any(e[1:3] == ("xfer", "deliver") for e in events):
        ops += ["flip_arrow"]
    if any(e[1:3] == ("group", "done") for e in events):
        ops += ["delete_done", "duplicate_done"]
    op = rng.choice(ops)
    if op == "drop":
        del events[_pick(rng, events)]
    elif op == "duplicate":
        i = _pick(rng, events)
        events.insert(rng.randrange(i, len(events) + 1), events[i])
    elif op == "shift":
        i = _pick(rng, events)
        t, *rest = events[i]
        events[i] = (max(0.0, t + rng.uniform(-0.5, 0.5) * horizon), *rest)
    elif op == "retime_to_zero":
        i = _pick(rng, events)
        events[i] = (0.0, *events[i][1:])
    elif op == "flip_arg":
        # Re-key one event so it pairs with the wrong partner (or none).
        i = _pick(rng, events)
        args = dict(events[i][4])
        if args.get("mode") in ("cached", "build", "reship"):
            args["mode"] = rng.choice(["cached", "build", "reship"])
        elif args.get("action") in ("drop", "abort"):
            args["action"] = "abort" if args["action"] == "drop" else "drop"
        else:
            ints = [k for k, v in sorted(args.items()) if type(v) is int]
            if ints:
                args[rng.choice(ints)] += rng.choice([-1, 1, 1000])
        events[i] = (*events[i][:4], args)
    elif op in ("delete_done", "duplicate_done"):
        i = _pick(rng, events, "group", "done")
        if op == "delete_done":
            del events[i]
        else:
            t, *rest = events[i]
            events.insert(rng.randrange(0, len(events)),
                          (rng.uniform(0, horizon), *rest))
    elif op == "shift_span":
        i = rng.choice([i for i, s in enumerate(spans) if s[0] in hosts])
        entity, start, end = spans[i]
        shifted = rng.uniform(0, horizon)
        spans[i] = (entity, shifted, shifted + (end - start))
    elif op == "insert_span":
        start = rng.uniform(0, horizon)
        spans.insert(rng.randrange(len(spans) + 1),
                     (rng.choice(hosts), start, start + rng.uniform(1e-9, 5e-6)))
    elif op == "append_early_span":
        # Recorded last but early in time: the lane is no longer ordered.
        start = rng.uniform(0, horizon / 4)
        spans.append((rng.choice(hosts), start,
                       start + rng.uniform(1e-9, horizon)))
    elif op == "flip_arrow":
        # Swap one transfer's post and delivery times.
        pairs = _arrow_pairs(events)
        if pairs:
            p, d = rng.choice(pairs)
            events[p], events[d] = ((events[d][0], *events[p][1:]),
                                    (events[p][0], *events[d][1:]))


def _mutation_sweep(bus, n, seed):
    """``n`` single/double mutants; returns every violation they raised."""
    base = _recorded(bus)
    base_bus = _replay(*base)
    seen: list[str] = []
    dirty = 0
    for k in range(n):
        rng = random.Random(seed * 100_003 + k)
        events, spans = (list(part) for part in base)
        for _ in range(rng.choice([1, 1, 2])):
            _mutate(rng, events, spans)
        mbus = base_bus if (events, spans) == base else _replay(events, spans)
        violations = _both(mbus, allow_replay_after_fault=rng.random() < 0.8)
        dirty += bool(violations)
        seen += violations
    assert dirty >= n // 4, "mutations hardly ever broke an invariant"
    return seen


@pytest.fixture(scope="module")
def fig15_obs():
    """A fixed-seed fig15 cell (group, 4 KiB): one build call, one cached."""
    holder = {}
    _scatter_dest("quick", 4096, "group", iters=1, warmup=1,
                  instrument=lambda cl: holder.setdefault(
                      "obs", observe_cluster(cl)))
    return holder["obs"]


class TestMutatedStreams:
    def test_replay_is_faithful(self, fig15_obs):
        """The unmutated replay is the recorded run: clean, same stream."""
        events, spans = _recorded(fig15_obs.bus)
        bus = _replay(events, spans)
        assert bus.events == fig15_obs.bus.events
        assert bus.spans() == fig15_obs.bus.spans() != []
        assert _both(bus) == []

    def test_fig15_group_mutations(self, fig15_obs):
        seen = _mutation_sweep(fig15_obs.bus, n=200, seed=14)
        # Non-vacuous: each of these invariants was tripped by some mutant.
        for needle in ("never delivered", "neither delivered nor recorded",
                       "before its post", "no group.done ever followed",
                       "without host involvement",
                       "plan-cache hits must stay monotone"):
            assert any(needle in v for v in seen), needle

    def test_ring_broadcast_mutations(self):
        """Basic primitives: the request post/complete invariant."""
        obs = SCENARIOS["ring_broadcast"]()
        seen = _mutation_sweep(obs.bus, n=80, seed=17)
        assert any("never completed" in v for v in seen)

    def test_fluid_fault_mutations(self):
        """Flow windows, flow faults (drop -> retry) and their deliveries."""
        cl, _plan, bus = flows._fluid_cluster(FaultSpec(flow_drop_prob=0.5))
        flows._stream(cl, n=8)
        assert bus.count(cat="flow", name="retry") > 0
        seen = _mutation_sweep(bus, n=120, seed=15)
        for needle in ("never retransmitted", "its finisher was lost",
                       "after the flow drains"):
            assert any(needle in v for v in seen), needle

    def test_proxy_kill_mutations(self):
        """Aborted flows, error deliveries and post-fault plan replays."""
        probe = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
        cl, _plan, bus = flows._fluid_cluster(
            kills=[ProxyKillPlan(proxy_gid=probe.proxy_for_rank(0).global_id,
                                 at=80e-6, restart_after=60e-6)])
        flows.TestProxyKillAbortsFlows()._bulk_exchange(cl, OffloadFramework(cl))
        assert bus.count(cat="flow", name="fault", action="abort") > 0
        assert _both(bus) == []
        _mutation_sweep(bus, n=80, seed=16)


class TestScaling:
    def test_two_thousand_windows_over_two_hundred_thousand_spans(self):
        """2 000 offloaded windows on one host lane carrying 200 000
        spans: 4e8 span visits (~40 s) for the per-window lane scan,
        one bisect per window now.  The bound is a 20x margin on a slow
        box, not a micro-timing."""
        clock = SimpleNamespace(now=0.0)
        bus = EventBus(sim=clock)
        for w in range(2000):
            t = w * 1e-3
            # 100 spans of host CPU before each window opens ...
            for k in range(100):
                bus.span("host0", t + k * 1e-6, t + k * 1e-6 + 5e-7)
            clock.now = t + 2e-4
            bus.emit("group", "offloaded", "host0", call=w, sig=1)
            clock.now = t + 8e-4
            bus.emit("group", "done", "host0", call=w)
        assert len(bus.spans()) == 200_000
        t0 = time.perf_counter()
        assert trace_violations(bus) == []
        assert time.perf_counter() - t0 < 2.0
        # ... and one span inside the last window is still found.
        bus.span("host0", 1999e-3 + 4e-4, 1999e-3 + 5e-4)
        (violation,) = trace_violations(bus)
        assert "call=1999" in violation and "without host involvement" in violation
