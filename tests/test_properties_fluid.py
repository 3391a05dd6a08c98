"""Property-based tests (hypothesis) on the fluid-flow engine.

Three families of invariants (docs/PERFORMANCE.md):

* the max-min rate solver (``repro.sim.flows.fair_shares``) never
  oversubscribes an endpoint, never hands out negative or
  above-cap rates, and always leaves every unfrozen flow with a
  saturated bottleneck (the water-filling fixed point);
* flow completion times through the fabric are monotone in message
  size;
* fluid results are a pure function of the workload *set*: the same
  transfers give bit-identical finish times regardless of posting
  order, and re-running the same seed reproduces them exactly.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import Cluster, ClusterSpec
from repro.sim.flows import fair_shares

# ---------------------------------------------------------------------------
# fair_shares: conservation + max-min fixed point
# ---------------------------------------------------------------------------

flow_sets = st.lists(
    st.tuples(
        st.integers(0, 5),                                 # tx endpoint
        st.integers(6, 11),                                # rx endpoint
        st.floats(0.05, 1.0, allow_nan=False),             # per-flow cap
    ),
    min_size=1,
    max_size=40,
)

_EPS = 1e-9


@settings(max_examples=200, deadline=None)
@given(flows=flow_sets)
def test_fair_shares_conserves_link_capacity(flows):
    tx = np.array([f[0] for f in flows], dtype=np.int64)
    rx = np.array([f[1] for f in flows], dtype=np.int64)
    caps = np.array([f[2] for f in flows], dtype=np.float64)
    shares = fair_shares(tx, rx, caps, 12)

    assert shares.shape == caps.shape
    # no negative or above-cap rates
    assert np.all(shares >= 0.0)
    assert np.all(shares <= caps + _EPS)
    # conservation: every endpoint's shares sum to at most its capacity
    for ep in range(12):
        load = shares[(tx == ep) | (rx == ep)].sum()
        assert load <= 1.0 + _EPS, f"endpoint {ep} oversubscribed: {load}"


@settings(max_examples=200, deadline=None)
@given(flows=flow_sets)
def test_fair_shares_is_maxmin_fixed_point(flows):
    """No flow can be raised without breaking a constraint: each flow is
    either at its own cap or crosses a saturated endpoint."""
    tx = np.array([f[0] for f in flows], dtype=np.int64)
    rx = np.array([f[1] for f in flows], dtype=np.int64)
    caps = np.array([f[2] for f in flows], dtype=np.float64)
    shares = fair_shares(tx, rx, caps, 12)

    load = np.zeros(12)
    np.add.at(load, tx, shares)
    np.add.at(load, rx, shares)
    for i in range(len(flows)):
        at_cap = shares[i] >= caps[i] - _EPS
        tx_sat = load[tx[i]] >= 1.0 - _EPS
        rx_sat = load[rx[i]] >= 1.0 - _EPS
        assert at_cap or tx_sat or rx_sat, (
            f"flow {i} (share {shares[i]}, cap {caps[i]}) could be raised: "
            f"tx load {load[tx[i]]}, rx load {load[rx[i]]}"
        )


@settings(max_examples=100, deadline=None)
@given(
    flows=flow_sets,
    seed=st.integers(0, 2**31 - 1),
)
def test_fair_shares_order_invariant(flows, seed):
    """Rates depend on the flow *set*, not the array order."""
    tx = np.array([f[0] for f in flows], dtype=np.int64)
    rx = np.array([f[1] for f in flows], dtype=np.int64)
    caps = np.array([f[2] for f in flows], dtype=np.float64)
    base = fair_shares(tx, rx, caps, 12)

    perm = np.arange(len(flows))
    random.Random(seed).shuffle(perm)
    shuffled = fair_shares(tx[perm], rx[perm], caps[perm], 12)
    np.testing.assert_allclose(shuffled, base[perm], rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# fabric-level: monotonicity + determinism
# ---------------------------------------------------------------------------

def _finish_times(transfers, threshold=64 * 1024):
    """Completion time of each (src, dst, size) transfer, all posted at
    t=0 on a 4-node one-leaf tree; returned in posting order."""
    cl = Cluster(ClusterSpec(nodes=4, ppn=1, proxies_per_dpu=1,
                             nodes_per_switch=4, fluid_threshold=threshold))
    done = [None] * len(transfers)

    def prog():
        pending = []
        for i, (src, dst, size) in enumerate(transfers):
            t = cl.fabric.transfer(src_node=src, dst_node=dst, size=size,
                                   initiator="host")
            t.completed.callbacks.append(
                lambda _ev, i=i: done.__setitem__(i, cl.sim.now))
            pending.append(t.completed)
        yield cl.sim.all_of(pending)

    cl.sim.process(prog())
    cl.sim.run()
    assert all(t is not None for t in done)
    return done


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(64 * 1024, 4 << 20), min_size=2, max_size=6,
                   unique=True),
)
def test_completion_time_monotone_in_bytes(sizes):
    """Solo flows: more bytes never finish sooner."""
    times = {s: _finish_times([(0, 1, s)])[0] for s in sizes}
    ordered = sorted(sizes)
    for smaller, larger in zip(ordered, ordered[1:]):
        assert times[smaller] < times[larger], (
            f"{smaller}B finished at {times[smaller]}, "
            f"{larger}B at {times[larger]}"
        )


transfer_sets = st.lists(
    st.tuples(
        st.integers(0, 3),                                 # src node
        st.integers(0, 3),                                 # dst node
        st.integers(64 * 1024, 2 << 20),                   # size
    ).filter(lambda t: t[0] != t[1]),
    min_size=1,
    max_size=12,
)


@settings(max_examples=25, deadline=None)
@given(transfers=transfer_sets, seed=st.integers(0, 2**31 - 1))
def test_fluid_deterministic_under_permutation(transfers, seed):
    """The multiset of (transfer, finish time) pairs is identical no
    matter the posting order, and identical on a re-run."""
    base = _finish_times(transfers)
    # re-run: exact reproduction
    assert _finish_times(transfers) == base

    order = list(range(len(transfers)))
    random.Random(seed).shuffle(order)
    permuted = _finish_times([transfers[i] for i in order])
    got = sorted(zip((transfers[i] for i in order), permuted))
    want = sorted(zip(transfers, base))
    assert got == want


def test_fair_shares_all_idle_endpoints():
    """Endpoints with no crossing flows stay untouched; an empty flow
    set yields an empty share vector."""
    assert fair_shares([], [], [], 5).shape == (0,)
    # One flow on endpoints 0/1; endpoints 2..4 idle.
    assert fair_shares([0], [1], [1.0], 5)[0] == 1.0


# ---------------------------------------------------------------------------
# engine edge cases: admission guards, churn
# ---------------------------------------------------------------------------

def _engine():
    from repro.sim import FlowEngine, Simulator

    sim = Simulator()
    return sim, FlowEngine(sim)


def test_zero_work_flow_rejected():
    sim, eng = _engine()
    for bad in (0.0, -1.0):
        try:
            eng.add_flow(path=("a", "b"), work=bad, finish=lambda f, t: None)
        except ValueError:
            pass
        else:
            raise AssertionError(f"work={bad} was admitted")
        # A zero-cap flow could never drain: no wake would be armed.
        with pytest.raises(ValueError, match="cap"):
            eng.add_flow(path=("a", "b"), work=1.0, cap=bad,
                         finish=lambda f, t: None)
    # A fully drained flow has no residue to requeue either.
    drained = []
    f = eng.add_flow(path=("a", "b"), work=1.0,
                     finish=lambda fl, t: drained.append(fl))
    sim.run()
    assert drained == [f] and f.remaining == 0.0
    try:
        eng.requeue(f)
    except ValueError:
        pass
    else:
        raise AssertionError("drained flow was requeued")


def test_flow_set_churn_in_one_instant():
    """Cancel + requeue + admit inside a single simulated instant
    batches into one coherent recompute (no lost or double work)."""
    sim, eng = _engine()
    finished = {}

    def fin(name):
        return lambda f, t: finished.setdefault(name, t)

    f1 = eng.add_flow(path=("a", "b"), work=1.0, finish=fin("f1"))
    eng.add_flow(path=("a", "b"), work=1.0, finish=fin("f2"))

    def churn(_ev):
        rem = eng.cancel_flow(f1)          # settled at t=0.5: 0.25 done
        assert rem is not None and abs(rem - 0.75) < 1e-9
        eng.requeue(f1, finish=fin("f1b"))  # back in the same instant
        eng.add_flow(path=("a", "b"), work=0.5, finish=fin("f3"))

    ev = sim.event()
    ev._ok = True
    ev._value = None
    ev.callbacks.append(churn)
    sim._schedule_at(ev, 0.5)
    sim.run()
    assert "f1" not in finished  # the cancelled flow's finish never fired
    assert set(finished) == {"f1b", "f2", "f3"}
    # Total work 0.75 + 0.75 + 0.5 = 2.0 port-s from t=0.5 on a unit
    # endpoint: everything must have drained by exactly t=2.5.
    assert max(finished.values()) == pytest.approx(2.5)
    assert eng.active_count == 0


def test_cancel_pending_flow_same_instant():
    sim, eng = _engine()
    fired = []
    f = eng.add_flow(path=("a", "b"), work=1.0,
                     finish=lambda fl, t: fired.append(t))
    assert eng.cancel_flow(f) == 1.0  # cancelled before the batch kick
    sim.run()
    assert not fired and eng.active_count == 0
    assert eng.flows_cancelled == 1


def test_cancel_after_drain_returns_none():
    sim, eng = _engine()
    f = eng.add_flow(path=("a", "b"), work=1.0, finish=lambda fl, t: None)
    sim.run()
    assert eng.cancel_flow(f) is None


@settings(max_examples=40, deadline=None)
@given(
    works=st.lists(st.floats(0.1, 4.0, allow_nan=False), min_size=2,
                   max_size=8),
    cancel_at=st.floats(0.05, 0.5, allow_nan=False),
    cancel_idx=st.integers(0, 7),
)
def test_cancel_requeue_conserves_work(works, cancel_at, cancel_idx):
    """Cancelling any flow mid-drain and immediately requeueing it
    leaves total delivered work -- and thus the final drain time --
    identical to never cancelling at all."""
    cancel_idx %= len(works)

    def run(interfere):
        sim, eng = _engine()
        done = {}
        flows = [
            eng.add_flow(path=("x", f"r{i}"), work=w,
                         finish=lambda f, t, i=i: done.setdefault(i, t))
            for i, w in enumerate(works)
        ]
        if interfere:
            def poke(_ev):
                victim = flows[cancel_idx]
                if eng.cancel_flow(victim) is not None:
                    eng.requeue(
                        victim,
                        finish=lambda f, t: done.setdefault(cancel_idx, t))

            ev = sim.event()
            ev._ok = True
            ev._value = None
            ev.callbacks.append(poke)
            sim._schedule_at(ev, cancel_at)
        sim.run()
        assert len(done) == len(works)
        return max(done.values())

    base = run(False)
    assert run(True) == pytest.approx(base, rel=1e-9)
