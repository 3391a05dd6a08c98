"""Congestion physics on the explicit fat-tree: closed forms + ECMP.

The per-link fluid fabric makes contention *predictable*: max-min
fairness over the topology's link graph has exact closed forms for the
canonical patterns, and this file pins them down --

* **N:1 incast** -- N equal flows into one rx link each get ``cap/N``,
  so they all drain at exactly ``N * work`` (engine level) and the
  fabric's delivery times grow by exactly one serialization window per
  extra sender (the protocol tail cancels in differences);
* **shared-spine interference** -- a victim crossing a spine with k
  longer-lived aggressors gets share ``1/(k+1)`` and drains at exactly
  ``(k+1) * work``;
* **ECMP** -- the deterministic hash spreads cross-leaf pairs over all
  spines, is bit-stable across cluster seeds and interpreter respawns
  (it never touches Python's ``hash()``), and flows hashed to distinct
  spines do not contend at all.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.hw import (
    Cluster,
    ClusterSpec,
    FatTreeTopology,
    ecmp_hash,
)
from repro.sim import FlowEngine, Simulator, flows as flows_mod
from tests.harness.waterfill import waterfill_reference

REL = 1e-9


def _engine():
    sim = Simulator()
    eng = FlowEngine(sim)
    sim.attach_flow_engine(eng)
    return sim, eng


def _drains(sim, eng, flows):
    """Admit (path, work) flows at t=0; run; return drain times in order."""
    out = {}

    def finish(flow, now):
        out[flow.tag] = now

    for i, (path, work) in enumerate(flows):
        eng.add_flow(path=path, work=work, finish=finish, tag=i)
    sim.run()
    return [out[i] for i in range(len(flows))]


# ---------------------------------------------------------------------------
# closed forms at the engine level
# ---------------------------------------------------------------------------

class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_incast_drains_in_n_windows(self, n):
        """N equal flows into one rx link each get cap/N: drain = N*work."""
        sim, eng = _engine()
        work = 3e-4
        flows = [(((("tx", i), ("rx", 0))), work) for i in range(n)]
        times = _drains(sim, eng, flows)
        for t in times:
            assert t == pytest.approx(n * work, rel=REL)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_spine_victim_fair_share(self, k):
        """A victim sharing a spine with k outliving aggressors gets 1/(k+1)."""
        sim, eng = _engine()
        work = 2e-4
        up = ("up", 0, 0)
        victim = ((("tx", 0), up, ("down", 0, 1), ("rx", 4)), work)
        aggrs = [
            ((("tx", 1 + i), up, ("down", 0, 1), ("rx", 5 + i)), 4 * work)
            for i in range(k)
        ]
        times = _drains(sim, eng, [victim] + aggrs)
        assert times[0] == pytest.approx((k + 1) * work, rel=REL)

    def test_distinct_spines_do_not_contend(self):
        """Two cross-leaf flows on different spines drain like solo flows."""
        sim, eng = _engine()
        work = 2e-4
        flows = [
            ((("tx", 0), ("up", 0, 0), ("down", 0, 1), ("rx", 4)), work),
            ((("tx", 1), ("up", 0, 1), ("down", 1, 1), ("rx", 5)), work),
        ]
        for t in _drains(sim, eng, flows):
            assert t == pytest.approx(work, rel=REL)

    def test_double_crossing_loads_twice(self):
        """A path crossing the same link twice loads it with both hops."""
        sim, eng = _engine()
        work = 1e-4
        hairpin = ((("tx", 0), ("up", 0, 0), ("up", 0, 0), ("rx", 1)), work)
        [t] = _drains(sim, eng, [hairpin])
        # Share is capped at cap/2 by its own double crossing.
        assert t == pytest.approx(2 * work, rel=REL)


# ---------------------------------------------------------------------------
# staggered arrivals: every arrival and every drain is its own re-solve
# ---------------------------------------------------------------------------

def _staggered_run(seed=11, nodes=32, waves=2, posts_per_wave=3):
    """Jittered bulk posts in two waves on a 4-leaf, 2-spine tree (the
    shape of the repo benchmark's ``fattree_bulk_fluid``); returns the
    engine and every transfer's completion time in post order."""
    cl = Cluster(ClusterSpec(nodes=nodes, ppn=1, proxies_per_dpu=1,
                             nodes_per_switch=8, spine_count=2))
    cl.payloads = False
    rng = random.Random(seed)
    plan = [[[(rng.uniform(0.0, 50e-6), (node + 1 + rng.randrange(nodes - 1))
               % nodes, rng.choice([1 << 18, 1 << 20, 1 << 22]))
              for _ in range(posts_per_wave)] for _ in range(waves)]
            for node in range(nodes)]
    done = {}

    def prog(node, node_waves):
        for w, posts in enumerate(node_waves):
            handles = []
            for jitter, dst, size in posts:
                yield cl.sim.timeout(jitter)
                handles.append(cl.fabric.transfer(
                    src_node=node, dst_node=dst, size=size, initiator="host"))
            for i, t in enumerate(handles):
                yield t.completed
                done[node, w, i] = cl.sim.now

    for node, node_waves in enumerate(plan):
        cl.sim.process(prog(node, node_waves))
    cl.sim.run()
    return cl.fabric.flow_engine, [done[k] for k in sorted(done)]


class TestStaggeredArrivals:
    def test_drains_match_reference_waterfill(self, monkeypatch):
        """Hundreds of distinct share levels per solve -- the regime the
        parallel-bottleneck rounds exist for -- drain exactly where the
        level-by-level reference puts them."""
        engine, times = _staggered_run()
        monkeypatch.setattr(flows_mod, "fair_shares_links",
                            waterfill_reference)
        ref_engine, ref_times = _staggered_run()
        assert ref_engine.flows_finished == engine.flows_finished == 192
        assert times == pytest.approx(ref_times, rel=REL, abs=0.0)

    def test_two_recomputes_per_flow(self):
        """One re-solve at each arrival and one at each drain: nothing
        batches, nothing re-solves twice."""
        engine, _times = _staggered_run()
        assert engine.recomputes == 2 * engine.flows_started == 384


# ---------------------------------------------------------------------------
# closed forms through the fabric (protocol tail cancels in differences)
# ---------------------------------------------------------------------------

def _incast_cluster(n):
    return Cluster(ClusterSpec(nodes=n + 1, ppn=1, proxies_per_dpu=1,
                               nodes_per_switch=n + 1,
                               fluid_threshold=1024))


def _fabric_incast_time(n, size=1 << 20):
    """Last delivery time of an n:1 raw-fabric incast posted at t=0."""
    cl = _incast_cluster(n)
    deliveries = []

    def prog():
        pending = [
            cl.fabric.transfer(src_node=i, dst_node=0, size=size,
                               initiator="host").completed
            for i in range(1, n + 1)
        ]
        got = yield cl.sim.all_of(pending)
        deliveries.extend(got.values() if hasattr(got, "values") else got)

    cl.sim.process(prog())
    cl.sim.run()
    return cl.sim.now


class TestFabricIncast:
    def test_linear_in_fan_in(self):
        """t(N) = t(1) + (N-1)*ser exactly: fair sharing of the rx port."""
        t1, t2, t4 = (_fabric_incast_time(n) for n in (1, 2, 4))
        ser = t2 - t1  # one extra sender costs exactly one window
        assert ser > 0
        assert t4 == pytest.approx(t1 + 3 * ser, rel=REL)

    def test_congestion_observable(self):
        """An incast trips the link.congested metric on the rx link."""
        n = 4
        cl = Cluster(ClusterSpec(nodes=n + 1, ppn=1, proxies_per_dpu=1,
                                 nodes_per_switch=2, spine_count=2,
                                 fluid_threshold=1024))

        def prog():
            pending = [
                cl.fabric.transfer(src_node=i, dst_node=0, size=1 << 20,
                                   initiator="host").completed
                for i in range(1, n + 1)
            ]
            yield cl.sim.all_of(pending)

        cl.sim.process(prog())
        cl.sim.run()
        assert cl.metrics.get("fabric.link_congested") >= 1
        # Per-link utilization integrated the congested rx port's busy time.
        util = cl.fabric.flow_engine.link_utilization()
        assert util.get(("rx", 0), 0.0) > 0.0


class TestFabricSpine:
    def _victim_time(self, k, size=1 << 20):
        """Victim's delivery time with k same-spine aggressor flows."""
        cl = Cluster(ClusterSpec(nodes=8, ppn=1, proxies_per_dpu=1,
                                 nodes_per_switch=4, spine_count=1,
                                 fluid_threshold=1024))
        t_victim = []

        def prog():
            pending = [cl.fabric.transfer(src_node=0, dst_node=4, size=size,
                                          initiator="host").completed]
            for i in range(k):
                pending.append(cl.fabric.transfer(
                    src_node=1 + i, dst_node=5 + i, size=4 * size,
                    initiator="host").completed)
            dv = yield pending[0]
            t_victim.append(dv.time)
            yield cl.sim.all_of(pending[1:])

        cl.sim.process(prog())
        cl.sim.run()
        return t_victim[0]

    def test_victim_slows_by_exact_fair_share(self):
        """Each aggressor adds exactly one serialization window."""
        t0, t1, t3 = (self._victim_time(k) for k in (0, 1, 3))
        ser = t1 - t0
        assert ser > 0
        assert t3 == pytest.approx(t0 + 3 * ser, rel=REL)

    def test_delivery_records_path(self):
        """Path-routed deliveries carry the 4-link path they crossed."""
        cl = Cluster(ClusterSpec(nodes=8, ppn=1, proxies_per_dpu=1,
                                 nodes_per_switch=4, spine_count=1,
                                 fluid_threshold=1024))
        got = []

        def prog():
            dv = yield cl.fabric.transfer(src_node=0, dst_node=4,
                                          size=1 << 20,
                                          initiator="host").completed
            got.append(dv)

        cl.sim.process(prog())
        cl.sim.run()
        assert got[0].path == (("tx", 0), ("up", 0, 0),
                               ("down", 0, 1), ("rx", 4))


# ---------------------------------------------------------------------------
# ECMP: spread + determinism
# ---------------------------------------------------------------------------

class TestEcmp:
    def test_hash_golden_values(self):
        """The splitmix-style mix is pinned: these values may never drift
        (committed traces and figure tables depend on path choices)."""
        assert ecmp_hash(0, 1) == 0x5693D3E0E482F7D9
        assert ecmp_hash(1, 0) == 0xC0E16B163A85A4DC
        assert ecmp_hash(0, 4) == 0xCEC16CDB07C216FF
        assert ecmp_hash(7, 3) == 0xCBF2C5071E242A5B

    def test_spread_across_spines(self):
        """Cross-leaf pairs cover every spine of a 4-spine tree."""
        spec = ClusterSpec(nodes=32, ppn=1, nodes_per_switch=4,
                           spine_count=4)
        topo = FatTreeTopology(spec)
        spines = set()
        for src in range(4):
            for dst in range(4, 32):
                p = topo.path(src, dst)
                assert len(p) == 4
                spines.add(p[1][2])
        assert spines == {0, 1, 2, 3}

    def test_same_pair_same_spine(self):
        """All flows of one (src, dst) pair ride one spine, like a real
        switch hashing a 5-tuple."""
        spec = ClusterSpec(nodes=8, ppn=1, nodes_per_switch=2,
                           spine_count=4)
        topo = FatTreeTopology(spec)
        assert len({topo.path(0, 6) for _ in range(10)}) == 1

    def test_deterministic_across_cluster_seeds(self):
        """Path choice is independent of the cluster RNG seed."""
        paths = []
        for seed in (1, 12345):
            cl = Cluster(ClusterSpec(nodes=8, ppn=1, nodes_per_switch=2,
                                     spine_count=2, seed=seed))
            paths.append([cl.topology.path(s, d)
                          for s in range(2) for d in range(4, 8)])
        assert paths[0] == paths[1]

    def test_deterministic_across_process_respawn(self):
        """ECMP survives interpreter restarts and PYTHONHASHSEED changes
        (it must never route through Python's randomized hash())."""
        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.hw import FatTreeTopology, ClusterSpec\n"
            "t = FatTreeTopology(ClusterSpec(nodes=8, ppn=1,"
            " nodes_per_switch=2, spine_count=3))\n"
            "print([t.path(s, d)[1] for s in range(2)"
            " for d in range(4, 8)])\n"
        )
        outs = set()
        for hashseed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            r = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=60,
                               cwd=os.path.dirname(os.path.dirname(
                                   os.path.abspath(__file__))))
            assert r.returncode == 0, r.stderr
            outs.add(r.stdout.strip())
        assert len(outs) == 1
