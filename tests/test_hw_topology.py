"""Tests for the optional two-level (leaf/spine) topology."""

import pytest

from tests.helpers import run_proc
from repro.hw import Cluster, ClusterSpec


class TestSpecTopology:
    def test_single_switch_default(self):
        spec = ClusterSpec(nodes=4, ppn=1)
        assert spec.leaf_of_node(0) == spec.leaf_of_node(3) == 0
        assert spec.switch_hops(0, 3) == 1
        assert spec.switch_hops(2, 2) == 0

    def test_leaf_assignment(self):
        spec = ClusterSpec(nodes=6, ppn=1, nodes_per_switch=2)
        assert spec.leaf_of_node(0) == spec.leaf_of_node(1) == 0
        assert spec.leaf_of_node(4) == spec.leaf_of_node(5) == 2

    def test_hop_counts(self):
        spec = ClusterSpec(nodes=6, ppn=1, nodes_per_switch=2)
        assert spec.switch_hops(0, 1) == 1      # same leaf
        assert spec.switch_hops(0, 5) == 3      # leaf-spine-leaf
        assert spec.switch_hops(3, 3) == 0


class TestFabricTopology:
    def _latency(self, spec, src, dst):
        cl = Cluster(spec)
        out = {}

        def prog(sim):
            t0 = sim.now
            t = cl.fabric.transfer(src_node=src, dst_node=dst, size=1,
                                   initiator="host")
            dv = yield t.completed
            out["t"] = dv.time - t0

        run_proc(cl, prog(cl.sim))
        return out["t"]

    def test_cross_leaf_slower_than_same_leaf(self):
        spec = ClusterSpec(nodes=4, ppn=1, nodes_per_switch=2)
        same = self._latency(spec, 0, 1)
        cross = self._latency(spec, 0, 3)
        assert cross == pytest.approx(
            same + 2 * spec.params.switch_hop_latency, rel=1e-9)

    def test_single_switch_matches_legacy_behaviour(self):
        flat = self._latency(ClusterSpec(nodes=4, ppn=1), 0, 3)
        spec = ClusterSpec(nodes=4, ppn=1, nodes_per_switch=4)
        one_leaf = self._latency(spec, 0, 3)
        assert flat == pytest.approx(one_leaf, rel=1e-9)

    def test_topology_visible_in_app_latency(self):
        """A pingpong across leaves pays the spine; within a leaf it
        doesn't."""
        from repro.apps.omb import pingpong_latency

        near = pingpong_latency(
            "intelmpi", ClusterSpec(nodes=4, ppn=1, nodes_per_switch=4),
            4096, iters=4)
        far = pingpong_latency(
            "intelmpi", ClusterSpec(nodes=4, ppn=1, nodes_per_switch=1),
            4096, iters=4)
        assert far > near
