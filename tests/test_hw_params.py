"""Unit tests for machine parameters and cluster shape."""

import pytest

from repro.hw import ClusterSpec, MachineParams
from repro.hw.params import DPU_CORES


class TestMachineParams:
    def test_defaults_encode_the_paper_asymmetries(self):
        p = MachineParams.paper_testbed()
        # ARM-posted messages are slower to inject and post.
        assert p.dpu_injection_gap > p.host_injection_gap
        assert p.dpu_post_overhead > p.host_post_overhead
        # DPU DRAM is below the wire rate (staging cannot keep up).
        assert p.dpu_memory_bandwidth < p.wire_bandwidth
        # Cross-registration is costlier than host GVMI registration.
        assert p.xreg_base > p.gvmi_reg_base
        assert p.xreg_per_page > p.gvmi_reg_per_page

    def test_ideal_nic_removes_the_arm_gap(self):
        p = MachineParams.ideal_nic()
        assert p.dpu_injection_gap == p.host_injection_gap
        assert p.dpu_memory_bandwidth == p.host_memory_bandwidth

    def test_with_overrides(self):
        p = MachineParams().with_overrides(wire_bandwidth=1.0)
        assert p.wire_bandwidth == 1.0
        assert MachineParams().wire_bandwidth != 1.0

    def test_frozen(self):
        with pytest.raises(Exception):
            MachineParams().wire_bandwidth = 0


class TestClusterSpec:
    def test_world_size(self):
        assert ClusterSpec(nodes=4, ppn=8).world_size == 32

    def test_block_rank_placement(self):
        spec = ClusterSpec(nodes=3, ppn=4)
        assert spec.node_of_rank(0) == 0
        assert spec.node_of_rank(3) == 0
        assert spec.node_of_rank(4) == 1
        assert spec.node_of_rank(11) == 2
        assert spec.local_rank(5) == 1

    def test_proxy_mapping_is_modulo(self):
        # Paper: proxy_local_rank = host_source_rank % num_proxies_per_dpu
        spec = ClusterSpec(nodes=2, ppn=8, proxies_per_dpu=4)
        assert spec.proxy_of_rank(0) == 0
        assert spec.proxy_of_rank(5) == 1
        assert spec.proxy_of_rank(11) == 3

    def test_rank_out_of_range(self):
        spec = ClusterSpec(nodes=2, ppn=2)
        with pytest.raises(ValueError):
            spec.node_of_rank(4)
        with pytest.raises(ValueError):
            spec.proxy_of_rank(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nodes": 0},
            {"ppn": 0},
            {"proxies_per_dpu": 0},
            {"proxies_per_dpu": DPU_CORES + 1},
        ],
    )
    def test_invalid_shapes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ClusterSpec(**kwargs)


class TestClusterAssembly:
    def test_structure(self, small_cluster):
        cl = small_cluster
        assert len(cl.nodes) == 2
        assert len(cl.ranks) == 4
        assert len(cl.proxies) == 4
        assert cl.rank_ctx(3).node_id == 1
        assert cl.rank_ctx(3).local_id == 1

    def test_proxy_for_rank_is_on_same_node(self, small_cluster):
        for rank in range(small_cluster.world_size):
            proxy = small_cluster.proxy_for_rank(rank)
            assert proxy.node_id == small_cluster.spec.node_of_rank(rank)
            assert proxy.kind == "dpu"

    def test_same_node(self, small_cluster):
        assert small_cluster.same_node(0, 1)
        assert not small_cluster.same_node(1, 2)

    def test_contexts_have_disjoint_address_spaces(self, small_cluster):
        a = small_cluster.rank_ctx(0).space
        b = small_cluster.rank_ctx(1).space
        addr = a.alloc(10)
        assert not b.contains(addr)


def _cli_options(capsys, command: str) -> set[str]:
    """The ``--options`` that ``python -m repro <command> --help`` lists
    in its usage block."""
    import re

    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    return set(re.findall(r"\[(--[\w-]+)", usage))


def test_flag_surface_may_only_shrink(capsys):
    """The counts ROADMAP tracks (aim 2), as a ratchet: lower a bound
    when a flag goes, never raise one -- a new independently settable
    value needs a reader that an existing one cannot serve."""
    import re
    from dataclasses import fields
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    text = "\n".join(p.read_text() for p in sorted(src.rglob("*.py")))
    assert len(fields(MachineParams)) + len(fields(ClusterSpec)) <= 54
    assert len(set(re.findall(r"\bREPRO_[A-Z_]+", text))) <= 1
    assert len(re.findall(r"^\s*def using_", text, flags=re.M)) == 0
    run = _cli_options(capsys, "run")
    assert "--jobs" in run and len(run) <= 7, sorted(run)
    soak = _cli_options(capsys, "soak")
    assert "--jobs" in soak and len(soak) <= 14, sorted(soak)
