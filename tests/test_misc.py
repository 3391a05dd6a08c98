"""Odds and ends: presets, CLI, experiment sweep configs."""

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import appruns
from repro.hw import MachineParams


class TestBlueField3Preset:
    def test_faster_than_bf2_everywhere_it_should_be(self):
        bf2 = MachineParams.paper_testbed()
        bf3 = MachineParams.bluefield3()
        assert bf3.wire_bandwidth > bf2.wire_bandwidth
        assert bf3.dpu_post_overhead < bf2.dpu_post_overhead
        assert bf3.dpu_injection_gap < bf2.dpu_injection_gap
        assert bf3.dpu_memory_bandwidth > bf2.dpu_memory_bandwidth
        assert bf3.xreg_base < bf2.xreg_base

    def test_asymmetries_narrow_but_remain(self):
        bf3 = MachineParams.bluefield3()
        bf2 = MachineParams.paper_testbed()
        # the DPU is still the slower party...
        assert bf3.dpu_injection_gap > bf3.host_injection_gap
        assert bf3.dpu_memory_bandwidth < bf3.wire_bandwidth
        # ...but relatively less so than on BF-2
        assert (bf3.dpu_injection_gap / bf3.host_injection_gap
                < bf2.dpu_injection_gap / bf2.host_injection_gap)
        assert (bf3.dpu_memory_bandwidth / bf3.wire_bandwidth
                > bf2.dpu_memory_bandwidth / bf2.wire_bandwidth)


class TestCli:
    def test_info(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "fig17_hpl" in out

    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_figures_subcommand_unknown_figure(self, capsys):
        assert cli_main(["run", "fig99"]) == 2

    def test_figures_runs_a_cheap_figure(self, capsys):
        assert cli_main(["run", "fig05"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out and "PASS" in out

    def test_figures_is_not_a_second_spelling_of_run(self, capsys):
        assert cli_main(["figures", "fig05"]) == 2
        assert "unknown command 'figures'" in capsys.readouterr().out

    def test_run_usage_names_the_command(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli_main(["run", "--bad"])
        assert stop.value.code == 2
        assert capsys.readouterr().err.startswith("usage: repro run ")


class TestSweepConfigs:
    def test_paper_scale_matches_testbed(self):
        spec = appruns.stencil_spec("paper")
        assert (spec.nodes, spec.ppn) == (16, 32)
        assert appruns.stencil_sizes("paper") == [512, 1024, 2048]
        assert appruns.ialltoall_nodes("paper") == [4, 8, 16]
        assert appruns.hpl_spec("paper").ppn == 32

    def test_quick_scale_is_small(self):
        spec = appruns.stencil_spec("quick")
        assert spec.world_size <= 64
        for nodes in appruns.ialltoall_nodes("quick"):
            assert appruns.ialltoall_spec("quick", nodes).world_size <= 64

    def test_hpl_variants_cover_the_paper(self):
        labels = [label for label, _f, _b in appruns.hpl_variants()]
        assert labels == [
            "IntelMPI-1ring", "IntelMPI-Ibcast", "BluesMPI", "Proposed",
        ]

    def test_hpl_fractions_match_fig17(self):
        assert appruns.hpl_fractions() == [0.05, 0.10, 0.25, 0.50, 0.75]

    def test_p3dfft_paper_grids_divide(self):
        for cfg in appruns.p3dfft_configs("paper"):
            from repro.apps.p3dfft import PencilGrid

            for z in cfg["zs"]:
                grid = PencilGrid.for_world(cfg["x"], cfg["y"], z,
                                            cfg["spec"].world_size)
                grid.check()  # must not raise
