"""One run configuration, resolved once and passed to workers.

The engine mode and job count reach a cluster only through the
installed :class:`~repro.runconfig.RunConfig`: the environment carries
nothing but ``$REPRO_JOBS``, and only :meth:`RunConfig.resolve` reads
it.  Spawned sweep workers get the parent's config as an argument, and
journal keys keep the scheme earlier journals were written under.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import canonical_json
from repro.experiments.runall import _group_key, run_selected
from repro.hw import Cluster, ClusterSpec
from repro.runconfig import DEFAULT_FLUID_THRESHOLD, RunConfig

#: ``_group_key(["fig02_rdma_latency"], "quick")`` as the env-variable
#: implementation computed it for an exact run and for a default-threshold
#: fluid run: journals written before RunConfig must stay resumable.
EXACT_FIG02_KEY = \
    "f39d5751356e25beaedb07764924c6b80d0044918daa3753b86b735adfb557da"
FLUID_FIG02_KEY = \
    "6a1a12e420e56dc731e5a018b28f47fa1cff280f339aaac23009d45065a1d0ca"


def test_environment_does_not_reach_a_cluster(monkeypatch):
    """The removed engine and fat-tree variables select nothing."""
    monkeypatch.setenv("REPRO_FLUID", "1")
    monkeypatch.setenv("REPRO_NODES_PER_SWITCH", "2")
    cl = Cluster(ClusterSpec())
    assert not cl.fluid
    assert cl.fabric.flow_engine is None
    assert cl.topology is None
    assert cl.spec.nodes_per_switch == 0


def test_explicit_spec_fields_win_over_the_config(run_config):
    run_config(fluid=True, fluid_threshold=4096)
    assert Cluster(ClusterSpec()).fluid_threshold == 4096
    cl = Cluster(ClusterSpec(fluid=False))
    assert not cl.fluid and cl.fabric.flow_engine is None
    assert Cluster(ClusterSpec(fluid_threshold=99)).fluid_threshold == 99


def test_resolve_reads_only_repro_jobs(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert RunConfig.resolve() == RunConfig(jobs=3)
    assert RunConfig.resolve(jobs=2).jobs == 2
    monkeypatch.setenv("REPRO_JOBS", "many")
    assert RunConfig.resolve().jobs == 1
    with pytest.raises(ValueError):
        RunConfig(fluid_threshold=0)


def test_journal_keys_match_the_pre_runconfig_scheme(run_config):
    assert _group_key(["fig02_rdma_latency"], "quick") == EXACT_FIG02_KEY
    run_config(fluid=True)
    assert _group_key(["fig02_rdma_latency"], "quick") == FLUID_FIG02_KEY
    run_config(fluid=True, fluid_threshold=DEFAULT_FLUID_THRESHOLD + 1)
    assert _group_key(["fig02_rdma_latency"], "quick") not in (
        EXACT_FIG02_KEY, FLUID_FIG02_KEY)


def test_sharded_fluid_campaign_equals_the_serial_fluid_run(run_config):
    """Workers are spawned interpreters that see no state of this one:
    the fluid config reaches them only as ``_worker_main``'s argument.
    fig03 is the witness -- fluid mode moves its last bits, so a worker
    that ran exact would not match the serial fluid run."""
    names = ["fig02_rdma_latency", "fig03_rdma_bw", "fig05_registration"]
    exact = run_selected(names, jobs=1)
    run_config(fluid=True)
    serial = run_selected(names, jobs=1)
    sharded = run_selected(names, jobs=2)
    assert [r["name"] for r in sharded] == names
    for s, p in zip(serial, sharded):
        assert s["error"] is None and p["error"] is None
        assert canonical_json(s["fig"].to_dict()) == \
            canonical_json(p["fig"].to_dict())
    assert canonical_json(exact[1]["fig"].to_dict()) != \
        canonical_json(serial[1]["fig"].to_dict())
