"""Run configuration: the spec picks the engine, the CLI picks the jobs.

A cluster's engine is a :class:`~repro.hw.params.ClusterSpec` field and
nothing else: the environment carries nothing but ``$REPRO_JOBS``, a
default for ``--jobs`` that only the campaign CLIs read.  Journal keys
keep the scheme earlier journals were written under.
"""

from __future__ import annotations

import argparse

from repro.experiments.campaign import campaign_jobs
from repro.experiments.runall import _group_key
from repro.hw import Cluster, ClusterSpec

#: ``_group_key(["fig02_rdma_latency"], "quick")`` as every earlier
#: implementation computed it for an exact run: journals written before
#: stay resumable.
EXACT_FIG02_KEY = \
    "f39d5751356e25beaedb07764924c6b80d0044918daa3753b86b735adfb557da"


def test_environment_does_not_reach_a_cluster(monkeypatch):
    """The removed engine and fat-tree variables select nothing."""
    monkeypatch.setenv("REPRO_FLUID", "1")
    monkeypatch.setenv("REPRO_NODES_PER_SWITCH", "2")
    cl = Cluster(ClusterSpec())
    assert not cl.spec.fluid
    assert cl.fabric.flow_engine is None
    assert cl.sim.flow_engine is None
    assert cl.topology is None
    assert cl.spec.nodes_per_switch == 0


def _jobs(jobs=None) -> int:
    return campaign_jobs(argparse.ArgumentParser(),
                         argparse.Namespace(jobs=jobs, timeout=None))


def test_resolve_reads_only_repro_jobs(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert _jobs() == 3
    assert _jobs(2) == 2
    monkeypatch.setenv("REPRO_JOBS", "many")
    assert _jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert _jobs() == 1
    monkeypatch.delenv("REPRO_JOBS")
    assert _jobs() == 1


def test_exact_journal_key_matches_earlier_journals():
    assert _group_key(["fig02_rdma_latency"], "quick") == EXACT_FIG02_KEY
