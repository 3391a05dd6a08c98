"""Run configuration: the spec picks the engine, the CLI picks the jobs.

A cluster's engine is a :class:`~repro.hw.params.ClusterSpec` field and
nothing else: the environment carries nothing but ``$REPRO_JOBS``, a
default for ``--jobs`` that only the campaign CLIs read.  Journal keys
are pinned, so journals written under the current scheme stay
resumable.
"""

from __future__ import annotations

import argparse

from repro.experiments.campaign import campaign_jobs
from repro.experiments import fig02_rdma_latency
from repro.experiments.campaign import point_key
from repro.hw import Cluster, ClusterSpec

#: The journal key of fig02's first point, ``("host", 1)`` of sweep
#: ``fig02``: journals written under this scheme stay resumable.
EXACT_FIG02_KEY = \
    "0cc9d766e648b9310f076433a35b79fd433b0dda232001f60a92f8338e9e9928"


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
    (sweep,) = fig02_rdma_latency.sweeps("quick")
    assert point_key(sweep.label, None, sweep.points[0]) == EXACT_FIG02_KEY
