"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld

try:
    from hypothesis import settings
except ImportError:  # jobs that run no property test install no Hypothesis
    pass
else:
    # A profile named by --hypothesis-profile must exist before the plugin's
    # pytest_configure, i.e. before any test module is imported.  Tests
    # that want to be fuzzed harder read settings.default.max_examples
    # (tests/harness/test_kernel_differential.py).
    settings.register_profile("fuzz", max_examples=2000, deadline=None)


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden", action="store_true", default=False,
        help="rewrite the golden event-stream files under tests/golden/ "
             "from the current run instead of comparing against them",
    )


@pytest.fixture
def regen_golden(request) -> bool:
    return request.config.getoption("--regen-golden")


@pytest.fixture
def sim():
    from repro.sim import Simulator

    return Simulator()


@pytest.fixture
def small_cluster():
    """2 nodes x 2 ranks, 2 proxies per DPU."""
    return Cluster(ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=2))


@pytest.fixture
def tiny_cluster():
    """2 nodes x 1 rank, 1 proxy -- the minimal inter-node setup."""
    return Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))


@pytest.fixture
def world(small_cluster):
    return MpiWorld(small_cluster)
