"""Unit tests for named random streams."""

import numpy as np

from repro.sim import RngRegistry


def test_same_name_same_stream_object():
    reg = RngRegistry(7)
    assert reg.stream("a") is reg.stream("a")


def test_deterministic_across_registries():
    a = RngRegistry(7).stream("workload").standard_normal(8)
    b = RngRegistry(7).stream("workload").standard_normal(8)
    assert np.allclose(a, b)


def test_streams_are_independent():
    reg = RngRegistry(7)
    a = reg.stream("a").standard_normal(64)
    b = reg.stream("b").standard_normal(64)
    assert not np.allclose(a, b)


def test_root_seed_changes_draws():
    a = RngRegistry(1).stream("x").standard_normal(16)
    b = RngRegistry(2).stream("x").standard_normal(16)
    assert not np.allclose(a, b)


def test_consumer_order_does_not_perturb_other_streams():
    r1 = RngRegistry(5)
    _ = r1.stream("early").standard_normal(100)
    late1 = r1.stream("late").standard_normal(8)

    r2 = RngRegistry(5)
    late2 = r2.stream("late").standard_normal(8)
    assert np.allclose(late1, late2)
