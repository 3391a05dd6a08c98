"""Property tests for the parallel sweep scheduler's pure core.

The process pool itself is exercised end-to-end in
``test_parallel_determinism.py``; here Hypothesis drives the two pieces
the determinism claim reduces to:

* :func:`merge_messages` -- arbitrary point lists completing in
  arbitrary permutations (any shard assignment produces *some*
  permutation of completion messages) always merge to the same
  point-ordered result, and malformed completions are rejected; and
* per-point seed derivation -- pure in ``(root, label, index)``, hence
  independent of job count, shard size, and completion order by
  construction.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import (
    PointFailure,
    merge_messages,
    point_seeds,
    sweep_map,
)
from repro.sim.rng import RngRegistry, spawn_seed

import pytest


# ---------------------------------------------------------------------------
# merge_messages
# ---------------------------------------------------------------------------

@given(values=st.lists(st.integers(), max_size=50), data=st.data())
def test_merge_invariant_under_completion_order(values, data):
    """Any completion permutation merges to the point-ordered list."""
    messages = [("ok", i, v) for i, v in enumerate(values)]
    shuffled = data.draw(st.permutations(messages))
    assert merge_messages(len(values), shuffled) == values


@given(
    values=st.lists(st.integers(), min_size=1, max_size=50),
    failed=st.data(),
)
def test_merge_keeps_failures_in_their_slots(values, failed):
    fail_at = failed.draw(st.sets(
        st.integers(min_value=0, max_value=len(values) - 1), min_size=1))
    messages = []
    for i, v in enumerate(values):
        if i in fail_at:
            messages.append(("err", i, PointFailure(
                index=i, point=v, error_type="Boom", message="x")))
        else:
            messages.append(("ok", i, v))
    shuffled = failed.draw(st.permutations(messages))
    merged = merge_messages(len(values), shuffled)
    for i, v in enumerate(values):
        if i in fail_at:
            assert isinstance(merged[i], PointFailure)
            assert merged[i].index == i
        else:
            assert merged[i] == v


@given(values=st.lists(st.integers(), min_size=1, max_size=20), data=st.data())
def test_merge_rejects_duplicate_completions(values, data):
    messages = [("ok", i, v) for i, v in enumerate(values)]
    dup = data.draw(st.sampled_from(messages))
    with pytest.raises(ValueError, match="completed twice"):
        merge_messages(len(values), messages + [dup])


@given(values=st.lists(st.integers(), min_size=1, max_size=20), data=st.data())
def test_merge_rejects_missing_completions(values, data):
    messages = [("ok", i, v) for i, v in enumerate(values)]
    drop = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    partial = [m for m in messages if m[1] != drop]
    with pytest.raises(ValueError, match="never completed"):
        merge_messages(len(values), partial)


def test_merge_rejects_out_of_range_and_unknown_kind():
    with pytest.raises(ValueError, match="out of range"):
        merge_messages(1, [("ok", 5, None)])
    with pytest.raises(ValueError, match="unknown message kind"):
        merge_messages(1, [("wat", 0, None)])


# ---------------------------------------------------------------------------
# per-point seeds
# ---------------------------------------------------------------------------

@given(
    root=st.integers(min_value=0, max_value=2**31 - 1),
    label=st.text(min_size=1, max_size=20),
    n=st.integers(min_value=1, max_value=64),
    k=st.integers(min_value=1, max_value=64),
)
def test_point_seeds_are_prefix_stable(root, label, n, k):
    """Seeds depend only on (root, label, index): shrinking or growing
    the sweep -- or sharding it differently -- never reseeds a point."""
    a = point_seeds(root, label, n)
    b = point_seeds(root, label, k)
    m = min(n, k)
    assert a[:m] == b[:m]
    assert len(set(a)) == n  # distinct per point


@given(
    root=st.integers(min_value=0, max_value=2**31 - 1),
    label=st.text(min_size=1, max_size=20),
    parts=st.lists(
        st.one_of(st.integers(), st.text(max_size=8)), max_size=4),
)
def test_spawn_seed_is_pure_and_label_sensitive(root, label, parts):
    assert spawn_seed(root, label, *parts) == spawn_seed(root, label, *parts)
    assert spawn_seed(root, label, *parts) != spawn_seed(root + 1, label, *parts)


@given(root=st.integers(min_value=0, max_value=2**31 - 1),
       key=st.integers(min_value=0, max_value=1000))
def test_registry_spawn_reproducible_streams(root, key):
    """Two independently spawned children with the same key draw the
    same stream -- what makes worker-side RNG identical to serial."""
    a = RngRegistry(spawn_seed(root, "sweep", key)).stream("jitter")
    b = RngRegistry(spawn_seed(root, "sweep", key)).stream("jitter")
    assert a.random(4).tolist() == b.random(4).tolist()
    other = RngRegistry(spawn_seed(root, "sweep", key + 1)).stream("jitter")
    assert a.random(4).tolist() != other.random(4).tolist()


# ---------------------------------------------------------------------------
# scheduler (serial mode is the spec; pool mode is pinned in
# test_parallel_determinism.py against it)
# ---------------------------------------------------------------------------

def _poly(x, y):
    return 3 * x + y


@given(points=st.lists(
    st.tuples(st.integers(min_value=-50, max_value=50),
              st.integers(min_value=-50, max_value=50)),
    max_size=30))
@settings(max_examples=25)
def test_sweep_map_serial_matches_plain_map(points):
    assert sweep_map(_poly, points, jobs=1) == [_poly(*p) for p in points]
