"""Unit tests for the metrics bag and its histogram layer."""

import numpy as np
import pytest

from repro.hw import Metrics
from repro.obs import Histogram
from repro.obs.hist import percentile


def test_add_and_get():
    m = Metrics()
    m.add("a.b")
    m.add("a.b", 2)
    assert m.get("a.b") == 3
    assert m["a.b"] == 3


def test_missing_key_is_zero():
    assert Metrics().get("nope") == 0.0


def test_contains():
    m = Metrics()
    m.add("x")
    assert "x" in m and "y" not in m


def test_iteration_is_sorted():
    m = Metrics()
    m.add("b")
    m.add("a")
    assert [k for k, _ in m] == ["a", "b"]


def test_snapshot_and_reset():
    m = Metrics()
    m.add("k", 4)
    snap = m.snapshot()
    m.reset()
    assert snap == {"k": 4} and m.get("k") == 0


def test_float_accumulation_is_exact_for_representable_values():
    m = Metrics()
    for _ in range(10):
        m.add("t", 0.25)
    assert m.get("t") == 2.5
    m.add("t", -2.5)
    assert m.get("t") == 0.0
    # and tiny increments don't vanish against a large total
    m.add("big", 1e12)
    m.add("big", 0.5)
    assert m.get("big") == 1e12 + 0.5


def test_observe_and_hist():
    m = Metrics()
    for v in (3.0, 1.0, 2.0):
        m.observe("lat", v)
    h = m.hist("lat")
    assert h.count == 3
    assert h.min == 1.0 and h.max == 3.0 and h.mean == 2.0
    assert h.p50 == 2.0
    # unknown key -> an empty histogram, not a KeyError
    assert m.hist("never").count == 0
    assert m.hist("never").summary() == {"count": 0}


def test_snapshot_stays_counters_only_but_full_has_both():
    m = Metrics()
    m.add("c", 2)
    m.observe("lat", 1.5)
    assert m.snapshot() == {"c": 2}
    full = m.snapshot_full()
    assert full["counters"] == {"c": 2}
    assert full["histograms"]["lat"]["count"] == 1
    assert full["histograms"]["lat"]["p99"] == 1.5


def test_merge_adds_counters_and_concatenates_samples():
    a, b = Metrics(), Metrics()
    a.add("x", 1)
    a.observe("lat", 1.0)
    b.add("x", 2)
    b.add("y", 5)
    b.observe("lat", 3.0)
    b.observe("other", 7.0)
    assert a.merge(b) is a
    assert a.get("x") == 3 and a.get("y") == 5
    assert a.hist("lat").count == 2 and a.hist("lat").mean == 2.0
    assert a.hist("other").count == 1
    # the source bag is untouched
    assert b.hist("lat").count == 1 and b.get("x") == 2


def test_reset_clears_histograms_too():
    m = Metrics()
    m.observe("lat", 1.0)
    m.reset()
    assert m.hist("lat").count == 0


class TestHistogram:
    def test_percentiles_match_numpy_linear(self):
        rng = np.random.default_rng(9)
        samples = rng.uniform(0, 1, size=137)
        h = Histogram(samples)
        for q in (0, 10, 50, 95, 99, 100):
            assert h.percentile(q) == pytest.approx(
                np.percentile(samples, q, method="linear"), rel=1e-12)

    def test_single_sample(self):
        h = Histogram([4.2])
        assert h.p50 == h.p99 == h.min == h.max == 4.2

    def test_empty_rejects_stats(self):
        h = Histogram()
        assert not h and len(h) == 0
        with pytest.raises(ValueError):
            h.p50
        with pytest.raises(ValueError):
            h.mean

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            Histogram([1.0]).percentile(101)

    def test_observe_after_percentile_resorts(self):
        h = Histogram([5.0, 1.0])
        assert h.p50 == 3.0
        h.observe(0.0)  # must invalidate the sorted view
        assert h.min == 0.0 and h.p50 == 1.0

    def test_merge_returns_self_and_totals(self):
        a, b = Histogram([1.0]), Histogram([3.0, 5.0])
        assert a.merge(b) is a
        assert a.count == 3 and a.total == 9.0

    @pytest.mark.parametrize("seed", range(6))
    def test_packed_doubles_match_the_list_version_bit_for_bit(self, seed):
        """Random and merged sample sets, queried in random order: the
        unsorted mean, the sort a percentile leaves behind, later
        observes and merges all read the same as the list version."""
        from tests.harness.hist_reference import ListHistogram

        rng = np.random.default_rng(seed)
        pairs = [(Histogram(), ListHistogram()) for _ in range(3)]

        def same(new, ref):
            assert new.samples() == ref.samples()
            assert len(new) == len(ref.samples())
            if ref.samples():
                assert new.mean.hex() == ref.mean.hex()
            assert new.summary() == ref.summary()
            assert new.samples() == ref.samples()  # summary() sorted both

        for _ in range(40):
            new, ref = pairs[int(rng.integers(3))]
            step = int(rng.integers(4))
            if step == 0:
                # Mixed magnitudes so summation order shows in the bits.
                for v in rng.uniform(0, 1, int(rng.integers(1, 30))) * 10.0 ** rng.integers(-9, 3):
                    value = [float(v), np.float64(v), int(v * 1e6)][int(rng.integers(3))]
                    new.observe(value)
                    ref.observe(value)
            elif step == 1:
                other_new, other_ref = pairs[int(rng.integers(3))]
                if other_new is not new:
                    assert new.merge(other_new) is new
                    ref.merge(other_ref)
            elif step == 2 and ref.samples():
                q = float(rng.uniform(0, 100))
                assert new.percentile(q).hex() == ref.percentile(q).hex()
            else:
                same(new, ref)
        for new, ref in pairs:
            same(new, ref)
            clone = Histogram(new.samples())
            assert clone.summary() == new.summary()

    def test_percentile_function_validates(self):
        with pytest.raises(ValueError):
            percentile([], 50)
