"""Latency histograms layered onto the flat :class:`~repro.hw.metrics.Metrics` bag.

A :class:`Histogram` keeps raw samples (runs here are small enough --
thousands of observations -- that exact percentiles beat bucketed
approximations) and reports p50/p95/p99 plus min/mean/max.  ``Metrics``
grows an ``observe(key, value)`` entry point that maintains one
histogram per key next to the counters, so instrumented layers can do
``metrics.observe("xfer.latency.dpu", dt)`` without new plumbing.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional

__all__ = ["Histogram", "percentile"]


def percentile(sorted_samples, q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence.

    Matches ``numpy.percentile(..., method="linear")``; ``q`` in [0, 100].
    """
    if not sorted_samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q={q!r} not in [0, 100]")
    n = len(sorted_samples)
    if n == 1:
        return float(sorted_samples[0])
    pos = (q / 100.0) * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(sorted_samples[lo]) * (1.0 - frac) + float(sorted_samples[hi]) * frac


class Histogram:
    """Exact-sample histogram with deterministic summaries.

    Samples are packed C doubles (8 bytes each, not a 32-byte float
    object and its list slot): every fabric message records up to three.
    """

    __slots__ = ("_samples", "_sorted")

    def __init__(self, samples: Optional[Iterable[float]] = None):
        #: The one sample array for the histogram's life: a hot observer
        #: appends to it directly (``Metrics.samples``).
        self._samples = array("d", samples if samples is not None else ())
        #: How many samples the last sort covered (-1: never sorted); a
        #: later append or merge makes the array longer than that.
        self._sorted = -1

    # -- recording ------------------------------------------------------
    def observe(self, value: float) -> None:
        self._samples.append(value)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s samples into this histogram (returns self)."""
        self._samples.extend(other._samples)
        return self

    # -- queries --------------------------------------------------------
    def samples(self) -> list[float]:
        """Copy of the raw samples (cross-process histogram merges)."""
        return self._samples.tolist()

    def __len__(self) -> int:
        return len(self._samples)

    def __bool__(self) -> bool:
        return bool(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def _ordered(self) -> array:
        # Sorts in place as far as callers can tell: ``mean`` / ``total``
        # sum in whatever order the last query left.
        samples = self._samples
        if self._sorted != len(samples):
            samples[:] = array("d", sorted(samples))
            self._sorted = len(samples)
        return samples

    @property
    def min(self) -> float:
        return self._ordered()[0]

    @property
    def max(self) -> float:
        return self._ordered()[-1]

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError("mean of an empty histogram")
        return sum(self._samples) / len(self._samples)

    @property
    def total(self) -> float:
        return sum(self._samples)

    def percentile(self, q: float) -> float:
        return percentile(self._ordered(), q)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def summary(self) -> dict:
        """JSON-ready summary; ``{"count": 0}`` when empty."""
        if not self._samples:
            return {"count": 0}
        return {
            "count": self.count,
            "min": self.min,
            "mean": self.mean,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "total": self.total,
        }

    def __repr__(self):  # pragma: no cover
        if not self._samples:
            return "Histogram(empty)"
        return (f"Histogram(n={self.count}, p50={self.p50:.3e}, "
                f"p95={self.p95:.3e}, p99={self.p99:.3e})")
