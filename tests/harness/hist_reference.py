"""The list-of-floats ``Histogram`` that ``repro.obs.hist`` replaced.

Kept as the oracle for tests/test_hw_metrics.py: the packed-doubles
version must give bit-identical ``samples()`` and ``summary()``,
including ``mean``'s summation order (``_ordered`` sorts in place, and
``mean`` / ``total`` sum whatever order the last query left).
"""

from __future__ import annotations

from repro.obs.hist import percentile


class ListHistogram:
    def __init__(self, samples=None):
        self._samples = list(samples) if samples is not None else []
        self._sorted = False

    def observe(self, value) -> None:
        self._samples.append(float(value))
        self._sorted = False

    def merge(self, other: "ListHistogram") -> "ListHistogram":
        self._samples.extend(other._samples)
        self._sorted = False
        return self

    def samples(self) -> list:
        return list(self._samples)

    def _ordered(self) -> list:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples

    @property
    def mean(self) -> float:
        return sum(self._samples) / len(self._samples)

    def percentile(self, q: float) -> float:
        return percentile(self._ordered(), q)

    def summary(self) -> dict:
        if not self._samples:
            return {"count": 0}
        ordered = self._ordered()
        return {
            "count": len(ordered), "min": ordered[0], "mean": self.mean,
            "max": ordered[-1], "p50": self.percentile(50.0),
            "p95": self.percentile(95.0), "p99": self.percentile(99.0),
            "total": sum(ordered),
        }
