"""Cluster-wide counters and latency histograms.

A single :class:`Metrics` object hangs off the :class:`~repro.hw.cluster.Cluster`
and is incremented from every layer: NIC engines, registration paths,
caches, proxies, the MPI runtime.  Experiments read it to report e.g.
control-message counts (Fig 15's Simple-vs-Group comparison) or
registration-cache hit rates.

Besides flat counters (:meth:`Metrics.add`) the bag keeps one
:class:`~repro.obs.hist.Histogram` per observed key
(:meth:`Metrics.observe`) so latency distributions -- transfer flight
times, request post-to-completion, control-message RTTs -- come out
with p50/p95/p99 in the JSON snapshot instead of a single mean.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.hist import Histogram

__all__ = ["Metrics"]


class Metrics:
    """A hierarchical counter bag: ``metrics.add("nic.host_posted")``."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = defaultdict(float)
        self._hists: dict[str, "Histogram"] = {}

    # -- counters ---------------------------------------------------------
    def add(self, key: str, amount: float = 1.0) -> None:
        self._counters[key] += amount

    def get(self, key: str) -> float:
        return self._counters.get(key, 0.0)

    def __getitem__(self, key: str) -> float:
        return self.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self._counters.items()))

    # -- histograms -------------------------------------------------------
    def observe(self, key: str, value: float) -> None:
        """Record one sample into the histogram named ``key``."""
        hist = self._hists.get(key)
        if hist is None:
            from repro.obs.hist import Histogram

            hist = self._hists[key] = Histogram()
        hist.observe(value)

    def hist(self, key: str) -> "Histogram":
        """The histogram for ``key`` (an empty one if never observed)."""
        hist = self._hists.get(key)
        if hist is None:
            from repro.obs.hist import Histogram

            hist = Histogram()
        return hist

    def hists(self) -> Iterator[tuple[str, "Histogram"]]:
        return iter(sorted(self._hists.items()))

    # -- aggregation ------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Counters only (back-compat); see ``snapshot_full`` for both."""
        return dict(self._counters)

    def snapshot_full(self) -> dict:
        """Counters plus histogram summaries, JSON-ready."""
        return {
            "counters": dict(self._counters),
            "histograms": {k: h.summary() for k, h in self.hists()},
        }

    def merge(self, other: "Metrics") -> "Metrics":
        """Fold another bag's counters and samples into this one."""
        for key, value in other._counters.items():
            self._counters[key] += value
        for key, hist in other._hists.items():
            mine = self._hists.get(key)
            if mine is None:
                from repro.obs.hist import Histogram

                mine = self._hists[key] = Histogram()
            mine.merge(hist)
        return self

    def reset(self) -> None:
        self._counters.clear()
        self._hists.clear()
