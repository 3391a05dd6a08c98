"""Cluster-wide counters and latency histograms.

A single :class:`Metrics` object hangs off the :class:`~repro.hw.cluster.Cluster`
and is incremented from every layer: NIC engines, registration paths,
caches, proxies, the MPI runtime.  Experiments read it to report e.g.
control-message counts (Fig 15's Simple-vs-Group comparison) or
registration-cache hit rates.

Counters come in two kinds that read alike.  A cold counter is a dict
entry bumped by :meth:`Metrics.add`.  A hot one -- a post, a control
message, a proxy's per-message work -- is an integer slot on the object
that counts it (an :class:`~repro.hw.nic.Hca`, a proxy engine), bumped in
place with no call; the owner declares its slots once with
:meth:`Metrics.slots`, and :meth:`get`, iteration, :meth:`snapshot_full`
and :meth:`merge` add them in.  Either kind is a float when read, and a
key exists once it has been counted (a slotted byte total exists once
its message count does).

Besides counters the bag keeps one :class:`~repro.obs.hist.Histogram`
per observed key (:meth:`Metrics.observe`), so latency distributions --
transfer flight times, request post-to-completion, control-message RTTs
-- come out with p50/p95/p99 in ``snapshot_full`` instead of a single
mean.  A hot observer holds the key's live sample array
(:meth:`Metrics.samples`) and appends to it.
"""

from __future__ import annotations

from array import array
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
        #: Slotted counters: ``(owner, ((key, attr, witness_attr), ...))``.
        self._slotted: list[tuple] = []

    # -- counters ---------------------------------------------------------
    def add(self, key: str, amount: float = 1.0) -> None:
        self._counters[key] += amount

    def slots(self, owner, fields) -> None:
        """Read ``owner``'s integer slots as counters: ``fields`` is
        ``((key, attr, witness), ...)``; ``key`` exists once
        ``owner.witness`` is non-zero."""
        self._slotted.append((owner, tuple(fields)))

    def settle(self) -> None:
        """Fold the slotted counters into the bag and let go of their
        owners (end of life: the owners point back here)."""
        self._counters = defaultdict(float, self._totals())
        self._slotted.clear()

    def _totals(self) -> dict[str, float]:
        """Every counter, the slotted ones added in."""
        out = dict(self._counters)
        seen: dict[str, int] = {}
        for owner, fields in self._slotted:
            for key, attr, witness in fields:
                if getattr(owner, witness):
                    seen[key] = seen.get(key, 0) + getattr(owner, attr)
        for key, value in seen.items():
            out[key] = out.get(key, 0.0) + value
        return out

    def get(self, key: str) -> float:
        value = self._counters.get(key, 0.0)
        for owner, fields in self._slotted:
            for name, attr, _witness in fields:
                if name == key:
                    value += getattr(owner, attr)
        return float(value)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self._totals().items()))

    # -- histograms -------------------------------------------------------
    def observe(self, key: str, value: float) -> None:
        """Record one sample into the histogram named ``key``."""
        hist = self._hists.get(key)
        if hist is None:
            from repro.obs.hist import Histogram

            hist = self._hists[key] = Histogram()
        hist.observe(value)

    def samples(self, key: str) -> array:
        """The live sample array of histogram ``key`` (made on first
        use): appending to it is observing."""
        hist = self._hists.get(key)
        if hist is None:
            from repro.obs.hist import Histogram

            hist = self._hists[key] = Histogram()
        return hist._samples

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
    def snapshot_full(self) -> dict:
        """Counters plus histogram summaries, JSON-ready."""
        return {
            "counters": self._totals(),
            "histograms": {k: h.summary() for k, h in self.hists()},
        }

    def merge(self, other: "Metrics") -> "Metrics":
        """Fold another bag's counters and samples into this one."""
        for key, value in other._totals().items():
            self._counters[key] += value
        for key, hist in other._hists.items():
            mine = self._hists.get(key)
            if mine is None:
                from repro.obs.hist import Histogram

                mine = self._hists[key] = Histogram()
            mine.merge(hist)
        return self
