"""Execution tracing: per-process busy spans + message arrows.

Opt-in: attach a :class:`Tracer` to a cluster *before* running and the
hardware layer records

* a **span** every time a process consumes core time
  (:meth:`ProcessContext.consume`), and
* an **arrow** for every fabric transfer (post -> delivery).

``repro.obs.render_timeline`` turns the trace into the kind of
per-process timeline the paper sketches in Fig 1 (its docstring shows
one) -- handy for eyeballing where a pattern stalls.  Usage::

    tracer = Tracer.attach(cluster)
    ...run...
    print(render_timeline(tracer, width=72))
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Optional

__all__ = ["Span", "Arrow", "Tracer"]


class Span(NamedTuple):
    """A half-open interval of core occupancy on one process."""

    entity: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Arrow(NamedTuple):
    """One message flight through the fabric."""

    src: str
    dst: str
    size: int
    kind: str
    posted: float
    delivered: float


@dataclass
class Tracer:
    """Recorder attached to a cluster (see :meth:`attach`)."""

    spans: list[Span] = field(default_factory=list)
    arrows: list[Arrow] = field(default_factory=list)
    #: Ignore events before this time (e.g. warm-up iterations).
    t_min: float = 0.0
    #: ``entity -> its spans`` in recording order, filled by
    #: :meth:`record_span`: what per-lane readers (``busy_time``, the
    #: timeline, the offloaded-window invariant) iterate.
    lanes: dict[str, list[Span]] = field(
        default_factory=lambda: defaultdict(list), init=False, repr=False)

    # -- wiring -----------------------------------------------------------
    @staticmethod
    def attach(cluster) -> "Tracer":
        """Create a tracer and hook it onto ``cluster`` (and its fabric)."""
        tracer = Tracer()
        cluster.tracer = tracer
        cluster.fabric.tracer = tracer
        return tracer

    @staticmethod
    def of(cluster) -> Optional["Tracer"]:
        return getattr(cluster, "tracer", None)

    # -- recording ----------------------------------------------------------
    def record_span(self, entity: str, start: float, end: float) -> None:
        if end > start and end >= self.t_min:
            span = Span(entity, max(start, self.t_min), end)
            self.spans.append(span)
            self.lanes[entity].append(span)

    def record_arrow(self, src: str, dst: str, size: int, kind: str,
                     posted: float, delivered: float) -> None:
        if delivered >= self.t_min:
            self.arrows.append(Arrow(src, dst, size, kind, posted, delivered))

    def reset(self, t_min: Optional[float] = None) -> None:
        """Clear recordings; optionally start a fresh window at ``t_min``."""
        self.spans.clear()
        self.lanes.clear()
        self.arrows.clear()
        if t_min is not None:
            self.t_min = t_min

    # -- queries ------------------------------------------------------------
    @property
    def entities(self) -> list[str]:
        seen: dict[str, None] = dict.fromkeys(self.lanes)
        for a in self.arrows:
            seen.setdefault(a.src)
            seen.setdefault(a.dst)
        return list(seen)

    def busy_time(self, entity: str) -> float:
        return sum(s.end - s.start for s in self.lanes.get(entity, ()))

    def window(self) -> tuple[float, float]:
        # Both records end in their two times; one pass, no copies.
        lo, hi = float("inf"), float("-inf")
        for rec in chain(self.spans, self.arrows):
            lo, hi = min(lo, rec[-2], rec[-1]), max(hi, rec[-2], rec[-1])
        return (lo, hi) if lo <= hi else (0.0, 0.0)
