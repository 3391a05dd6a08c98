"""Reference Chrome-trace exporter: the oracle for ``repro.obs.export``.

``chrome_trace`` below is the eager list-of-dicts builder of PR 22's
tree, kept verbatim with the helpers it reads: one row dict per span,
arrow end and bus event, ordered by Python's stable
``sort(key=itemgetter("ts", "tid", "ph", "name"))``.  It costs ~440 B
per row and is obviously right;
``tests/harness/test_chrome_trace_differential.py`` requires the
production exporter's column view to render the *same rows in the same
order* on real, faulted, filtered, cleared and synthetic streams.

It was written against a separate span-and-arrow recorder, which the bus
has since absorbed.  :class:`Recorded` is the adapter: it rebuilds that
recorder's ``spans`` and ``arrows`` lists from a bus through its public
queries (``spans()``, ``select``), and :func:`chrome_trace_of` feeds
them to the verbatim builder.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import NamedTuple


class Span(NamedTuple):
    """A half-open interval of core occupancy on one process."""

    entity: str
    start: float
    end: float


class Arrow(NamedTuple):
    """One message flight through the fabric."""

    src: str
    dst: str
    size: int
    kind: str
    posted: float
    delivered: float


class Recorded:
    """The old recorder's lists, rebuilt from ``bus``: its spans in
    recording order, and one arrow per ``xfer.deliver`` whose ``xid`` has
    an ``xfer.post`` (the last such post), in delivery order."""

    def __init__(self, bus):
        self.spans = [Span(*span) for span in bus.spans()]
        posts = {ev.arg("xid"): ev for ev in bus.select(cat="xfer", name="post")}
        self.arrows = []
        for dv in bus.select(cat="xfer", name="deliver"):
            post = posts.get(dv.arg("xid"))
            if post is not None:
                self.arrows.append(Arrow(post.entity, dv.entity, post.arg("size"),
                                         post.arg("kind"), post.time, dv.time))

    @property
    def entities(self) -> list[str]:
        seen: dict[str, None] = dict.fromkeys(s.entity for s in self.spans)
        for a in self.arrows:
            seen.setdefault(a.src)
            seen.setdefault(a.dst)
        return list(seen)


def chrome_trace_of(cluster=None, bus=None) -> dict:
    """:func:`chrome_trace` of ``bus`` (default: the cluster's) and its
    :class:`Recorded` spans and arrows."""
    bus = getattr(cluster, "bus", None) if bus is None else bus
    return chrome_trace(cluster, bus=bus,
                        tracer=None if bus is None else Recorded(bus))

#: Version stamp written into every snapshot / trace we produce.
SCHEMA_VERSION = "repro.obs/1"

_ENT_RE = re.compile(r"^([a-z_]+?)(\d+)$")

# Lane ordering: hosts first (the paper's Fig 1 reads top-down
# host -> DPU), then proxies, then per-node fabric lanes, then misc.
_KIND_ORDER = {"host": 0, "dpu": 1, "proxy": 1, "node": 2, "fabric": 3}


def _entity_key(name: str):
    m = _ENT_RE.match(name)
    if m:
        kind, idx = m.group(1), int(m.group(2))
        return (_KIND_ORDER.get(kind, 4), kind, idx)
    return (5, name, 0)


def sort_entities(names) -> list[str]:
    """Deterministic lane order: host0, host1, ..., dpu0, ..., node0, ..."""
    return sorted(set(names), key=_entity_key)


def _us(t: float) -> float:
    """Seconds -> microseconds, rounded so output is byte-stable."""
    return round(t * 1e6, 4)


def chrome_trace(cluster=None, bus=None, tracer=None,
                 process_name: str = "repro-sim") -> dict:
    """Build a Chrome ``trace_event`` JSON object for one run.

    Any of ``bus``/``tracer`` may be ``None`` (defaults come from the
    cluster's attached instances); an entirely empty run still yields a
    valid trace containing only metadata records.
    """
    if cluster is not None:
        if bus is None:
            bus = getattr(cluster, "bus", None)
        if tracer is None:
            tracer = getattr(cluster, "tracer", None)

    entities = set(tracer.entities) if tracer is not None else set()
    if bus is not None:
        entities.update(ev.entity for ev in bus.events)
    lanes = sort_entities(entities)
    tid_of = {name: i + 1 for i, name in enumerate(lanes)}

    def meta(record: str, tid: int, args: dict) -> dict:
        return {"name": record, "ph": "M", "pid": 0, "tid": tid, "args": args}

    metadata = [meta("process_name", 0, {"name": process_name})]
    for name, tid in tid_of.items():
        metadata.append(meta("thread_name", tid, {"name": name}))
        metadata.append(meta("thread_sort_index", tid, {"sort_index": tid}))

    rows: list[dict] = []
    if tracer is not None:
        for s in tracer.spans:
            rows.append({
                "name": "busy", "cat": "cpu", "ph": "X",
                "ts": _us(s.start), "dur": _us(s.end - s.start),
                "pid": 0, "tid": tid_of[s.entity],
            })
        for i, a in enumerate(tracer.arrows):
            common = {"cat": "fabric", "id": i, "pid": 0,
                      "name": f"{a.kind} {a.src}->{a.dst}"}
            rows.append({**common, "ph": "b", "ts": _us(a.posted),
                         "tid": tid_of[a.src],
                         "args": {"size": a.size, "dst": a.dst}})
            rows.append({**common, "ph": "e", "ts": _us(a.delivered),
                         "tid": tid_of[a.src]})

    if bus is not None:
        kind_names: dict[tuple[str, str], str] = {}
        for ev in bus.events:
            kind = (ev.cat, ev.name)
            name = kind_names.get(kind)
            if name is None:
                name = kind_names[kind] = f"{ev.cat}.{ev.name}"
            rows.append({
                "name": name, "cat": ev.cat, "ph": "i",
                "ts": _us(ev.time), "pid": 0, "tid": tid_of[ev.entity],
                "s": "t", "args": dict(ev.args),
            })

    # Chrome sorts by ts; keep the file itself deterministic too.  The
    # sort is stable (ties stay in build order) and its key is built in
    # C.  Metadata rows carry no ``ts`` and lead the file, where sorting
    # them as ts=-1 put them: simulator times are never negative.
    rows.sort(key=itemgetter("ts", "tid", "ph", "name"))
    return {
        "traceEvents": metadata + rows,
        "displayTimeUnit": "ns",
        "otherData": {"schema": SCHEMA_VERSION, "generator": "repro.obs"},
    }
