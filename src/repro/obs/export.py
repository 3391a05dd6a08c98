"""Exporters: Chrome ``trace_event`` JSON, text timelines, metrics snapshots.

Three output formats, all deterministic for a fixed seed:

* :func:`chrome_trace` -- the Chrome/Perfetto ``trace_event`` JSON
  object format (https://ui.perfetto.dev loads the file as-is).  Busy
  spans become ``"X"`` complete slices, fabric arrows (``xfer.post`` ->
  ``xfer.deliver`` of one ``xid``) become ``"b"/"e"`` async pairs, and
  bus events become ``"i"`` instants, each parked on the track of its
  emitting entity.
* :func:`render_timeline` -- the per-rank text timeline: busy lanes
  plus per-entity busy-time and utilisation columns, lanes ordered
  hosts -> DPUs -> fabric.
* :func:`metrics_snapshot` -- a JSON-ready dict of every counter and
  histogram summary, written next to ``results/`` by ``runall`` and the
  benchmark harness so perf regressions diff as data, not prose.

The first two read the bus's columns (:class:`~repro.obs.events.Columns`)
directly; neither builds an :class:`~repro.obs.events.ObsEvent`.
"""

from __future__ import annotations

import json
import os
import re
from array import array
from collections.abc import Sequence
from dataclasses import asdict, is_dataclass
from itertools import chain
from operator import eq
from pathlib import Path
from typing import Optional

import numpy as np

from repro.obs.events import Columns

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "render_timeline",
    "metrics_snapshot",
    "write_metrics_snapshot",
]

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


class _TraceView(Sequence):
    """Read-only ``traceEvents``: metadata, then the rows ``order`` names by
    build index (spans, arrow begin/end pairs, events), rendered on demand
    from the recording ``cols`` (whose later rows it never reads)."""

    def __init__(self, metadata, order, tid_of, cols, n_spans, arrows):
        self._metadata, self._order, self._tid_of = metadata, order, tid_of
        self._cols, self._n_spans = cols, n_spans
        self._posts, self._delivers = arrows
        self._labels = [f"{cat}.{name}" for cat, name, _ in cols.shapes]

    def __len__(self) -> int:
        return len(self._metadata) + len(self._order)

    def _row(self, r: int) -> dict:
        c, tid_of = self._cols, self._tid_of
        if r < self._n_spans:
            start = c.span_start[r]
            return {"name": "busy", "cat": "cpu", "ph": "X",
                    "ts": _us(start), "dur": _us(c.span_end[r] - start),
                    "pid": 0, "tid": tid_of[c.span_entity[r]]}
        i, end = divmod(r - self._n_spans, 2)
        if i < len(self._posts):
            post, dv = self._posts[i], self._delivers[i]
            src, dst = c.entity[post], c.entities[c.entity[dv]]
            row = {"cat": "fabric", "id": i, "pid": 0,
                   "name": f"{c.arg(post, 'kind')} {c.entities[src]}->{dst}",
                   "ph": "be"[end], "ts": _us(c.time[dv if end else post]),
                   "tid": tid_of[src]}
            if not end:
                row["args"] = {"size": c.arg(post, "size"), "dst": dst}
            return row
        e = r - self._n_spans - 2 * len(self._posts)
        code = c.shape[e]
        cat, _, keys = c.shapes[code]
        off = c.offset[e]
        return {"name": self._labels[code], "cat": cat, "ph": "i",
                "ts": _us(c.time[e]), "pid": 0, "tid": tid_of[c.entity[e]],
                "s": "t", "args": dict(zip(keys, c.values[off:off + len(keys)]))}

    def __iter__(self):
        yield from self._metadata
        yield from map(self._row, self._order)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        # ``range`` normalises a negative index and raises ``IndexError``.
        i = range(len(self))[i] - len(self._metadata)
        return self._metadata[i] if i < 0 else self._row(self._order[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


def _view(col: array) -> np.ndarray:
    """A column as a numpy array, without a copy.  Only for use inside
    one call: while the view lives, the bus cannot append to ``col``."""
    return np.frombuffer(col, col.typecode)


def chrome_trace(cluster=None, bus=None, process_name: str = "repro-sim") -> dict:
    """Build a Chrome ``trace_event`` JSON object for one run.

    ``bus`` defaults to the cluster's; with neither, or on an empty run,
    the trace holds only metadata records.  ``traceEvents`` is a
    ``Sequence`` view fixed at the call: it holds the recording as it
    stood (not the cluster) and equals the list of row dicts it renders.
    """
    bus = getattr(cluster, "bus", None) if bus is None else bus
    c = Columns() if bus is None else bus.columns
    posts, delivers = c.arrows()
    n_spans, n_arrows, n_events = len(c.span_start), len(posts), len(c)

    # Every lane in the recording carries a span or an event: rank them.
    tid_of = {entity: i + 1 for i, entity in enumerate(sort_entities(c.entities))}
    lane_tid = np.array([tid_of[entity] for entity in c.entities], dtype=np.int32)
    # Row names are interned to first-appearance ids, ranked once known.
    names = {"busy": 0}
    shape_name = [names.setdefault(f"{cat}.{name}", len(names))
                  for cat, name, _ in c.shapes]
    ent = _view(c.entity)
    src = ent[_view(posts)]
    arrow_name = [names.setdefault(f"{kind} {c.entities[s]}->{c.entities[ent[d]]}",
                                   len(names))
                  for kind, s, d in zip(c.column(posts, "kind"), src.tolist(), delivers)]
    rank_of = {label: i for i, label in enumerate(sorted(names))}
    rank = np.array([rank_of[label] for label in names], dtype=np.int32)

    # The four sort columns, rows in build order: spans, arrow pairs, events.
    time = c.time
    arrow_ts = (_us(time[r]) for pair in zip(posts, delivers) for r in pair)
    ts = np.fromiter(chain(map(_us, c.span_start), arrow_ts, map(_us, time)),
                     float, n_spans + 2 * n_arrows + n_events)
    tid = np.concatenate((lane_tid[_view(c.span_entity)],
                          np.repeat(lane_tid[src], 2), lane_tid[ent]))
    name = np.concatenate((np.full(n_spans, rank[0], np.int32),
                           np.repeat(rank[arrow_name], 2),
                           rank[shape_name][_view(c.shape)]))
    ph = np.concatenate((np.zeros(n_spans, np.uint8),
                         np.tile(np.array([1, 2], np.uint8), n_arrows),
                         np.full(n_events, 3, np.uint8)))
    # Chrome sorts by ts; keep the file itself deterministic too: by
    # (ts, tid, ph, name), 'X' < 'b' < 'e' < 'i', ties in build order
    # (lexsort is stable and takes its primary key last).
    order = np.lexsort((name, ph, tid, ts))

    def meta(record: str, tid: int, args: dict) -> dict:
        return {"name": record, "ph": "M", "pid": 0, "tid": tid, "args": args}

    # Metadata rows carry no ``ts`` and lead the file.
    metadata = [meta("process_name", 0, {"name": process_name})]
    for entity, tid in tid_of.items():
        metadata.append(meta("thread_name", tid, {"name": entity}))
        metadata.append(meta("thread_sort_index", tid, {"sort_index": tid}))
    # Nothing recorded, nothing to view: an empty run's document stays
    # plain ``json.dumps`` material.
    rows = _TraceView(metadata, array("I", order.astype(np.uint32).tobytes()),
                      lane_tid.tolist(), c, n_spans, (posts, delivers)) \
        if len(order) else metadata
    return {
        "traceEvents": rows,
        "displayTimeUnit": "ns",
        "otherData": {"schema": SCHEMA_VERSION, "generator": "repro.obs"},
    }


def _write_json(path, doc: dict, indent: int) -> dict:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n")
    return doc


def write_chrome_trace(path, cluster=None, bus=None) -> dict:
    """Stream :func:`chrome_trace` output to ``path`` (one compact JSON
    row per line, never the whole text; ``.tmp`` + rename, so no partial
    file); returns the document."""
    doc = chrome_trace(cluster, bus=bus)
    encode = json.JSONEncoder(sort_keys=True).encode
    head = {k: v for k, v in doc.items() if k != "traceEvents"}
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_name(p.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            rows = iter(doc["traceEvents"])
            fh.write(encode(head)[:-1] + ', "traceEvents": [\n' + encode(next(rows)))
            fh.writelines(",\n" + encode(row) for row in rows)
            fh.write("\n]}\n")
        os.replace(tmp, p)
    finally:
        tmp.unlink(missing_ok=True)     # a no-op once renamed
    return doc


def render_timeline(bus, width: int = 72,
                    entities: Optional[list[str]] = None) -> str:
    """Per-rank text timeline: busy lanes + busy-time/utilisation columns.

    ::

        window 0.0us .. 431.8us
        host0 |####.....##......|  busy  61.2us  14.2%
              |     v        v  |
        dpu0  |...##.####.......|  busy 102.9us  23.8%

    ``#`` marks core-busy time, ``.`` idle; ``v`` marks message
    deliveries into the lane.  The window spans every span and arrow.
    Each lane reads only its own spans and arrivals, so the cost is
    linear in the trace, not lanes x spans.
    """
    if bus is None:
        return "(no bus attached)"
    c = bus.columns
    posts, delivers = c.arrows()
    time, lane_of, lanes = c.time, c.entity, c.entities
    arrow_times = [time[r] for r in chain(posts, delivers)]
    t0 = min(chain(c.span_start, arrow_times), default=0.0)
    t1 = max(chain(c.span_end, arrow_times), default=0.0)
    if t1 <= t0:
        return "(empty trace)"
    spans = {lanes[code]: lane for code, lane in c.span_lanes().items()}
    arrivals: dict[str, list[float]] = {}
    for r in delivers:
        arrivals.setdefault(lanes[lane_of[r]], []).append(time[r])
    if entities is None:
        entities = sort_entities([*spans, *arrivals,
                                  *(lanes[lane_of[r]] for r in posts)])
    scale = width / (t1 - t0)
    label_w = max((len(n) for n in entities), default=4) + 1
    lines = [f"window {t0 * 1e6:.1f}us .. {t1 * 1e6:.1f}us"]
    for name in entities:
        lane = ["."] * width
        starts, ends = spans.get(name, ((), ()))
        for start, end in zip(starts, ends):
            a = int((start - t0) * scale)
            b = max(a + 1, int((end - t0) * scale))
            for i in range(a, min(b, width)):
                lane[i] = "#"
        busy = sum(end - start for start, end in zip(starts, ends))
        util = 100.0 * busy / (t1 - t0)
        lines.append(
            f"{name:{label_w}s}|{''.join(lane)}|  busy {busy * 1e6:8.1f}us {util:5.1f}%"
        )
        if name in arrivals:
            marks = [" "] * width
            for delivered in arrivals[name]:
                marks[min(width - 1, int((delivered - t0) * scale))] = "v"
            lines.append(f"{'':{label_w}s}|{''.join(marks)}|")
    return "\n".join(lines)


def _spec_dict(cluster) -> dict:
    spec = getattr(cluster, "spec", None)
    if spec is None:
        return {}
    if is_dataclass(spec):
        return asdict(spec)
    return {k: v for k, v in vars(spec).items() if not k.startswith("_")}


def metrics_snapshot(cluster_or_metrics, extra: Optional[dict] = None) -> dict:
    """JSON-ready snapshot of counters + histogram summaries.

    Accepts a cluster (preferred: includes spec + sim time) or a bare
    :class:`~repro.hw.metrics.Metrics`.
    """
    metrics = getattr(cluster_or_metrics, "metrics", cluster_or_metrics)
    doc = {
        "schema": SCHEMA_VERSION,
        "counters": dict(metrics),
        "histograms": {
            key: hist.summary() for key, hist in metrics.hists()
        },
    }
    sim = getattr(cluster_or_metrics, "sim", None)
    if sim is not None:
        doc["sim_time"] = sim.now
    spec = _spec_dict(cluster_or_metrics)
    if spec:
        doc["spec"] = spec
    if extra:
        doc["extra"] = extra
    return doc


def write_metrics_snapshot(path, cluster_or_metrics,
                           extra: Optional[dict] = None) -> dict:
    """Write :func:`metrics_snapshot` output to ``path``; returns the dict."""
    return _write_json(path, metrics_snapshot(cluster_or_metrics, extra=extra), 2)
