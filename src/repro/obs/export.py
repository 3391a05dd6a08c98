"""Exporters: Chrome ``trace_event`` JSON, text timelines, metrics snapshots.

Three output formats, all deterministic for a fixed seed:

* :func:`chrome_trace` -- the Chrome/Perfetto ``trace_event`` JSON
  object format (https://ui.perfetto.dev loads the file as-is).  Tracer
  spans become ``"X"`` complete slices, fabric arrows become ``"b"/"e"``
  async pairs, and bus events become ``"i"`` instants, each parked on
  the track of its emitting entity.
* :func:`render_timeline` -- the per-rank text timeline: busy lanes
  plus per-entity busy-time and utilisation columns, lanes ordered
  hosts -> DPUs -> fabric.
* :func:`metrics_snapshot` -- a JSON-ready dict of every counter and
  histogram summary, written next to ``results/`` by ``runall`` and the
  benchmark harness so perf regressions diff as data, not prose.
"""

from __future__ import annotations

import json
import os
import re
from array import array
from collections.abc import Sequence
from dataclasses import asdict, is_dataclass
from operator import eq
from pathlib import Path
from typing import Optional

import numpy as np

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


class _TraceRows(Sequence):
    """Read-only ``traceEvents``: metadata, then the rows ``order`` names by
    build index (spans, arrow begin/end pairs, events), rendered on demand."""

    def __init__(self, metadata, order, tid_of, spans, arrows, events):
        self._metadata, self._order, self._tid_of = metadata, order, tid_of
        self._spans, self._arrows, self._events = spans, arrows, events

    def __len__(self) -> int:
        return len(self._metadata) + len(self._order)

    def _row(self, r: int) -> dict:
        if r < len(self._spans):
            s = self._spans[r]
            return {"name": "busy", "cat": "cpu", "ph": "X",
                    "ts": _us(s.start), "dur": _us(s.end - s.start),
                    "pid": 0, "tid": self._tid_of[s.entity]}
        i, end = divmod(r - len(self._spans), 2)
        if i < len(self._arrows):
            a = self._arrows[i]
            row = {"cat": "fabric", "id": i, "pid": 0,
                   "name": f"{a.kind} {a.src}->{a.dst}", "ph": "be"[end],
                   "ts": _us(a.delivered if end else a.posted),
                   "tid": self._tid_of[a.src]}
            if not end:
                row["args"] = {"size": a.size, "dst": a.dst}
            return row
        ev = self._events[r - len(self._spans) - 2 * len(self._arrows)]
        return {"name": f"{ev.cat}.{ev.name}", "cat": ev.cat, "ph": "i",
                "ts": _us(ev.time), "pid": 0, "tid": self._tid_of[ev.entity],
                "s": "t", "args": ev.argdict()}

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


def chrome_trace(cluster=None, bus=None, tracer=None,
                 process_name: str = "repro-sim") -> dict:
    """Build a Chrome ``trace_event`` JSON object for one run.

    Any of ``bus``/``tracer`` may be ``None`` (defaults come from the
    cluster's attached instances); an entirely empty run still yields a
    valid trace containing only metadata records.  ``traceEvents`` is a
    ``Sequence`` view fixed at the call: it holds what was recorded so
    far (not the cluster) and equals the list of row dicts it renders.
    """
    bus = getattr(cluster, "bus", None) if bus is None else bus
    tracer = getattr(cluster, "tracer", None) if tracer is None else tracer
    spans, arrows = ([], []) if tracer is None else (tracer.spans[:], tracer.arrows[:])
    events = [] if bus is None else bus.events[:]

    # One pass fills the sort columns; lanes and row names are interned
    # to first-appearance ids and ranked once all of them are known.
    lanes = {} if tracer is None else {e: i for i, e in enumerate(tracer.lanes)}
    names = {"busy": 0}
    ts = array("d", (_us(s.start) for s in spans))
    lane = array("i", (lanes[s.entity] for s in spans))
    name = array("i", bytes(4 * len(spans)))
    for a in arrows:
        src = lanes.setdefault(a.src, len(lanes))
        lanes.setdefault(a.dst, len(lanes))
        label = names.setdefault(f"{a.kind} {a.src}->{a.dst}", len(names))
        ts.extend((_us(a.posted), _us(a.delivered)))
        lane.extend((src, src))
        name.extend((label, label))
    for ev in events:
        ts.append(_us(ev.time))
        lane.append(lanes.setdefault(ev.entity, len(lanes)))
        name.append(names.setdefault(f"{ev.cat}.{ev.name}", len(names)))
    ph = bytes(len(spans)) + b"\1\2" * len(arrows) + b"\3" * len(events)

    tid_of = {entity: i + 1 for i, entity in enumerate(sort_entities(lanes))}
    tids = np.array([tid_of[entity] for entity in lanes], dtype=np.intp)
    rank_of = {label: i for i, label in enumerate(sorted(names))}
    ranks = np.array([rank_of[label] for label in names], dtype=np.intp)
    # Chrome sorts by ts; keep the file itself deterministic too: by
    # (ts, tid, ph, name), 'X' < 'b' < 'e' < 'i', ties in build order
    # (lexsort is stable and takes its primary key last).
    order = np.lexsort((ranks[np.asarray(name)], np.frombuffer(ph, np.uint8),
                        tids[np.asarray(lane)], ts))

    def meta(record: str, tid: int, args: dict) -> dict:
        return {"name": record, "ph": "M", "pid": 0, "tid": tid, "args": args}

    # Metadata rows carry no ``ts`` and lead the file.
    metadata = [meta("process_name", 0, {"name": process_name})]
    for entity, tid in tid_of.items():
        metadata.append(meta("thread_name", tid, {"name": entity}))
        metadata.append(meta("thread_sort_index", tid, {"sort_index": tid}))
    # Nothing recorded, nothing to view: an empty run's document stays
    # plain ``json.dumps`` material.
    rows = _TraceRows(metadata, array(order.dtype.char, order.tobytes()), tid_of,
                      spans, arrows, events) if len(order) else metadata
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


def write_chrome_trace(path, cluster=None, bus=None, tracer=None) -> dict:
    """Stream :func:`chrome_trace` output to ``path`` (one compact JSON
    row per line, never the whole text; ``.tmp`` + rename, so no partial
    file); returns the document."""
    doc = chrome_trace(cluster, bus=bus, tracer=tracer)
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


def render_timeline(tracer, width: int = 72,
                    entities: Optional[list[str]] = None) -> str:
    """Per-rank text timeline: busy lanes + busy-time/utilisation columns.

    ::

        window 0.0us .. 431.8us
        host0 |####.....##......|  busy  61.2us  14.2%
              |     v        v  |
        dpu0  |...##.####.......|  busy 102.9us  23.8%

    ``#`` marks core-busy time, ``.`` idle; ``v`` marks message
    deliveries into the lane.  Each lane reads only its own spans and
    arrivals, so the cost is linear in the trace, not lanes x spans.
    """
    if tracer is None:
        return "(no tracer attached)"
    t0, t1 = tracer.window()
    if t1 <= t0:
        return "(empty trace)"
    scale = width / (t1 - t0)
    names = entities if entities is not None else sort_entities(tracer.entities)
    label_w = max((len(n) for n in names), default=4) + 1
    arrivals: dict[str, list[float]] = {}
    for arrow in tracer.arrows:
        arrivals.setdefault(arrow.dst, []).append(arrow.delivered)
    lines = [f"window {t0 * 1e6:.1f}us .. {t1 * 1e6:.1f}us"]
    for name in names:
        lane = ["."] * width
        for s in tracer.lanes.get(name, ()):
            a = int((s.start - t0) * scale)
            b = max(a + 1, int((s.end - t0) * scale))
            for i in range(a, min(b, width)):
                lane[i] = "#"
        busy = tracer.busy_time(name)
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
