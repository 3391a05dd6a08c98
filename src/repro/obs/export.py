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
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import asdict, is_dataclass
from itertools import chain, repeat
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
        self._labels = [f"{sh.cat}.{sh.name}" for sh in cols.shapes]

    def __len__(self) -> int:
        return len(self._metadata) + len(self._order)

    def _row(self, r: int, pos=None) -> dict:
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
        sh = c.shapes[code]
        return {"name": self._labels[code], "cat": sh.cat, "ph": "i",
                "ts": _us(c.time[e]), "pid": 0, "tid": tid_of[c.entity[e]],
                "s": "t", "args": dict(zip(sh.keys, sh.values(
                    bisect_left(sh.rows, e) if pos is None else pos[e])))}

    def __iter__(self):
        yield from self._metadata
        yield from map(self._row, self._order, repeat(self._cols.positions()))

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


#: Rows per slice while the sort keys are filled: the temporaries of a
#: slice (gathered indices, times) are this long, whatever the trace's.
#: Even, so a slice of the arrow rows holds whole begin/end pairs.
_CHUNK = 1 << 12


def _ticks(t: np.ndarray) -> np.ndarray:
    """``_us(t) * 1e4`` of each of ``t`` as a whole number, exactly: the
    count of 0.1 ns ``_us`` rounds to.  Only a product within an ulp of a
    rounding tie can round the other way; ``_us`` itself rounds those."""
    tenths = t * 1e6 * 1e4
    near = np.abs(tenths - np.floor(tenths) - 0.5) <= np.spacing(tenths)
    tenths = np.rint(tenths)
    if near.any():
        tenths[near] = [round(_us(v) * 1e4) for v in t[near].tolist()]
    return tenths


def _order(c: Columns, posts: array, delivers: array, lane_tid: list) -> array:
    """Build indexes (spans, arrow begin/end pairs, events) in file order:
    by ``(ts, tid, ph, name)``, 'X' < 'b' < 'e' < 'i', ties in build order.
    Two keys, filled slice by slice: ``ts`` as its count of 0.1 ns (exact:
    see :func:`_ticks`; 32 bits when the run's counts fit them), and
    ``(tid, ph, name rank)`` packed into one integer.  One stable
    ``lexsort`` (primary key last), written straight into the kept array."""
    # Row names are interned to first-appearance ids, ranked once known.
    names = {"busy": 0}
    shape_name = [names.setdefault(f"{sh.cat}.{sh.name}", len(names)) for sh in c.shapes]
    labels = (f"{kind} {c.entities[c.entity[s]]}->{c.entities[c.entity[d]]}"
              for kind, s, d in zip(c.column(posts, "kind"), posts, delivers))
    arrow_name = np.fromiter((names.setdefault(label, len(names)) for label in labels),
                             np.intp, len(posts))
    rank_of = {label: i for i, label in enumerate(sorted(names))}
    rank = [rank_of[label] for label in names]
    n_spans, n_pairs = len(c.span_start), 2 * len(posts)
    ph_at = len(rank).bit_length()
    tid_at = ph_at + 2
    kind = np.uint32 if (len(lane_tid) + 1) << tid_at <= 1 << 32 else np.uint64
    lane = np.array(lane_tid, kind) << kind(tid_at)
    ranks = np.array(rank, kind)
    event_key, arrow_key = ranks[shape_name] | kind(3 << ph_at), ranks[arrow_name]
    entity, shape, times = _view(c.entity), _view(c.shape), _view(c.time)
    starts, post_rows, deliver_rows = _view(c.span_start), _view(posts), _view(delivers)
    spread = [_us(float(f(v))) for v in (starts, times) if len(v) for f in (np.min, np.max)]
    whole = 0 <= min(spread) and max(spread) * 1e4 < (1 << 32) - 1

    def interleave(begins: np.ndarray, ends: np.ndarray) -> np.ndarray:
        return np.column_stack((begins, ends)).ravel()

    def span_part(lo: int, hi: int) -> tuple:
        return lane[_view(c.span_entity)[lo:hi]] | kind(rank[0]), starts[lo:hi]

    def arrow_part(lo: int, hi: int) -> tuple:
        a, b = lo // 2, hi // 2
        key = lane[entity[post_rows[a:b]]] | arrow_key[a:b]
        return (interleave(key | kind(1 << ph_at), key | kind(2 << ph_at)),
                times[interleave(post_rows[a:b], deliver_rows[a:b])])

    def event_part(lo: int, hi: int) -> tuple:
        return lane[entity[lo:hi]] | event_key[shape[lo:hi]], times[lo:hi]

    n = n_spans + n_pairs + len(c)
    tie, ts = np.empty(n, kind), np.empty(n, np.uint32 if whole else np.int64)
    at = 0
    for size, part in ((n_spans, span_part), (n_pairs, arrow_part), (len(c), event_part)):
        for lo in range(0, size, _CHUNK):
            hi = min(size, lo + _CHUNK)
            tie[at + lo:at + hi], t = part(lo, hi)
            ts[at + lo:at + hi] = _ticks(t)
        at += size
    del arrow_key, arrow_name

    order = np.lexsort((tie, ts))
    del tie, ts
    kept = array("I", [0]) * n
    np.frombuffer(kept, np.uint32)[:] = order
    return kept


def chrome_trace(cluster=None, bus=None, process_name: str = "repro-sim") -> dict:
    """Build a Chrome ``trace_event`` JSON object for one run.

    ``bus`` defaults to the cluster's; with neither, or on an empty run,
    the trace holds only metadata records.  ``traceEvents`` is a
    ``Sequence`` view fixed at the call: it holds the recording as it
    stood (not the cluster) and equals the list of row dicts it renders.
    """
    bus = getattr(cluster, "bus", None) if bus is None else bus
    c = Columns() if bus is None else bus.columns
    c.pack()
    posts, delivers = c.arrows()
    # Every lane in the recording carries a span or an event: rank them.
    tid_of = {entity: i + 1 for i, entity in enumerate(sort_entities(c.entities))}
    lane_tid = [tid_of[entity] for entity in c.entities]
    # Nothing recorded, nothing to view: an empty run's document stays
    # plain ``json.dumps`` material.
    order = _order(c, posts, delivers, lane_tid) if len(c) or len(c.span_start) else None

    def meta(record: str, tid: int, args: dict) -> dict:
        return {"name": record, "ph": "M", "pid": 0, "tid": tid, "args": args}

    # Metadata rows carry no ``ts`` and lead the file.
    metadata = [meta("process_name", 0, {"name": process_name})]
    for entity, tid in tid_of.items():
        metadata.append(meta("thread_name", tid, {"name": entity}))
        metadata.append(meta("thread_sort_index", tid, {"sort_index": tid}))
    rows = metadata if order is None else _TraceView(
        metadata, order, lane_tid, c, len(c.span_start), (posts, delivers))
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
