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
import re
from dataclasses import asdict, is_dataclass
from operator import itemgetter
from pathlib import Path
from typing import Optional

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


def _write_json(path, doc: dict, indent: int) -> dict:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n")
    return doc


def write_chrome_trace(path, cluster=None, bus=None, tracer=None) -> dict:
    """Write :func:`chrome_trace` output to ``path``; returns the dict."""
    return _write_json(path, chrome_trace(cluster, bus=bus, tracer=tracer), 1)


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
