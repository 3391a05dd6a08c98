"""Byte budget of the observation record: ratchets that can only shrink.

``tracemalloc`` counts, so the numbers repeat exactly.  The fixture is
the fig15 quick ``simple`` cell (25 744 bus events, 13 200 busy spans,
40 939 trace rows); docs/OBSERVABILITY.md, 'Memory', explains where the
bytes go.
"""

import gc
import inspect
import json
import tracemalloc

import pytest

from tests.harness.test_chrome_trace_differential import _fig15
from repro.experiments.fig15_group_vs_simple import _scatter_dest
from repro.obs import EventBus

#: Live bytes per bus event that observing keeps after the run, spans
#: aside: the observed cell's retained bytes less its bare twin's, so the
#: argument objects an emit site boxes count wherever they were made.
#: 8 B of time, 2 + 2 of shape and lane code, 4 in the shape's row index,
#: ~4 of typed argument columns, 6.6 of the key table's use log that
#: ``observe_cluster`` arms.  Measured 29.0 (62.8 with one boxed object
#: per argument value in one list, of which ``obs/events.py`` held 45.8).
EVENT_BYTES_RATCHET = 32
#: Live bytes per busy span, allocated by ``EventBus.span``: a lane code
#: and two times.  Measured 18.7 (a ``Span`` tuple, its end float and two
#: list slots cost ~166 B before spans moved onto the bus).
SPAN_BYTES_RATCHET = 21
#: Bytes ``chrome_trace()`` keeps alive per row: 4 of ordering, plus 8 per
#: arrow row pair.  Measured 4.6 (17 with 8 B of ordering, 437 as dicts).
ROW_BYTES_RATCHET = 6
#: ``tracemalloc`` peak of ``chrome_trace()`` above the filled bus, per
#: row: two 4-byte sort keys and ``lexsort``'s 8-byte order.  Measured
#: 16.5 (30.5 with four full-length keys and the order's copies).
CHROME_BUILD_PEAK_RATCHET = 18
#: ``tracemalloc`` peak of ``write_chrome_trace`` above that of building the
#: document.  Measured 64 B (PR 22: 83 MiB, the whole JSON text in pieces).
WRITER_EXTRA_PEAK_RATCHET = 2 << 20


def _retained(run) -> tuple:
    """``(what run() returned, traced bytes it left alive)``."""
    gc.collect()
    start = tracemalloc.get_traced_memory()[0]
    held = run()
    gc.collect()
    return held, tracemalloc.get_traced_memory()[0] - start


def _bare_cell():
    holder = {}
    _scatter_dest("quick", 4096, "simple", instrument=lambda cl: holder.setdefault("cl", cl))
    return holder


@pytest.fixture(scope="module")
def traced():
    """The cell run under ``tracemalloc``: ``(obs, event bytes, span
    bytes)``; tracing stays on for the module."""
    tracemalloc.start()
    try:
        _bare_cell()                    # warm the caches both runs share
        bare, bare_bytes = _retained(_bare_cell)
        del bare
        obs, obs_bytes = _retained(lambda: _fig15("simple"))
        stats = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*/repro/obs/events.py")]
        ).statistics("lineno")
        body, first = inspect.getsourcelines(EventBus.span)
        in_span = range(first, first + len(body))
        span_bytes = sum(s.size for s in stats if s.traceback[0].lineno in in_span)
        yield obs, obs_bytes - bare_bytes - span_bytes, span_bytes
    finally:
        tracemalloc.stop()


def _peak_of(fn):
    """``(result, peak - start, end - start)`` traced bytes around ``fn()``."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = fn()
    now, peak = tracemalloc.get_traced_memory()
    return result, peak - start, now - start


def test_bytes_per_bus_event(traced):
    obs, event_bytes, _ = traced
    assert len(obs.bus) == 25744
    assert event_bytes / len(obs.bus) <= EVENT_BYTES_RATCHET


def test_bytes_per_span(traced):
    obs, _, span_bytes = traced
    n = len(obs.bus.columns.span_start)
    assert n == 13200
    assert span_bytes / n <= SPAN_BYTES_RATCHET


def test_bytes_retained_per_trace_row(traced):
    obs, _, _ = traced
    doc, _, kept = _peak_of(obs.chrome_trace)
    assert len(doc["traceEvents"]) == 40939
    assert kept / len(doc["traceEvents"]) <= ROW_BYTES_RATCHET


def test_chrome_build_peak_per_row(traced):
    obs, _, _ = traced
    doc, peak, _ = _peak_of(obs.chrome_trace)
    assert peak / len(doc["traceEvents"]) <= CHROME_BUILD_PEAK_RATCHET


def test_writer_streams(traced, tmp_path):
    obs, _, _ = traced
    _, build_peak, _ = _peak_of(obs.chrome_trace)
    path = tmp_path / "cell.trace.json"
    doc, write_peak, _ = _peak_of(lambda: obs.write_chrome_trace(path))
    assert write_peak - build_peak <= WRITER_EXTRA_PEAK_RATCHET
    with open(path) as fh:
        assert len(json.load(fh)["traceEvents"]) == len(doc["traceEvents"])
