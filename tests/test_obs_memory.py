"""Byte budget of the observation record: ratchets that can only shrink.

``tracemalloc`` counts, so the numbers repeat exactly.  The fixture is
the fig15 quick ``simple`` cell (25 744 bus events, 13 200 busy spans,
40 939 trace rows); docs/OBSERVABILITY.md, 'Memory', explains where the
bytes go.
"""

import inspect
import json
import tracemalloc

import pytest

from tests.harness.test_chrome_trace_differential import _fig15
from repro.obs import EventBus

#: Live bytes allocated from ``obs/events.py`` per bus event after the run,
#: spans aside: 8 B of time, 2 + 2 of shape and lane code, 4 of value
#: offset, 4 in the kind's row index and one list slot per argument value.
#: Measured 45.8 (202 with an object per event, 370 before that).
EVENT_BYTES_RATCHET = 52
#: Live bytes per busy span, allocated by ``EventBus.span``: a lane code
#: and two times.  Measured 18.7 (a ``Span`` tuple, its end float and two
#: list slots cost ~166 B before spans moved onto the bus).
SPAN_BYTES_RATCHET = 21
#: Bytes ``chrome_trace()`` keeps alive per row: 4 of ordering, plus 8 per
#: arrow row pair.  Measured 4.9 (17 with 8 B of ordering, 437 as dicts).
ROW_BYTES_RATCHET = 6
#: ``tracemalloc`` peak of ``write_chrome_trace`` above that of building the
#: document.  Measured 64 B (PR 22: 83 MiB, the whole JSON text in pieces).
WRITER_EXTRA_PEAK_RATCHET = 2 << 20


@pytest.fixture(scope="module")
def traced():
    """The cell run under ``tracemalloc``: ``(obs, event bytes, span
    bytes)``; tracing stays on for the module."""
    tracemalloc.start()
    try:
        obs = _fig15("simple")
        stats = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*/repro/obs/events.py")]
        ).statistics("lineno")
        body, first = inspect.getsourcelines(EventBus.span)
        in_span = range(first, first + len(body))
        span_bytes = sum(s.size for s in stats if s.traceback[0].lineno in in_span)
        yield obs, sum(s.size for s in stats) - span_bytes, span_bytes
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


def test_writer_streams(traced, tmp_path):
    obs, _, _ = traced
    _, build_peak, _ = _peak_of(obs.chrome_trace)
    path = tmp_path / "cell.trace.json"
    doc, write_peak, _ = _peak_of(lambda: obs.write_chrome_trace(path))
    assert write_peak - build_peak <= WRITER_EXTRA_PEAK_RATCHET
    with open(path) as fh:
        assert len(json.load(fh)["traceEvents"]) == len(doc["traceEvents"])
