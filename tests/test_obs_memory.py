"""Byte budget of the observation record: ratchets that can only shrink.

``tracemalloc`` counts, so the numbers repeat exactly.  The fixture is
the fig15 quick ``simple`` cell (25 744 bus events, 40 939 trace rows);
docs/OBSERVABILITY.md, 'Memory', explains where the bytes go.
"""

import json
import tracemalloc

import pytest

from tests.harness.test_chrome_trace_differential import _fig15

#: Live bytes allocated from ``obs/events.py`` per bus event after the run:
#: event + ``vals`` tuple + boxed ``seq`` + its share of a per-instant
#: ``time`` float and of the two list slots.  Measured 202 (PR 22: 370).
EVENT_BYTES_RATCHET = 230
#: Bytes ``chrome_trace()`` keeps alive per row: 8 of ordering and one
#: pointer in the snapshot lists.  Measured 17 (PR 22: 437).
ROW_BYTES_RATCHET = 40
#: ``tracemalloc`` peak of ``write_chrome_trace`` above that of building the
#: document.  Measured 64 B (PR 22: 83 MiB, the whole JSON text in pieces).
WRITER_EXTRA_PEAK_RATCHET = 2 << 20


@pytest.fixture(scope="module")
def traced():
    """The cell run under ``tracemalloc``; tracing stays on for the module."""
    tracemalloc.start()
    try:
        obs = _fig15("simple")
        stats = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*/repro/obs/events.py")]
        ).statistics("filename")
        yield obs, sum(s.size for s in stats)
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
    obs, event_bytes = traced
    assert len(obs.bus) == 25744
    assert event_bytes / len(obs.bus) <= EVENT_BYTES_RATCHET


def test_bytes_retained_per_trace_row(traced):
    obs, _ = traced
    doc, _, kept = _peak_of(obs.chrome_trace)
    assert len(doc["traceEvents"]) == 40939
    assert kept / len(doc["traceEvents"]) <= ROW_BYTES_RATCHET


def test_writer_streams(traced, tmp_path):
    obs, _ = traced
    _, build_peak, _ = _peak_of(obs.chrome_trace)
    path = tmp_path / "cell.trace.json"
    doc, write_peak, _ = _peak_of(lambda: obs.write_chrome_trace(path))
    assert write_peak - build_peak <= WRITER_EXTRA_PEAK_RATCHET
    with open(path) as fh:
        assert len(json.load(fh)["traceEvents"]) == len(doc["traceEvents"])
