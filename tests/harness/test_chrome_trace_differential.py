"""The column-view exporter against its verbatim predecessor.

``repro.obs.export.chrome_trace`` sorts four columns with one stable
``numpy.lexsort`` and renders a row only when asked;
``tests/harness/chrome_trace_reference`` is the exporter as it stood
before: one dict per row, ordered by Python's stable sort.  On real,
faulted, filtered, cleared and synthetic streams the two must produce
the *same rows in the same order* -- the tie order of ``lexsort``
against the Python sort is the one place this can go wrong, so the
property test draws its times, lanes and kinds from very small sets.
The oracle reads spans and arrows in its old recorder's shape, rebuilt
from the bus (``reference.chrome_trace_of``).
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import test_faults_flows as flows
from tests.harness import chrome_trace_reference as reference
from repro.experiments.fig15_group_vs_simple import _scatter_dest
from repro.hw import (
    Cluster,
    ClusterSpec,
    FaultPlan,
    FaultSpec,
)
from repro.obs import EventBus, chrome_trace, observe_cluster


def _same(cluster=None, bus=None) -> dict:
    """The production document, after asserting it renders the oracle's."""
    new = chrome_trace(cluster, bus=bus)
    old = reference.chrome_trace_of(cluster, bus=bus)
    assert set(new) == set(old) == {"traceEvents", "displayTimeUnit", "otherData"}
    rows = new["traceEvents"]
    assert list(rows) == old["traceEvents"]     # row for row, via __iter__
    assert rows == old["traceEvents"] and len(rows) == len(old["traceEvents"])
    assert new["displayTimeUnit"] == old["displayTimeUnit"]
    assert new["otherData"] == old["otherData"]
    # Key order inside a row is part of "verbatim" too.
    assert [list(r) for r in rows] == [list(r) for r in old["traceEvents"]]
    return new


def _fig15(variant: str, categories=None):
    holder = {}
    _scatter_dest("quick", 4096, variant,
                  instrument=lambda cl: holder.setdefault(
                      "obs", observe_cluster(cl, categories=categories)))
    return holder["obs"]


def _replayed(bus, events=True, spans=True) -> EventBus:
    """A fresh bus holding ``bus``'s events and/or spans."""
    clock = SimpleNamespace(now=0.0)
    out = EventBus(sim=clock)
    if events:
        for ev in bus:
            clock.now = ev.time
            out.emit(ev.cat, ev.name, ev.entity, **ev.argdict())
    if spans:
        for span in bus.spans():
            out.span(*span)
    return out


class TestRealRuns:
    @pytest.mark.parametrize("variant", ["simple", "group"])
    def test_fig15_quick_cells(self, variant):
        obs = _fig15(variant)
        doc = _same(obs.cluster, obs.bus)
        assert len(doc["traceEvents"]) > 10_000

    def test_events_only_and_spans_only(self):
        obs = _fig15("group")
        events = _replayed(obs.bus, spans=False)
        assert len(events) == len(obs.bus) and not events.spans()
        doc = _same(bus=events)
        assert {r["ph"] for r in doc["traceEvents"]} == {"M", "b", "e", "i"}
        doc = _same(bus=_replayed(obs.bus, events=False))
        assert {r["ph"] for r in doc["traceEvents"]} == {"M", "X"}

    def test_category_filtered_bus(self):
        obs = _fig15("group", categories=("wqe", "group", "ctrl"))
        doc = _same(obs.cluster, obs.bus)
        cats = {r["cat"] for r in doc["traceEvents"] if r["ph"] == "i"}
        assert cats == {"wqe", "group", "ctrl"}
        # No xfer rows, no arrows; spans are recorded whatever the filter.
        assert {r["ph"] for r in doc["traceEvents"]} == {"M", "X", "i"}

    def test_faulted_fluid_run(self):
        """flow.fault / flow.retry rows; str and int args (float and
        ``None`` values only occur in the synthetic streams below)."""
        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1, seed=11,
                                 nodes_per_switch=2, fluid_threshold=4096))
        obs = observe_cluster(cl)
        cl.install_faults(FaultPlan(FaultSpec(flow_drop_prob=0.5), seed=11))
        assert flows._stream(cl, n=8) == ["ok"] * 8
        doc = _same(cl, obs.bus)
        instants = [r for r in doc["traceEvents"] if r["ph"] == "i"]
        assert {"flow.fault", "flow.retry"} <= {r["name"] for r in instants}
        kinds = {type(v) for r in instants for v in r["args"].values()}
        assert {str, int} <= kinds

    def test_empty_run(self):
        doc = _same(bus=EventBus())
        assert [r["ph"] for r in doc["traceEvents"]] == ["M"]
        _same()

    def test_bus_cleared_midway(self):
        """After ``clear()`` positions in the stream and ``seq`` disagree."""
        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1, seed=3,
                                 nodes_per_switch=2, fluid_threshold=4096))
        obs = observe_cluster(cl)
        cl.install_faults(FaultPlan(FaultSpec(), seed=3))
        flows._stream(cl, n=3)
        obs.bus.clear()
        flows._stream(cl, n=3)
        assert obs.bus.events[0].seq > 0
        _same(cl, obs.bus)


def test_clear_keeps_seq_monotone():
    """``EventBus._kind`` merges per-kind buckets by ``seq``: it may never
    restart, or a cat-only ``select`` after a ``clear()`` would reorder."""
    bus = EventBus()
    for i in range(3):
        bus.emit("xfer", "post", "node0", xid=i)
    bus.clear()
    for name in ("deliver", "post", "deliver"):
        bus.emit("xfer", name, "node0", xid=9)
    later = bus.events
    assert [ev.seq for ev in later] == [3, 4, 5]
    assert bus.select(cat="xfer") == later


class TestTheView:
    @pytest.fixture(scope="class")
    def pair(self):
        obs = _fig15("group")
        return (chrome_trace(obs.cluster), reference.chrome_trace_of(obs.cluster),
                obs)

    def test_indexing_matches_the_list(self, pair):
        rows, old = pair[0]["traceEvents"], pair[1]["traceEvents"]
        n = len(old)
        for i in (0, 1, 200, n // 2, n - 1, -1, -n):
            assert rows[i] == old[i]
        assert rows[150:160] == old[150:160] and rows[-3:] == old[-3:]
        assert rows[::4001] == old[::4001]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                rows[bad]
        assert rows.count(old[-1]) == 1 and rows.index(old[300]) == 300

    def test_equality_is_by_content(self, pair):
        rows, old = pair[0]["traceEvents"], pair[1]["traceEvents"]
        assert rows == old and old == rows and not rows != old
        assert rows != old[:-1] and rows != old[:-1] + [{}]
        assert rows != 7 and rows != None  # noqa: E711 -- exercises __eq__
        assert pair[0] == pair[1]          # whole documents, as dicts

    def test_fixed_at_the_call_and_independent_of_the_cluster(self, pair):
        new, old, obs = pair
        rows = new["traceEvents"]
        n = len(rows)
        obs.bus.emit("mem", "free", "host0", addr=1)
        obs.bus.span("host0", 1.0, 2.0)
        assert len(rows) == n and list(rows) == old["traceEvents"]
        obs.bus.clear()
        assert list(rows) == old["traceEvents"]


# -- synthetic streams with many ties ----------------------------------------
_TIMES = st.sampled_from([0.0, 1e-6, 1.00004e-6, 1.00005e-6, 2e-6, 2.5e-6])
_LANES = st.sampled_from(["host0", "host1", "host10", "dpu0", "node1", "sim"])
_SPANS = st.lists(st.tuples(_LANES, _TIMES, st.sampled_from([1e-9, 1e-6])),
                  max_size=12)
_ARROWS = st.lists(st.tuples(_LANES, _LANES, st.integers(0, 2),
                             st.sampled_from(["rdma", "ctrl"]), _TIMES, _TIMES),
                   max_size=12)
_EVENTS = st.lists(
    st.tuples(_TIMES, st.sampled_from(["xfer", "ctrl", "Xfer"]),
              st.sampled_from(["post", "deliver", "busy"]), _LANES,
              st.dictionaries(st.sampled_from(["xid", "kind", "size"]),
                              st.one_of(st.none(), st.integers(0, 3),
                                        st.sampled_from(["a", "b"]),
                                        st.floats(0, 1)), max_size=3)),
    max_size=25)


@settings(deadline=None)
@given(spans=_SPANS, arrows=_ARROWS, events=_EVENTS)
def test_synthetic_streams_with_equal_timestamps(spans, arrows, events):
    """Spans, arrows (an ``xfer.post`` / ``xfer.deliver`` pair each) and
    events; the drawn ``xfer`` events pair up into arrows of their own."""
    clock = SimpleNamespace(now=0.0)
    bus = EventBus(sim=clock)
    for lane, start, dur in spans:
        bus.span(lane, start, start + dur)
    for xid, (src, dst, size, kind, posted, flight) in enumerate(arrows, 100):
        clock.now = posted
        bus.emit("xfer", "post", src, xid=xid, kind=kind, size=size)
        clock.now = posted + flight
        bus.emit("xfer", "deliver", dst, xid=xid)
    for time_, cat, name, entity, args in events:
        clock.now = time_
        bus.emit(cat, name, entity, **args)
    _same(bus=bus)
