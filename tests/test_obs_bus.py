"""Unit tests for the observability core: bus, filters, exporters."""

import copy
import json

import pytest

from repro.hw import Cluster, ClusterSpec
from repro.obs import (
    EventBus,
    ObsEvent,
    chrome_trace,
    observe_cluster,
    render_timeline,
)
from repro.obs.events import CATEGORIES
from repro.obs.export import sort_entities


class TestObsEvent:
    def test_args_are_sorted_and_hashable(self):
        ev = ObsEvent(time=1.0, seq=0, cat="req", name="post", entity="host0",
                      args=(("rid", 3), ("size", 64)))
        assert ev.arg("rid") == 3
        assert ev.arg("nope", "dflt") == "dflt"
        assert ev.argdict() == {"rid": 3, "size": 64}
        hash(ev)  # frozen + tuple args -> usable in sets

    def test_slotted_record_equal_and_hashed_by_fields(self):
        ev = ObsEvent(time=1.0, seq=4, cat="req", name="post", entity="host0",
                      args=(("rid", 3),))
        with pytest.raises(AttributeError):
            ev.note = "no attribute addition"
        assert not hasattr(ev, "__dict__")
        twin = copy.copy(ev)
        assert twin is not ev and twin == ev and hash(twin) == hash(ev)
        assert len({ev, twin, ObsEvent(1.0, 4, "req", "post", "host0",
                                       (("rid", 3),))}) == 1
        assert ev != ObsEvent(1.0, 5, "req", "post", "host0", (("rid", 3),))
        assert ev != (1.0, 4, "req", "post", "host0", (("rid", 3),))
        assert repr(ev).startswith("ObsEvent(time=1.0, seq=4, cat='req'")


class TestEventBus:
    def test_emit_without_sim_uses_time_zero(self):
        bus = EventBus()
        assert bus.emit("req", "post", "host0", rid=1) is None
        (ev,) = bus.events
        assert ev.time == 0.0 and ev.seq == 0
        assert len(bus) == 1 and list(bus) == [ev]

    def test_category_filter_drops_at_emit_site(self):
        bus = EventBus(categories=("req",))
        bus.emit("ctrl", "post", "node0", cid=0)
        bus.emit("req", "post", "host0", rid=1)
        assert bus.count() == 1 and bus.events[0].cat == "req"
        # ... and its lane was never interned.
        assert bus.columns.entities == ["host0"]

    def test_event_args_may_shadow_positional_names(self):
        bus = EventBus()
        bus.emit("proc", "start", "sim", name="worker", cat="x", entity="y")
        (ev,) = bus.events
        assert ev.name == "start" and ev.arg("name") == "worker"

    def test_select_by_args_and_missing_key(self):
        bus = EventBus()
        bus.emit("cache", "hit", "host0", cache="a")
        bus.emit("cache", "hit", "host1", cache="b")
        assert len(bus.select(cat="cache", cache="a")) == 1
        # an event lacking the filter key never matches (even vs None)
        assert bus.select(cat="cache", missing_key=None) == []

    def test_clear_starts_a_fresh_recording(self):
        bus = EventBus()
        for i in range(5):
            bus.emit("wqe", "post", "node0", size=i)
        bus.clear()
        assert len(bus) == 0
        # ... and the per-kind index went with the stream.
        assert bus.select(cat="wqe", name="post") == []
        assert bus.select(cat="wqe") == [] and bus.count(cat="wqe") == 0
        bus.emit("wqe", "post", "node0", size=9)
        (ev,) = bus.select(cat="wqe", name="post")
        assert ev.seq == 5 and ev.arg("size") == 9 and bus.events == [ev]

    def test_select_by_kind_is_the_stream_filtered(self):
        """Whatever the filter combination, ``select`` returns what a scan
        of the stream would, in emission order -- also across the kinds
        of one category, whose index buckets must be merged by ``seq``."""
        bus = EventBus()
        names = ["post", "deliver", "complete", "post", "drop", "deliver"]
        for i in range(60):
            cat = ("xfer", "ctrl")[i % 2]
            bus.emit(cat, names[i % 6], f"node{i % 3}", xid=i % 5)
        stream = bus.events

        def scan(cat=None, name=None, entity=None, **args):
            return [ev for ev in stream
                    if (cat is None or ev.cat == cat)
                    and (name is None or ev.name == name)
                    and (entity is None or ev.entity == entity)
                    and all(ev.arg(k) == v for k, v in args.items())]

        for q in ({}, {"cat": "xfer"}, {"cat": "ctrl"}, {"name": "post"},
                  {"name": "deliver", "entity": "node1"},
                  {"cat": "xfer", "name": "post"}, {"cat": "ctrl", "xid": 3},
                  {"cat": "xfer", "name": "complete", "entity": "node2", "xid": 2},
                  {"entity": "node0"}, {"xid": 4}, {"cat": "nope"},
                  {"cat": "xfer", "name": "drop"}):
            assert bus.select(**q) == scan(**q), q
            assert bus.count(**q) == len(scan(**q)), q
        in_cat = bus.select(cat="xfer")
        assert len({ev.name for ev in in_cat}) > 1
        assert [ev.seq for ev in in_cat] == sorted(ev.seq for ev in in_cat)
        # The result is the caller's list: mutating it leaves the bus alone.
        bus.select(cat="xfer", name="post").clear()
        assert bus.count(cat="xfer", name="post") > 0

    def test_lane_codes_widen_past_65535(self):
        """Lane codes start as ``'H'``; a fluid run names a lane per flow."""
        bus = EventBus()
        for i in range(70_000):
            bus.emit("flow", "begin", f"flow{i}", fid=i)
        bus.span("host0", 0.0, 1.0)
        assert bus.columns.entity.typecode == bus.columns.span_entity.typecode == "I"
        (ev,) = bus.select(entity="flow69999")
        assert ev.arg("fid") == 69999 and ev.seq == 69999
        assert bus.spans() == [("host0", 0.0, 1.0)]

    def test_unknown_category_is_accepted(self):
        # forward compatibility: the vocabulary is advisory
        assert "sim" in CATEGORIES
        bus = EventBus()
        bus.emit("experimental", "x", "sim")
        assert bus.count(cat="experimental") == 1


class TestExporterEdges:
    def test_sort_entities_orders_kinds_then_index(self):
        assert sort_entities(["node1", "dpu0", "host10", "host2",
                              "fabric0", "sim"]) == \
            ["host2", "host10", "dpu0", "node1", "fabric0", "sim"]

    def test_chrome_trace_of_empty_run_is_valid(self):
        doc = chrome_trace(bus=EventBus())
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]
        json.dumps(doc)

    def test_timeline_fallbacks(self):
        assert render_timeline(None) == "(no bus attached)"
        assert render_timeline(EventBus()) == "(empty trace)"

    def test_observe_cluster_attaches_everything(self):
        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
        obs = observe_cluster(cl)
        assert cl.bus is obs.bus and cl.sim.bus is obs.bus
        assert cl.fabric.bus is obs.bus
        assert all(n.hca.bus is obs.bus for n in cl.nodes)
        obs.check()  # empty stream has no violations
