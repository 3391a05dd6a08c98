"""The typed-column bus against its flat-list predecessor.

``repro.obs.events`` stores each argument key of each emission shape as a
typed column (narrowest int array, float array, string or bool codes, a
plain list for anything else) and packs staged values every
``PACK_ROWS`` rows and before any read; ``tests/harness/columns_reference``
is the bus as it stood before, one boxed value per argument in one list.
Both are driven with the same ``emit`` / ``span`` / ``clear`` calls, with
queries at random points (a read packs mid-stream) and ``PACK_ROWS``
drawn small, and must answer alike: every row's values equal *and of the
same type* (NaN by ``repr``), the same ``rows`` / ``column`` / ``count`` /
``select``, subscribers seeing the same events, and the same
``json.dumps`` of every Chrome-trace row (the production exporter on the
new bus, the reference exporter on the old).
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.harness import chrome_trace_reference
from tests.harness import columns_reference as reference
from repro.obs import EventBus, chrome_trace
from repro.obs import events as events_module
from repro.obs.export import _ticks, _us

_KINDS = [("xfer", "post"), ("xfer", "deliver"), ("req", "post"), ("group", "call")]
_KEYS = ["xid", "kind", "size", "cached"]
_LANES = ["host0", "host1", "dpu0", "node1", "fabric"]

_INTS = st.one_of(
    st.integers(-130, 130), st.integers(-(1 << 40), 1 << 40),
    st.sampled_from([(1 << 15) - 1, -(1 << 15), 1 << 31, -(1 << 31) - 1,
                     (1 << 63) - 1, -(1 << 63), 1 << 63, -(1 << 63) - 1,
                     1 << 70, -(1 << 70)]))
# ``float(repr(x))``: a fresh object per value, as an emit site makes, so
# no two rows share one NaN (the old list would match it by identity).
_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, float("inf"),
                                                  -float("inf"), float("nan")])
                    ).map(lambda x: float(repr(x)))
_FAMILIES = {
    "bool": st.booleans(),
    "int": _INTS,
    "float": _FLOATS,
    "str": st.text(alphabet="abc", max_size=3),
    "none": st.none(),
    "tuple": st.tuples(st.integers(0, 3)),
}
_ANY = st.one_of(*_FAMILIES.values())


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return repr(a) == repr(b)      # NaN, and -0.0 apart from 0.0
    return a == b


def _same_event(a, b) -> bool:
    return ((a.time, a.seq, a.cat, a.name, a.entity, a.keys)
            == (b.time, b.seq, b.cat, b.name, b.entity, b.keys)
            and len(a.vals) == len(b.vals) and all(map(_same, a.vals, b.vals)))


def _same_list(xs, ys, same=_same) -> bool:
    return len(xs) == len(ys) and all(map(same, xs, ys))


def _compare(new: EventBus, old: reference.EventBus) -> None:
    assert len(new) == len(old)
    assert _same_list(list(new), list(old), _same_event)
    for cat, name in [*_KINDS, ("xfer", None), (None, "post"), ("nope", None)]:
        rows = new.columns.rows(cat, name)
        assert list(rows) == list(old.columns.rows(cat, name))
        assert new.count(cat, name) == old.count(cat, name)
        assert _same_list(new.select(cat, name), old.select(cat, name), _same_event)
        for key in _KEYS:
            assert _same_list(new.columns.column(rows, key, "-"),
                              old.columns.column(rows, key, "-"))
    some = list(new.columns.rows())[::-2]      # any rows, in any order
    for key in _KEYS:
        assert _same_list(new.columns.column(some, key), old.columns.column(some, key))
    assert _same_list(new.select(entity="host1", size=3),
                      old.select(entity="host1", size=3), _same_event)
    assert new.spans() == old.spans()
    rows = chrome_trace(bus=new)["traceEvents"]
    expected = chrome_trace_reference.chrome_trace_of(bus=old)["traceEvents"]
    assert [json.dumps(r) for r in rows] == [json.dumps(r) for r in expected]


_OPS = st.lists(st.one_of(
    st.tuples(st.just("emit"), st.sampled_from(_KINDS), st.sampled_from(_LANES),
              st.lists(st.sampled_from(_KEYS), unique=True, max_size=4),
              st.integers(0, 5)),
    st.tuples(st.just("span"), st.sampled_from(_LANES), st.integers(0, 5),
              st.integers(0, 3)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("query")),
), max_size=120)


@settings(deadline=None, max_examples=150)
@given(ops=_OPS, pack_rows=st.sampled_from([1, 2, 3, 128]),
       family=st.dictionaries(st.sampled_from(_KEYS), st.sampled_from(list(_FAMILIES))),
       scale=st.sampled_from([1e-6, 1e-3, 1.0]), data=st.data())
def test_same_calls_same_answers(ops, pack_rows, family, scale, data):
    """``family`` fixes a key's value type for the case (so typed columns
    fill and widen); keys outside it draw any type (so columns fall back
    to lists).  ``scale`` sets the clock: at 1 s the trace's ts key no
    longer fits 32 bits of 0.1 ns."""
    clock = SimpleNamespace(now=0.0)
    new, old = EventBus(sim=clock), reference.EventBus(sim=clock)
    saved = events_module.PACK_ROWS
    events_module.PACK_ROWS = pack_rows
    try:
        for op in ops:
            if op[0] == "emit":
                (cat, name), lane, keys, tick = op[1:]
                clock.now = tick * scale
                args = {k: data.draw(_FAMILIES[family[k]] if k in family else _ANY)
                        for k in keys}
                new.emit(cat, name, lane, **args)
                old.emit(cat, name, lane, **args)
            elif op[0] == "span":
                lane, start, length = op[1:]
                new.span(lane, start * scale, (start + length) * scale)
                old.span(lane, start * scale, (start + length) * scale)
            elif op[0] == "clear":
                new.clear()
                old.clear()
            else:
                _compare(new, old)
        _compare(new, old)
    finally:
        events_module.PACK_ROWS = saved


def test_typed_columns_narrow_widen_and_fall_back():
    bus = EventBus()
    for v in (1, -2, 300):
        bus.emit("req", "post", "host0", size=v, tag="a", ok=True, t=0.5)
    bus.columns.pack()
    (shape,) = bus.columns.shapes
    cols = dict(zip(shape.keys, shape.cols))
    assert cols["size"].data.typecode == "h" and cols["size"].kind is int
    assert cols["tag"].kind is str and cols["ok"].kind is bool
    assert cols["t"].data.typecode == "d"
    bus.emit("req", "post", "host0", size=1 << 40, tag="b", ok=False, t=None)
    bus.emit("req", "post", "host0", size=1 << 70, tag="a", ok=True, t=1.5)
    bus.columns.pack()
    assert cols["size"].kind is list and cols["t"].kind is list
    assert cols["tag"].kind is str and bus.columns.strings.texts == ["a", "b"]
    assert bus.columns.column(shape.rows, "size") == [1, -2, 300, 1 << 40, 1 << 70]
    assert bus.columns.column(shape.rows, "ok") == [True, True, True, False, True]
    assert json.dumps(bus.events[-1].argdict()) == \
        '{"ok": true, "size": 1180591620717411303424, "t": 1.5, "tag": "a"}'


@settings(deadline=None, max_examples=400)
@given(t=st.one_of(st.floats(0, 0.4), st.floats(0, 1e5),
                   st.integers(0, 4_000_000_000).map(lambda d: d / 1e10),
                   st.integers(0, 4_000_000_000).map(lambda d: (d + 0.5) / 1e10)))
def test_ticks_are_the_rounded_microseconds(t):
    """``_ticks`` counts the 0.1 ns that ``_us`` rounds to, ties included,
    also past 32 bits of them."""
    assert _ticks(np.array([t]))[0] == round(_us(t) * 1e4)


@pytest.mark.parametrize("pack_rows", [1, 128])
def test_pack_bounds_the_stage(pack_rows, monkeypatch):
    monkeypatch.setattr(events_module, "PACK_ROWS", pack_rows)
    bus = EventBus()
    for i in range(300):
        bus.emit("req", "post", "host0", rid=i, size=7)
    (shape,) = bus.columns.shapes
    assert len(shape.stage) < 2 * pack_rows
    assert [ev.arg("rid") for ev in bus.select("req", "post")] == list(range(300))
