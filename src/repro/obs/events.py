"""Typed event bus for the simulated offload stack: one channel, as columns.

Every instrumented layer (``sim/core``, ``hw/fabric``, ``hw/nic``,
``verbs/*``, ``offload/api``, ``offload/proxy``, ``mpi/runtime``) holds
a ``bus`` attribute that defaults to ``None``; emission sites are all of
the shape::

    bus = self.bus
    if bus is not None:
        bus.emit("xfer", "post", "dpu2", size=4096, xid=17)

so a run with no bus attached executes the same code path as an
observed one and costs one attribute load per site.  Emission never
consumes simulated time and never perturbs the RNG streams.  The event
taxonomy (``cat`` / ``name``, :data:`CATEGORIES`) is tabled in
docs/OBSERVABILITY.md; ``entity`` names the emitting lane (``host3``,
``dpu1``, ``node0``, ``fabric``, ``sim``).

Beside the events the bus records **busy spans** (``ProcessContext.consume``
calls :meth:`EventBus.span`); they are not rows of the event stream.  A
fabric **arrow** is not recorded at all: it is the ``xfer.post`` and
``xfer.deliver`` rows of one ``xid``.  Storage is columnar
(:class:`Columns`): no Python object per record or argument value, and
:class:`ObsEvent` is built only when a row is asked for.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = ["ObsEvent", "EventBus", "Columns", "CATEGORIES"]

#: Known categories, in taxonomy order.  ``EventBus`` accepts unknown
#: categories too (forward compatibility), but filters and docs speak
#: this vocabulary.
CATEGORIES = (
    "sim", "proc", "wqe", "xfer", "flow", "link", "ctrl", "reg", "cache",
    "req", "group", "proxy", "queue", "mpi", "mem", "fault",
)


@dataclass(slots=True, unsafe_hash=True, init=False, repr=False)
class ObsEvent:
    """One tagged event: a row of the bus, built on demand.

    ``keys`` is the sorted tuple of argument names (one tuple per
    emission signature, shared by every row of that shape) and ``vals``
    the values in that order.  ``args`` zips them into the tuple of
    sorted ``(key, value)`` pairs the constructor takes: events are
    hashable and serialise in one order whatever the emit site's keyword
    order.
    """

    time: float
    seq: int
    cat: str
    name: str
    entity: str
    keys: tuple
    vals: tuple

    def __init__(self, time: float, seq: int, cat: str, name: str,
                 entity: str, args: tuple = ()):
        self.time, self.seq = time, seq
        self.cat, self.name, self.entity = cat, name, entity
        self.keys, self.vals = tuple(zip(*args)) or ((), ())

    @property
    def args(self) -> tuple:
        return tuple(zip(self.keys, self.vals))

    def __repr__(self) -> str:
        return (f"ObsEvent(time={self.time!r}, seq={self.seq!r}, "
                f"cat={self.cat!r}, name={self.name!r}, "
                f"entity={self.entity!r}, args={self.args!r})")

    def arg(self, key: str, default=None):
        try:
            return self.vals[self.keys.index(key)]
        except ValueError:
            return default

    def argdict(self) -> dict:
        return dict(zip(self.keys, self.vals))

    def label(self) -> str:
        """Compact one-line rendering (used by timelines and messages)."""
        kv = " ".join(f"{k}={v}" for k, v in zip(self.keys, self.vals))
        base = f"[{self.time * 1e6:10.3f}us] {self.entity:<8} {self.cat}.{self.name}"
        return f"{base} {kv}".rstrip()


_new_event = object.__new__

#: Rows a shape stages before :meth:`_Shape.pack` moves them into its
#: typed columns: bounds the boxed values alive at once.
PACK_ROWS = 128
#: Integer typecodes by width ('b' < 'h' < 'i' < 'q' as strings too), and their ranges.
_RANGES = {code: (-1 << 8 * n - 1, (1 << 8 * n - 1) - 1) for code, n in zip("bhiq", (1, 2, 4, 8))}
_TYPECODES = {int: "b", str: "b", bool: "b", float: "d"}
_BOOLS = (False, True)


class _Strings(dict):
    """A recording's intern table: ``str -> code``, ``texts[code] -> str``."""

    __slots__ = ("texts",)

    def __init__(self):
        self.texts: list[str] = []

    def __missing__(self, text: str) -> int:
        code = self[text] = len(self.texts)
        self.texts.append(text)
        return code


class _Column:
    """One argument key of one shape, by ``kind``, the one type of its values:
    ``int`` in the narrowest ``array`` of 'b'/'h'/'i'/'q' holding them all
    (widened in place), ``float`` in ``array('d')``, ``str`` and ``bool`` as
    codes into ``table`` (the intern table's ``texts``, or ``(False, True)``);
    else (``None``, tuples, ints past 64 bits, mixed types) a plain list."""

    __slots__ = ("kind", "data", "table")

    def __init__(self):
        self.kind = self.data = self.table = None

    def values(self) -> list:
        return list(self.data if self.table is None else map(self.table.__getitem__, self.data))

    def _as_list(self) -> None:
        self.data, self.kind, self.table = self.values() if self.kind else [], list, None

    def extend(self, vals: list, strings: _Strings) -> None:
        if self.kind is not list:
            types = set(map(type, vals))
            kind = types.pop() if len(types) == 1 else list
            if self.kind is None and kind in _TYPECODES:
                self.kind, self.data = kind, array(_TYPECODES[kind])
                self.table = strings.texts if kind is str else _BOOLS if kind is bool else None
            elif kind is not self.kind:
                self._as_list()
        kind = self.kind
        if kind is str:
            vals = list(map(strings.__getitem__, vals))
        if kind is int or kind is str:
            lo, hi = min(vals), max(vals)
            code = next((code for code, (low, high) in _RANGES.items()
                         if low <= lo and hi <= high), None)
            if code is None:
                self._as_list()
            elif code > self.data.typecode:
                self.data = array(code, self.data)
        self.data.extend(vals)


class _Shape:
    """One emission shape ``(cat, name, keys)``: its rows in emission order,
    one :class:`_Column` per key (the ``i``-th row's value at ``i``), and
    ``stage``, the values emitted since the last :meth:`pack`, flat."""

    __slots__ = ("cat", "name", "keys", "rows", "cols", "stage", "strings")

    def __init__(self, cat: str, name: str, keys: tuple, strings: _Strings):
        self.cat, self.name, self.keys, self.strings = cat, name, keys, strings
        self.rows = array("I")
        self.cols = [_Column() for _ in keys]
        self.stage: list = []

    def pack(self) -> None:
        for j, col in enumerate(self.cols):
            col.extend(self.stage[j::len(self.keys)], self.strings)
        self.stage.clear()

    def values(self, pos: int) -> tuple:
        """The argument values of this shape's ``pos``-th row, in ``keys`` order."""
        if self.stage:
            self.pack()
        return tuple([col.data[pos] if col.table is None else col.table[col.data[pos]]
                      for col in self.cols])


class Columns:
    """One recording: parallel arrays, appended to and never edited (so a
    reader such as a Chrome-trace view keeps what it saw).

    Event row ``r`` is at ``time[r]``, on lane ``entities[entity[r]]``, of
    shape ``shapes[shape[r]]`` (a :class:`_Shape`), whose columns hold its
    argument values at position ``bisect_left(shape.rows, r)``; its ``seq``
    is ``base + r``.  Span ``i`` keeps lane ``entities[span_entity[i]]``
    busy over ``[span_start[i], span_end[i])``.  Codes widen from ``'H'`` to
    ``'I'`` past 65 535 lanes or shapes.  Values are read after :meth:`pack`.
    """

    __slots__ = ("base", "time", "shape", "entity", "shapes", "entities",
                 "strings", "span_entity", "span_start", "span_end", "_sites",
                 "_entity_code")

    def __init__(self, base: int = 0):
        self.base = base
        self.time = array("d")
        self.shape = array("H")
        self.entity = array("H")
        self.shapes: list[_Shape] = []
        self.entities: list[str] = []
        self.strings = _Strings()
        self.span_entity = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        #: ``(cat, name, *site keyword order) -> (shape code, value picker
        #: or None if the site spells its keys sorted, the shape's rows and
        #: stage, the stage length that packs it)``.
        self._sites: dict[tuple, tuple] = {}
        self._entity_code: dict[str, int] = {}

    def _site(self, cat: str, name: str, order: tuple) -> tuple:
        keys = tuple(sorted(order))
        code = next((code for code, sh in enumerate(self.shapes)
                     if (sh.cat, sh.name, sh.keys) == (cat, name, keys)), len(self.shapes))
        if code == len(self.shapes):
            self.shapes.append(_Shape(cat, name, keys, self.strings))
            if code == 0x10000:
                self.shape = array("I", self.shape)
        sh = self.shapes[code]
        site = self._sites[(cat, name, *order)] = (
            code, None if keys == order else itemgetter(*keys), sh.rows, sh.stage,
            PACK_ROWS * max(1, len(keys)))
        return site

    def _lane(self, entity: str) -> int:
        code = self._entity_code[entity] = len(self.entities)
        self.entities.append(entity)
        if code == 0x10000:
            self.entity = array("I", self.entity)
            self.span_entity = array("I", self.span_entity)
        return code

    def __len__(self) -> int:
        return len(self.time)

    def pack(self) -> None:
        for sh in self.shapes:
            if sh.stage:
                sh.pack()

    def rows(self, cat: Optional[str] = None,
             name: Optional[str] = None) -> Sequence[int]:
        """Row numbers of the events of a kind, in emission order (read-only)."""
        if cat is None and name is None:
            return range(len(self.time))
        runs = [sh.rows for sh in self.shapes
                if (cat is None or sh.cat == cat) and (name is None or sh.name == name)]
        return runs[0] if len(runs) == 1 else sorted(chain.from_iterable(runs))

    def positions(self) -> array:
        """Each row's position among its shape's rows: a pass over many rows
        reads it here instead of a bisect per row."""
        out = array("I", [0]) * len(self)
        at = np.frombuffer(out, np.uint32)
        for sh in self.shapes:
            at[np.frombuffer(sh.rows, np.uint32)] = np.arange(len(sh.rows), dtype=np.uint32)
        return out

    def event(self, row: int, pos: Optional[int] = None) -> ObsEvent:
        """Row ``row`` (at ``pos`` among its shape's rows) as an :class:`ObsEvent`."""
        sh = self.shapes[self.shape[row]]
        ev = _new_event(ObsEvent)
        ev.time, ev.seq = self.time[row], self.base + row
        ev.cat, ev.name, ev.entity = sh.cat, sh.name, self.entities[self.entity[row]]
        ev.keys, ev.vals = sh.keys, sh.values(bisect_left(sh.rows, row) if pos is None else pos)
        return ev

    def arg(self, row: int, key: str, default=None):
        sh = self.shapes[self.shape[row]]
        if key not in sh.keys:
            return default
        return sh.values(bisect_left(sh.rows, row))[sh.keys.index(key)]

    def column(self, rows: Iterable[int], key: str, default=None) -> list:
        """Argument ``key`` of each of ``rows`` (``default`` where absent):
        each shape among ``rows`` reads its typed column whole, and its
        values are scattered to their rows by position."""
        self.pack()
        rows = np.asarray(rows, dtype=np.intp)
        codes = np.frombuffer(self.shape, self.shape.typecode)[rows]
        out = np.empty(len(rows), object)
        out.fill(default)
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            sh = self.shapes[code]
            if key in sh.keys:
                vals = sh.cols[sh.keys.index(key)].values()
                at = np.flatnonzero(codes == code)
                pos = np.searchsorted(np.frombuffer(sh.rows, np.uint32), rows[at])
                out[at] = np.fromiter(vals, object, len(vals))[pos]
        return out.tolist()

    def arrows(self) -> tuple[array, array]:
        """Fabric arrows as ``(post rows, deliver rows)`` in delivery order:
        each ``xfer.deliver`` joined to the ``xfer.post`` of its ``xid``
        (a deliver whose post was not recorded draws no arrow)."""
        posts = self.rows("xfer", "post")
        post_of = dict(zip(self.column(posts, "xid"), posts))
        delivers = self.rows("xfer", "deliver")
        src, dst = array("I"), array("I")
        for xid, row in zip(self.column(delivers, "xid"), delivers):
            post = post_of.get(xid)
            if post is not None:
                src.append(post)
                dst.append(row)
        return src, dst

    def span_lanes(self) -> dict[int, tuple[list, list]]:
        """Lane code -> ``(starts, ends)`` of its spans, in recording order."""
        ent = np.frombuffer(self.span_entity, self.span_entity.typecode)
        order = np.argsort(ent, kind="stable")
        codes, first = np.unique(ent[order], return_index=True)
        starts = np.frombuffer(self.span_start)[order].tolist()
        ends = np.frombuffer(self.span_end)[order].tolist()
        bounds = [*first.tolist(), len(order)]
        return {code: (starts[lo:hi], ends[lo:hi])
                for code, lo, hi in zip(codes.tolist(), bounds, bounds[1:])}


class EventBus:
    """Records the events and busy spans of an instrumented cluster.

    Each event is stamped with the simulator clock (rounded to the
    picosecond) and a sequence number, so the total order is
    deterministic for a fixed seed.  ``categories`` restricts the
    events (not the spans) to a subset of :data:`CATEGORIES`.
    """

    def __init__(self, sim=None, categories: Optional[Iterable[str]] = None):
        self.sim = sim
        #: For :meth:`emit`: the clock value last stamped and its rounding.
        self._now, self._time = None, 0.0
        self._categories = frozenset(categories) if categories is not None else None
        self._subscribers: list[Callable[[ObsEvent], None]] = []
        #: The current recording (:meth:`clear` replaces it).
        self.columns = Columns()

    # -- wiring ---------------------------------------------------------
    @classmethod
    def attach(cls, cluster, categories: Optional[Iterable[str]] = None) -> "EventBus":
        """Create a bus and hang it on every emitting object of ``cluster``:
        the cluster (whose contexts record spans), its simulator, fabric,
        HCAs and fault plans.  MPI runtimes and offload frameworks pick the
        bus up from the cluster when built, so attach it before those.
        """
        bus = cls(sim=cluster.sim, categories=categories)
        cluster.bus = bus
        cluster.sim.bus = bus
        cluster.fabric.bus = bus
        for node in cluster.nodes:
            node.hca.bus = bus
        if getattr(cluster, "fault_plan", None) is not None:
            cluster.fault_plan.bus = bus
        if getattr(cluster, "link_plan", None) is not None:
            cluster.link_plan.bus = bus
        return bus

    def subscribe(self, fn: Callable[[ObsEvent], None]) -> None:
        """Call ``fn(event)`` on every accepted event (live consumers)."""
        self._subscribers.append(fn)

    def emit(self, _cat: str, _name: str, _entity: str, **args) -> None:
        """Record one event (unless its category is filtered out).

        The three positional parameters are underscore-prefixed so event
        args may themselves be called ``name``/``cat``/``entity``.
        """
        cats = self._categories
        if cats is not None and _cat not in cats:
            return
        now = 0.0 if self.sim is None else self.sim.now
        if now is not self._now:
            self._now, self._time = now, round(now, 12)
        c = self.columns
        site = c._sites.get((_cat, _name, *args))
        if site is None:
            site = c._site(_cat, _name, tuple(args))
        code, pick, rows, stage, limit = site
        ent = c._entity_code.get(_entity)
        if ent is None:
            ent = c._lane(_entity)
        row = len(c.time)
        rows.append(row)
        c.time.append(self._time)
        c.shape.append(code)
        c.entity.append(ent)
        stage.extend(args.values() if pick is None else pick(args))
        if len(stage) >= limit:
            c.shapes[code].pack()
        if self._subscribers:
            ev = c.event(row)
            for fn in self._subscribers:
                fn(ev)

    def span(self, entity: str, start: float, end: float) -> None:
        """Record that ``entity``'s core was busy over ``[start, end)``."""
        c = self.columns
        ent = c._entity_code.get(entity)
        if ent is None:
            ent = c._lane(entity)
        c.span_entity.append(ent)
        c.span_start.append(start)
        c.span_end.append(end)

    def clear(self) -> None:
        """Start a fresh recording (events and spans); ``seq`` keeps counting."""
        self.columns = Columns(self.columns.base + len(self.columns))

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[ObsEvent]:
        c = self.columns
        return map(c.event, range(len(c)), c.positions())

    @property
    def events(self) -> list[ObsEvent]:
        """Every event, as a fresh list of rows (built on each call)."""
        return list(self)

    def select(self, cat: Optional[str] = None, name: Optional[str] = None,
               entity: Optional[str] = None, **args) -> list[ObsEvent]:
        """Events matching every given filter (args match by equality),
        as a fresh list in emission order.  ``cat`` + ``name`` is an index
        lookup, not a scan; ``entity`` and ``args`` filter that kind."""
        c = self.columns
        rows = c.rows(cat, name)
        if entity is not None:
            code = c._entity_code.get(entity)
            ents = c.entity
            rows = [r for r in rows if ents[r] == code]
        evs = map(c.event, rows)
        if args:
            evs = [ev for ev in evs
                   if not any(ev.arg(k, _MISSING) != v for k, v in args.items())]
        return list(evs)

    def count(self, cat: Optional[str] = None, name: Optional[str] = None,
              entity: Optional[str] = None, **args) -> int:
        if entity is None and not args:
            return len(self.columns.rows(cat, name))
        return len(self.select(cat, name, entity, **args))

    def spans(self, entity: Optional[str] = None) -> list[tuple[str, float, float]]:
        """Busy spans ``(entity, start, end)`` in recording order."""
        c = self.columns
        names = c.entities
        out = [(names[e], s, t)
               for e, s, t in zip(c.span_entity, c.span_start, c.span_end)]
        return out if entity is None else [sp for sp in out if sp[0] == entity]

    def render(self, limit: Optional[int] = None) -> str:
        """Plain-text dump of the stream (debugging aid)."""
        c = self.columns
        n = len(c) if limit is None else min(limit, len(c))
        lines = [c.event(r).label() for r in range(n)]
        if n < len(c):
            lines.append(f"... ({len(c) - n} more)")
        return "\n".join(lines) if lines else "(no events)"


_MISSING = object()
