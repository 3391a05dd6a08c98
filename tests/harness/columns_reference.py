"""The bus's storage as it stood before typed argument columns: the
oracle for ``repro.obs.events``.

:class:`Columns` and :class:`EventBus` below are the flat-``values``
recording kept verbatim (wiring aside): every argument value is one
boxed object in one list, found through a per-row ``offset`` column, and
``kinds`` indexes the rows of each ``(cat, name)``.  It is obviously
right; ``tests/harness/test_columns_differential.py`` drives it and the
production bus with the same calls and requires the same answers.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.obs.events import ObsEvent

__all__ = ["Columns", "EventBus"]


_new_event = object.__new__


class Columns:
    """One recording: parallel arrays, appended to and never edited (so a
    reader such as a Chrome-trace view keeps what it saw).

    Event row ``r`` is at ``time[r]``, of shape ``shapes[shape[r]] ==
    (cat, name, keys)``, on lane ``entities[entity[r]]``, with argument
    values ``values[offset[r]:offset[r] + len(keys)]``; its ``seq`` is
    ``base + r``; ``kinds[cat, name]`` indexes the rows of one kind.
    Span ``i`` keeps lane ``entities[span_entity[i]]`` busy over
    ``[span_start[i], span_end[i])``.  Codes widen from ``'H'`` to ``'I'``
    past 65 535 lanes or shapes.
    """

    __slots__ = ("base", "time", "shape", "entity", "offset", "values",
                 "shapes", "entities", "kinds", "span_entity", "span_start",
                 "span_end", "_sites", "_entity_code")

    def __init__(self, base: int = 0):
        self.base = base
        self.time = array("d")
        self.shape = array("H")
        self.entity = array("H")
        self.offset = array("I")
        self.values: list = []
        self.shapes: list[tuple[str, str, tuple]] = []
        self.entities: list[str] = []
        self.kinds: dict[tuple[str, str], array] = {}
        self.span_entity = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        #: ``(cat, name, *site keyword order) -> (shape code, value picker
        #: or None if the site spells its keys sorted, the kind's rows)``.
        self._sites: dict[tuple, tuple] = {}
        self._entity_code: dict[str, int] = {}

    def _site(self, cat: str, name: str, order: tuple) -> tuple:
        keys = tuple(sorted(order))
        shape = (cat, name, keys)
        try:
            code = self.shapes.index(shape)
        except ValueError:
            code = len(self.shapes)
            self.shapes.append(shape)
            if code == 0x10000:
                self.shape = array("I", self.shape)
        rows = self.kinds.get((cat, name))
        if rows is None:
            rows = self.kinds[cat, name] = array("I")
        site = self._sites[(cat, name, *order)] = (
            code, None if keys == order else itemgetter(*keys), rows)
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

    def rows(self, cat: Optional[str] = None,
             name: Optional[str] = None) -> Sequence[int]:
        """Row numbers of the events of a kind, in emission order (read-only)."""
        if cat is None and name is None:
            return range(len(self.time))
        if cat is not None and name is not None:
            return self.kinds.get((cat, name), ())
        return sorted(r for (c, n), rows in self.kinds.items()
                      if (cat is None or c == cat) and (name is None or n == name)
                      for r in rows)

    def event(self, row: int) -> ObsEvent:
        """Row ``row`` as an :class:`ObsEvent`."""
        cat, name, keys = self.shapes[self.shape[row]]
        off = self.offset[row]
        ev = _new_event(ObsEvent)
        ev.time, ev.seq = self.time[row], self.base + row
        ev.cat, ev.name, ev.entity = cat, name, self.entities[self.entity[row]]
        ev.keys, ev.vals = keys, tuple(self.values[off:off + len(keys)])
        return ev

    def arg(self, row: int, key: str, default=None):
        keys = self.shapes[self.shape[row]][2]
        return self.values[self.offset[row] + keys.index(key)] if key in keys else default

    def column(self, rows: Iterable[int], key: str, default=None) -> list:
        """Argument ``key`` of each of ``rows`` (``default`` where absent)."""
        at = [keys.index(key) if key in keys else -1 for _, _, keys in self.shapes]
        shape, offset, values = self.shape, self.offset, self.values
        return [default if (i := at[shape[r]]) < 0 else values[offset[r] + i]
                for r in rows]

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
        #: The current recording (:meth:`clear` replaces it).
        self.columns = Columns()

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
        code, pick, rows = site
        ent = c._entity_code.get(_entity)
        if ent is None:
            ent = c._lane(_entity)
        row = len(c.time)
        rows.append(row)
        c.time.append(self._time)
        c.shape.append(code)
        c.entity.append(ent)
        values = c.values
        c.offset.append(len(values))
        values.extend(args.values() if pick is None else pick(args))

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
        return map(c.event, range(len(c)))

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


_MISSING = object()
