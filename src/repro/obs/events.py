"""Typed event bus for the simulated offload stack.

Every instrumented layer (``sim/core``, ``hw/fabric``, ``hw/nic``,
``verbs/*``, ``offload/api``, ``offload/proxy``, ``mpi/runtime``) holds
a ``bus`` attribute that defaults to ``None``; emission sites are all of
the shape::

    bus = self.bus
    if bus is not None:
        bus.emit("xfer", "post", "dpu2", size=4096, xid=17)

so a run with no bus attached executes the same code path as an
observed one and costs one attribute load per site.  Emission never consumes simulated
time and never perturbs the RNG streams -- attaching a bus cannot
change what the simulation does, only what we can see of it.

Event taxonomy (``cat`` / ``name``; full table in docs/OBSERVABILITY.md):

=========  ==========================================================
category   names
=========  ==========================================================
sim        deadlock
proc       start, end   (rank programs, proxy loops, probers; fabric
                         messages and proxy completions are callback
                         chains, not processes -- see xfer / ctrl)
wqe        post
xfer       post, deliver, complete
flow       begin, end, fault, retry   (fluid hybrid mode bulk windows)
link       degrade, restore   (LinkDegradePlan window edges)
           congested, clear   (fat-tree link contention edges: >= 2
                               flows sharing a saturated link)
ctrl       post, deliver, drop
reg        mr, mkey, mkey2, revoke, stale_use
cache      hit, miss, stale, evict   (args name the cache)
req        post, complete, retransmit, fallback, stall, repost
group      call, offloaded, launch, replay, done, rebuild
proxy      start, kill, restart, pair, fin, degrade
queue      drain   (batched proxy wakeups; ``n`` = items served)
mpi        isend, complete
mem        free, oom
fault      inject, cq_overflow
=========  ==========================================================

``entity`` identifies the emitting lane and matches the Tracer's lane
names where one exists (``host3``, ``dpu1``, ``fabric``, ``sim``), so
the Chrome-trace exporter can park instants on the matching track.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

__all__ = ["ObsEvent", "EventBus", "CATEGORIES"]

#: Known categories, in taxonomy order.  ``EventBus`` accepts unknown
#: categories too (forward compatibility), but filters and docs speak
#: this vocabulary.
CATEGORIES = (
    "sim", "proc", "wqe", "xfer", "flow", "link", "ctrl", "reg", "cache",
    "req", "group", "proxy", "queue", "mpi", "mem", "fault",
)


@dataclass(slots=True, unsafe_hash=True, init=False, repr=False)
class ObsEvent:
    """One tagged event on the bus.

    Arguments are stored column-wise: ``keys`` is the sorted tuple of
    argument names (one tuple per emission signature, shared by every
    event of that shape) and ``vals`` the values in that order.  ``args``
    zips them into the tuple of sorted ``(key, value)`` pairs the
    constructor takes: events are hashable and serialise in one order
    whatever the emit site's keyword order.  Slotted, ~200 B each
    (docs/OBSERVABILITY.md, 'Memory'): an observed run builds 400 k of
    these, and those of one simulated instant share one ``time`` float.
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


class EventBus:
    """Collects :class:`ObsEvent` records from an instrumented cluster.

    The bus stamps each event with the simulator clock and a
    monotonically increasing sequence number (so simultaneous events
    keep their emission order -- the total order is deterministic for a
    fixed seed).  ``categories`` restricts collection to a subset of
    :data:`CATEGORIES`; everything else is dropped at the emit site.
    """

    def __init__(self, sim=None, categories: Optional[Iterable[str]] = None):
        self.sim = sim
        self.events: list[ObsEvent] = []
        #: ``(cat, name) -> events of that kind``, in emission order;
        #: filled by :meth:`emit`, answers :meth:`select`.
        self._index: dict[tuple[str, str], list[ObsEvent]] = defaultdict(list)
        self._seq = 0
        #: For :meth:`emit`: the clock value last stamped and its rounding;
        #: keyword order at an emit site -> ``(sorted keys, value picker)``.
        self._now, self._time = None, 0.0
        self._shapes: dict[tuple, tuple] = {}
        self._categories = frozenset(categories) if categories is not None else None
        self._subscribers: list[Callable[[ObsEvent], None]] = []

    # -- wiring ---------------------------------------------------------
    @classmethod
    def attach(cls, cluster, categories: Optional[Iterable[str]] = None) -> "EventBus":
        """Create a bus and hang it on every emitting object of ``cluster``.

        Mirrors ``Tracer.attach``: the cluster, its simulator, fabric,
        per-node HCAs, and (if installed) fault plan all share the one
        bus.  Objects constructed later -- MPI runtimes, offload
        frameworks -- pick the bus up from the cluster at their own
        construction time, so attach the bus before building those.
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

    # -- emission -------------------------------------------------------
    def emit(self, _cat: str, _name: str, _entity: str, **args) -> Optional[ObsEvent]:
        """Record one event; returns it, or ``None`` when filtered out.

        The three positional parameters are underscore-prefixed so event
        args may themselves be called ``name``/``cat``/``entity``.
        """
        cats = self._categories
        if cats is not None and _cat not in cats:
            return None
        now = 0.0 if self.sim is None else self.sim.now
        if now is not self._now:
            # A new instant: events of one instant share one rounded float.
            self._now, self._time = now, round(now, 12)
        shape = self._shapes.get(order := tuple(args))
        if shape is None:
            keys = tuple(sorted(order))
            # No picker when the site already spells its keywords sorted.
            shape = self._shapes[order] = (
                keys, None if keys == order else itemgetter(*keys))
        ev = ObsEvent(self._time, self._seq, _cat, _name, _entity)
        ev.keys, pick = shape
        ev.vals = tuple(args.values()) if pick is None else pick(args)
        self._seq += 1
        self.events.append(ev)
        self._index[_cat, _name].append(ev)
        for fn in self._subscribers:
            fn(ev)
        return ev

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self.events)

    def _kind(self, cat: Optional[str], name: Optional[str]):
        """Events matching ``cat``/``name``, in emission order (read-only)."""
        if cat is None and name is None:
            return self.events
        if cat is not None and name is not None:
            return self._index.get((cat, name), ())
        runs = [evs for (c, n), evs in self._index.items()
                if (cat is None or c == cat) and (name is None or n == name)]
        # Each bucket is in emission order; ``seq`` merges them back into it.
        return sorted((ev for run in runs for ev in run), key=lambda ev: ev.seq)

    def select(self, cat: Optional[str] = None, name: Optional[str] = None,
               entity: Optional[str] = None, **args) -> list[ObsEvent]:
        """Events matching every given filter (args match by equality),
        as a fresh list in emission order.  ``cat`` + ``name`` is an index
        lookup, not a scan; ``entity`` and ``args`` filter that bucket."""
        evs = self._kind(cat, name)
        if entity is not None:
            evs = [ev for ev in evs if ev.entity == entity]
        if args:
            evs = [ev for ev in evs
                   if not any(ev.arg(k, _MISSING) != v for k, v in args.items())]
        return list(evs)

    def count(self, cat: Optional[str] = None, name: Optional[str] = None,
              entity: Optional[str] = None, **args) -> int:
        if entity is None and not args:
            return len(self._kind(cat, name))
        return len(self.select(cat, name, entity, **args))

    def clear(self) -> None:
        self.events.clear()
        self._index.clear()

    def render(self, limit: Optional[int] = None) -> str:
        """Plain-text dump of the stream (debugging aid)."""
        evs = self.events if limit is None else self.events[:limit]
        lines = [ev.label() for ev in evs]
        if limit is not None and len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more)")
        return "\n".join(lines) if lines else "(no events)"


_MISSING = object()
