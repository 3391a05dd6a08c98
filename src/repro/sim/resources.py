"""Shared resources: counted resources and FIFO stores.

These are the synchronisation primitives the hardware models are built
from: a NIC injection engine is a :class:`Resource` with capacity 1, a
control-message channel is a :class:`Store`, and so is a proxy's
inbound queue.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.sim.core import PENDING, Event, SimulationError, Simulator

# NOTE on the inlined triggers below: granting a request / admitting an
# item calls Event.succeed once per port acquisition or store message,
# which makes the trigger itself a hot path.  The succeed body (value +
# schedule + append to the current instant's bucket) is therefore
# inlined at the internal call sites in this module; the guard checks
# are skipped because the surrounding data structures guarantee each
# event is granted exactly once (a Request leaves the queue when
# granted, a putter/getter leaves its list when served).  Any change
# here must stay equivalent to Event.succeed.

__all__ = ["Resource", "Store"]


class Request(Event):
    """Pending claim on a :class:`Resource`.

    Construction is flattened (no ``super().__init__`` chain): one
    Request is minted per port acquisition, which puts this on the
    per-message hot path.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.sim = resource.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._scheduled = False
        self._defused = False
        self.resource = resource


class Resource:
    """A counted resource with FIFO admission.

    Usage::

        req = engine.request()
        yield req
        try:
            yield sim.timeout(service_time)
        finally:
            engine.release(req)
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._queue: deque[Request] = deque()
        self._users: set[Request] = set()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of waiting requests."""
        return len(self._queue)

    def request(self) -> Request:
        req = Request(self)
        users = self._users
        if not self._queue and len(users) < self.capacity:
            # Uncontended fast path: grant immediately.  Identical event
            # order to append + _grant (which would pop this same request
            # and succeed it in the same moment).
            users.add(req)
            req._value = None
            req._scheduled = True
            self.sim._cur.append(req)
        else:
            self._queue.append(req)
            self._grant()
        return req

    def release(self, request: Request) -> None:
        try:
            self._users.remove(request)
        except KeyError:
            if request in self._queue:
                # Cancelled before it was granted.
                self._queue.remove(request)
            else:
                raise SimulationError(
                    "releasing a request this resource never granted") from None
        self._grant()

    def _grant(self) -> None:
        queue = self._queue
        if not queue:
            return
        users = self._users
        capacity = self.capacity
        cur = self.sim._cur
        while queue and len(users) < capacity:
            req = queue.popleft()
            users.add(req)
            req._value = None
            req._scheduled = True
            cur.append(req)


class Store:
    """Unbounded (or bounded) FIFO of items with event-based get/put."""

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._items: list[Any] = []
        self._getters: list[tuple[Event, Optional[Callable[[Any], bool]]]] = []
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> list[Any]:
        """Read-only view of the queued items (do not mutate)."""
        return self._items

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event fires when it is accepted."""
        ev = self.sim.event()
        if not self._putters and len(self._items) < self.capacity:
            # Fast path: admit directly.  Same succeed order as the
            # general loop (_dispatch admits putters before it serves
            # getters, so the put event always fires first).
            self._items.append(item)
            ev._value = item
            ev._scheduled = True
            self.sim._cur.append(ev)
            if self._getters:
                self._dispatch()
        else:
            self._putters.append((ev, item))
            self._dispatch()
        return ev

    def get(self, filt: Optional[Callable[[Any], bool]] = None) -> Event:
        """Pop the first item (optionally the first matching ``filt``)."""
        ev = self.sim.event()
        if filt is None and not self._getters and self._items:
            # Fast path: nobody queued ahead and an item is ready.  A
            # pending putter implies the store is at capacity, so the
            # general loop would likewise serve this getter first and
            # only then admit the freed slot.
            item = self._items[0]
            del self._items[0]
            ev._value = item
            ev._scheduled = True
            self.sim._cur.append(ev)
            if self._putters:
                self._admit_putters()
        else:
            self._getters.append((ev, filt))
            self._dispatch()
        return ev

    def cancel(self, get_event: Event) -> bool:
        """Withdraw a pending :meth:`get` whose event has not fired.

        Needed by consumers that race a get against a timeout: leaving a
        stale getter registered would silently swallow the next item.
        Returns True if the getter was found and removed.
        """
        for i, (ev, _filt) in enumerate(self._getters):
            if ev is get_event:
                del self._getters[i]
                return True
        return False

    def try_get(self, filt: Optional[Callable[[Any], bool]] = None) -> tuple[bool, Any]:
        """Non-blocking pop. Returns ``(True, item)`` or ``(False, None)``."""
        for i, item in enumerate(self._items):
            if filt is None or filt(item):
                del self._items[i]
                self._admit_putters()
                return True, item
        return False, None

    def _admit_putters(self) -> None:
        while self._putters and len(self._items) < self.capacity:
            ev, item = self._putters.popleft()
            self._items.append(item)
            ev._value = item
            ev._scheduled = True
            self.sim._cur.append(ev)

    def _dispatch(self) -> None:
        # Serve getters in FIFO order; a blocked filter-getter does not
        # block later getters (needed for tag matching).  Event.succeed
        # only schedules -- callbacks run when the loop pops it -- so no
        # reentrant mutation can happen mid-scan and the lists can be
        # indexed directly instead of snapshotted each round.
        while True:
            self._admit_putters()
            served = False
            for gi, (gev, filt) in enumerate(self._getters):
                for ii, item in enumerate(self._items):
                    if filt is None or filt(item):
                        del self._items[ii]
                        del self._getters[gi]
                        gev.succeed(item)
                        served = True
                        break
                if served:
                    break
            if not served:
                return
