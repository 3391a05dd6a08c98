"""FIFO stores: the queue primitive the hardware models are built from.

A control-message channel is a :class:`Store`, and so is a proxy's
inbound queue.  (An HCA port is not a store: it is a FIFO slot,
:class:`repro.hw.nic.Port`, that the fabric's messages hold.)
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.core import Event, Simulator

# NOTE on the inlined trigger below: serving a getter calls
# Event.succeed once per store message, which makes the trigger itself
# a hot path.  Its body (value + schedule + append to the current
# instant's bucket) is therefore inlined in get's fast path; the guard
# checks are skipped because a fresh getter is served exactly once.
# Any change there must stay equivalent to Event.succeed.

__all__ = ["Store"]


class Store:
    """Unbounded FIFO of items with event-based get.

    A put never waits, so it schedules nothing: the only events a store
    makes are its getters'.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: list[Any] = []
        self._getters: list[tuple[Event, Optional[Callable[[Any], bool]]]] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> list[Any]:
        """Read-only view of the queued items (do not mutate)."""
        return self._items

    def put(self, item: Any) -> None:
        """Append ``item`` and serve any getter waiting for it."""
        self._items.append(item)
        if self._getters:
            self._dispatch()

    def get(self, filt: Optional[Callable[[Any], bool]] = None,
            into: Optional[Event] = None) -> Event:
        """Pop the first item (optionally the first matching ``filt``)
        into a fresh event, or into ``into``: a pending event the caller
        owns and files itself with (a proxy's ARM core)."""
        ev = self.sim.event() if into is None else into
        if filt is None and not self._getters and self._items:
            # Fast path: nobody queued ahead and an item is ready.
            item = self._items[0]
            del self._items[0]
            ev._value = item
            ev._scheduled = True
            self.sim._cur.append(ev)
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
                return True, item
        return False, None

    def _dispatch(self) -> None:
        # Serve getters in FIFO order; a blocked filter-getter does not
        # block later getters (needed for tag matching).  Event.succeed
        # only schedules -- callbacks run when the loop pops it -- so no
        # reentrant mutation can happen mid-scan and the lists can be
        # indexed directly instead of snapshotted each round.
        while True:
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
