"""Fluid-flow engine for the hybrid simulation mode.

The event engine prices every message as a chain of discrete events,
which caps simulated cluster size.  This module implements the
coarse half of the hybrid: long transfers advance as *flows* that share
port capacity max-min fairly (psim's ``make_progress_on_flows`` idiom),
while everything else -- control messages, sub-threshold transfers,
barrier traffic -- stays on the exact event engine.

Model
-----
A flow's *work* is its store-and-forward serialization window measured
in **port-seconds** (``serialization_time(size)/bw_scale``): one second
of work consumes one second of exclusive port time.  Every flow pins two
endpoints -- the source's tx port and the destination's rx port -- each
with capacity 1.0 (a time-share, not a byte rate; folding path bandwidth
into the work keeps DPU-memory-capped flows from overstating aggregate
throughput on a faster wire).  Rates are the max-min fair (water-filling)
allocation over those endpoints, each flow additionally capped at 1.0
(a single message cannot use more than the whole port).

With a fat-tree topology attached (``repro.hw.topology``), a flow
instead carries an explicit *path* -- an ordered tuple of link keys
(tx port, leaf->spine uplink, spine->leaf downlink, rx port) -- and
contends on every link of it.  The two-endpoint flow is just the
two-link path (tx, rx): the engine keeps one padded flow x link
incidence for whatever is in flight and every re-solve goes through the
one solver, :func:`fair_shares_links` (:func:`fair_shares` is its
two-column adapter).

The engine integrates ``remaining -= rate * dt`` lazily: it wakes only
at the earliest predicted flow completion, or after the set of flows
changes.  Set changes within one simulated instant are batched -- every
``add_flow`` marks the engine dirty and schedules a single zero-delay
kick, so an n-flow burst costs one vectorized recompute, not n.

The engine is protocol-agnostic: it signals a flow's *drain* (its last
byte leaving the shared ports) to a caller-supplied ``finish`` callback
and never touches deliveries, CQEs or the bus itself.  The fabric owns
that protocol tail (wire latency + rx re-serialization + ack), which is
what makes a solo fluid flow land on the exact same timestamps as the
event engine's store-and-forward chain.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

import numpy as np

from repro.sim.core import Simulator

__all__ = ["Flow", "FlowEngine", "fair_shares", "fair_shares_links"]

#: Slack below which two share levels count as the same level.
_TINY = 1e-12


def fair_shares(tx, rx, caps, n_endpoints: int,
                endpoint_caps=None) -> np.ndarray:
    """Max-min fair time-shares for flows over (tx, rx) endpoint pairs.

    The two-link special case of :func:`fair_shares_links`, kept as the
    flat port model's entry point: ``tx``/``rx`` are dense endpoint ids
    per flow (a flow loads both), ``endpoint_caps`` the optional
    per-endpoint capacities.
    """
    pairs = np.stack([np.asarray(tx, dtype=np.intp),
                      np.asarray(rx, dtype=np.intp)], axis=1)
    return fair_shares_links(pairs, caps, n_endpoints, endpoint_caps)


def _pad_paths(paths, n_links: int) -> np.ndarray:
    """Ragged link-id paths -> dense (n, width) array padded with n_links."""
    n = len(paths)
    if n == 0:
        return np.empty((0, 1), dtype=np.intp)
    width = max(len(p) for p in paths)
    if width == 0:
        raise ValueError("every flow path needs at least one link")
    out = np.full((n, width), n_links, dtype=np.intp)
    for i, p in enumerate(paths):
        out[i, : len(p)] = p
    return out


def fair_shares_links(paths, caps, n_links: int,
                      link_caps=None) -> np.ndarray:
    """Max-min fair time-shares for flows over arbitrary link paths.

    ``paths`` is either a sequence of per-flow link-id sequences, or an
    already-padded 2-D ``intp`` array where entries ``>= n_links`` *or
    negative* are padding; ``caps`` is the per-flow rate ceiling.
    ``link_caps`` is the per-link capacity vector (unit capacity
    everywhere by default; link degradation lowers individual entries,
    a flapped link is capacity 0.0, negatives clamp to 0.0).  A flow
    crossing a link twice loads it twice.

    Parallel-bottleneck water-filling.  Every round gives each loaded
    link its fair *level* ``cap_left / unfrozen_load`` and each unfrozen
    flow the candidate ``min(cap, lowest level on its path)``.  A link
    is *locally minimal* when none of its unfrozen flows is held below
    the link's level by a tighter constraint elsewhere: its flows split
    it evenly and nothing can ever raise them, because levels only rise
    as lower flows freeze.  The round freezes every flow on a locally
    minimal link or at its own cap -- all local bottlenecks at once,
    not only the globally lowest level -- subtracts what they consume
    and compacts to the survivors.  The lowest-level link is always
    locally minimal, so each round freezes at least one flow and the
    round count never exceeds the number of distinct share levels; on
    a fabric with many independent bottlenecks it is far smaller.

    Pure, deterministic and permutation-invariant bit for bit --
    exposed for the Hypothesis property tests.
    """
    return _solve(paths, caps, n_links, link_caps)[0]


def _solve(paths, caps, n_links: int, link_caps) -> tuple[np.ndarray, int]:
    """:func:`fair_shares_links` plus the number of rounds it ran."""
    caps = np.asarray(caps, dtype=np.float64)
    if isinstance(paths, np.ndarray) and paths.ndim == 2:
        P = paths.astype(np.intp, copy=True)
        np.copyto(P, n_links, where=(P < 0) | (P > n_links))
    else:
        P = _pad_paths([np.asarray(p, dtype=np.intp) for p in paths], n_links)
    n, width = P.shape
    share = np.zeros(n, dtype=np.float64)
    # One sentinel slot past the real links holds the padding: infinite
    # capacity, so its level never binds, and every finite candidate is
    # held below it, so it is never minimal.
    cap_left = np.empty(n_links + 1, dtype=np.float64)
    if link_caps is None:
        cap_left[:n_links] = 1.0
    else:
        lc = np.asarray(link_caps, dtype=np.float64)
        if lc.shape != (n_links,):
            raise ValueError(
                f"link_caps / endpoint_caps must have shape ({n_links},), "
                f"got {lc.shape}"
            )
        np.maximum(lc, 0.0, out=cap_left[:n_links])
    cap_left[n_links] = np.inf
    # ``idx`` maps the surviving rows of ``P``/``caps`` back to flow ids.
    idx = np.arange(n, dtype=np.intp)
    rounds = 0
    while idx.size:
        rounds += 1
        flat = P.ravel()
        load = np.bincount(flat, minlength=n_links + 1)
        # Unloaded links get a meaningless level that no flow reads.
        level = cap_left / np.maximum(load, 1)
        on_path = level[P]
        cand = np.minimum(on_path.min(axis=1), caps)
        # Per link, the flows a tighter constraint holds below its level.
        held = np.bincount(
            flat, weights=((cand + _TINY)[:, None] < on_path).ravel(),
            minlength=n_links + 1,
        )
        minimal = held == 0.0
        freeze = minimal[P].any(axis=1)
        freeze |= cand >= caps
        fz = freeze.nonzero()[0]
        if fz.size == idx.size:
            share[idx] = cand
            break
        got = cand[fz]
        share[idx[fz]] = got
        # Summed in ascending share order, so a link's consumption does
        # not depend on the order the flows were given in.
        order = got.argsort(kind="stable")
        cap_left -= np.bincount(
            P[fz[order]].ravel(), weights=got[order].repeat(width),
            minlength=n_links + 1,
        )
        np.maximum(cap_left, 0.0, out=cap_left)
        keep = ~freeze
        idx = idx[keep]
        P = P[keep]
        caps = caps[keep]
    return share, rounds


class Flow:
    """One rate-shared bulk transfer tracked by the :class:`FlowEngine`."""

    __slots__ = ("fid", "path", "work", "cap", "rate", "remaining",
                 "finish", "tag", "t_start", "t_drain")

    def __init__(self, fid: int, path: tuple, work: float, cap: float,
                 finish: Callable[["Flow", float], None], tag: Any,
                 t_start: float):
        self.fid = fid
        #: Dense link ids the flow crosses, in order ((tx, rx) for the
        #: default two-endpoint flow).
        self.path = path
        self.work = work
        self.cap = cap
        #: Max-min rate (port time-share) and residual work.  While the
        #: flow is in flight the engine's arrays are authoritative and
        #: these are synced only on demand (:meth:`FlowEngine.probe`).
        self.rate = 0.0
        self.remaining = work
        self.finish = finish
        self.tag = tag
        self.t_start = t_start
        self.t_drain: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Flow {self.fid} work={self.work:.3e} "
                f"remaining={self.remaining:.3e} rate={self.rate:.3f}>")


class FlowEngine:
    """Rate-shared flow progression interleaved with the event queue.

    The engine keeps at most one pending *wake* event on the simulator
    heap, scheduled at the earliest predicted flow drain; a generation
    counter invalidates superseded wakes (they pop as no-ops).  Flow-set
    changes within one instant batch into a single zero-delay *kick*.
    """

    def __init__(self, sim: Simulator, threshold: int = 0):
        self.sim = sim
        #: Byte threshold above which the fabric routes transfers here
        #: (stored on the engine purely for diagnostics/probes).
        self.threshold = threshold
        self._active: list[Flow] = []
        self._pending: list[Flow] = []
        # Arrays aligned with _active, maintained incrementally (append
        # on admission, mask on drain/cancel) so a re-solve never walks
        # the flow list in Python; remaining work is authoritative in
        # _rem (Flow.remaining is synced lazily).
        self._rem = np.empty(0, dtype=np.float64)
        self._share = np.empty(0, dtype=np.float64)
        self._eps = np.empty(0, dtype=np.float64)
        self._caps = np.empty(0, dtype=np.float64)
        # The active flows' dense link ids, one row each, -1-padded to
        # the longest path seen: the solver's incidence.
        self._pad = np.empty((0, 2), dtype=np.intp)
        self._endpoints: dict[Any, int] = {}
        #: Reverse of ``_endpoints``: dense id -> key, appended in
        #: intern order (congestion events and utilization reports).
        self._eid_keys: list[Any] = []
        # Non-default endpoint capacities (dense id -> absolute
        # capacity); empty on a healthy fabric.  Populated by link
        # degradation (see repro.hw.faults.LinkDegradePlan).
        self._ep_caps: dict[int, float] = {}
        #: Optional congestion hook: ``fn(key, congested, nflows)``
        #: fires on every link's congested/clear transition (>= 2 flows
        #: sharing a saturated link).  Computed only when set.
        self.on_congestion: Optional[Callable[[Any, bool, int], None]] = None
        self._congested: set[int] = set()
        #: Opt-in per-link utilization integration (port-seconds of
        #: occupied capacity per link); set before admitting flows.
        self.util_enabled = False
        self._util = np.empty(0, dtype=np.float64)
        # Per-link flow counts and share-weighted occupancy of the
        # current allocation; tallied once per re-solve, and only when
        # the congestion hook or utilization asks for them.
        self._link_counts = np.empty(0, dtype=np.intp)
        self._link_used = np.empty(0, dtype=np.float64)
        #: Set when endpoint capacities changed since the last solve;
        #: forces a fair-share recompute at the next sync even if the
        #: flow set itself is unchanged.
        self._dirty = False
        self._next_fid = 0
        self._last_t = 0.0
        self._wake_gen = 0
        self._kick_scheduled = False
        # Diagnostics.
        self.flows_started = 0
        self.flows_finished = 0
        self.flows_cancelled = 0
        self.recomputes = 0
        self.wakes = 0

    # -- public API ------------------------------------------------------
    @property
    def active_count(self) -> int:
        return len(self._active) + len(self._pending)

    def endpoint(self, key: Any) -> int:
        """Dense id for an endpoint/link key (e.g. ``("tx", node)``)."""
        eid = self._endpoints.get(key)
        if eid is None:
            eid = len(self._endpoints)
            self._endpoints[key] = eid
            self._eid_keys.append(key)
        return eid

    def add_flow(self, *, tx: Any = None, rx: Any = None, work: float,
                 finish: Callable[[Flow, float], None],
                 cap: float = 1.0, tag: Any = None,
                 path: Optional[Iterable[Any]] = None) -> Flow:
        """Admit a flow; ``finish(flow, t)`` fires when its work drains.

        ``tx``/``rx`` are endpoint keys (mapped to dense ids), ``work``
        is in port-seconds, ``cap`` the flow's own rate ceiling.
        Alternatively ``path`` gives the ordered link keys the flow
        crosses (at least two; a topology's tx port, spine links, rx
        port) -- the flow then contends on *every* link of its path
        (``tx``/``rx`` is shorthand for the two-link path).  The finish
        callback runs during event processing at the drain instant; it
        may add new flows (they batch into the same instant's
        recompute).
        """
        if work <= 0.0:
            raise ValueError(f"flow work must be positive, got {work!r}")
        if path is None:
            if tx is None or rx is None:
                raise ValueError("add_flow needs tx and rx, or a path")
            keys = (tx, rx)
        else:
            keys = tuple(path)
            if len(keys) < 2:
                raise ValueError(
                    f"flow path needs at least two links, got {keys!r}"
                )
        flow = Flow(self._next_fid, tuple(self.endpoint(k) for k in keys),
                    float(work), float(cap), finish, tag, self.sim.now)
        self._next_fid += 1
        self.flows_started += 1
        self._pending.append(flow)
        self._schedule_kick()
        return flow

    def cancel_flow(self, flow: Flow) -> Optional[float]:
        """Withdraw an in-flight flow; returns its remaining port-seconds.

        Progress is settled to the current instant first, so the
        returned residue is exact.  The flow's ``finish`` callback never
        fires; the survivors are re-shared at this instant.  Returns
        ``None`` when the flow already drained or was already cancelled
        (cancellation is idempotent -- proxy kills race flow drains).
        """
        if flow in self._pending:
            self._pending.remove(flow)
            self.flows_cancelled += 1
            self._schedule_kick()
            return float(flow.remaining)
        try:
            i = self._active.index(flow)
        except ValueError:
            return None
        now = self.sim.now
        dt = now - self._last_t
        if dt > 0.0:
            if self.util_enabled:
                self._accumulate_util(dt)
            self._rem -= dt * self._share
            self._last_t = now
        remaining = max(0.0, float(self._rem[i]))
        flow.remaining = remaining
        del self._active[i]
        keep = np.ones(len(self._rem), dtype=bool)
        keep[i] = False
        self._mask_arrays(keep)
        self.flows_cancelled += 1
        if self._active:
            self._recompute()
        elif self._congested:
            self._clear_congestion()
        self._arm_wake(now)
        return remaining

    def requeue(self, flow: Flow, *,
                finish: Optional[Callable[[Flow, float], None]] = None) -> Flow:
        """Re-admit a cancelled flow's residue as a fresh flow.

        The new flow inherits the old path, cap and tag (and ``finish``
        unless overridden); its work is the cancelled flow's remaining
        port-seconds.  Raises ``ValueError`` when nothing remains -- a
        fully drained flow has no residue to requeue.
        """
        return self.add_flow(
            path=[self._eid_keys[eid] for eid in flow.path],
            work=flow.remaining,
            finish=flow.finish if finish is None else finish,
            cap=flow.cap, tag=flow.tag,
        )

    def flows(self) -> list[Flow]:
        """Snapshot of every in-flight flow (active + this instant's batch)."""
        return self._active + self._pending

    def set_endpoint_capacity(self, key: Any, capacity: float) -> None:
        """Set a link's current capacity (1.0 when healthy, 0.0 flapped).

        Takes effect at the current instant: in-flight progress is
        settled under the old shares, then the fair shares are re-solved
        against the new capacity (the degrade/restore edge).  Values at
        or above 1.0 clear the override -- a link cannot run faster than
        one port, so "restore" is just ``set_endpoint_capacity(key, 1.0)``.

        The setting is symmetric with :meth:`endpoint_capacity` at any
        point in a flow's life: it applies to links referenced only by
        *pending* (not-yet-admitted) flows, or by no flow at all, and
        the queried value does not change when flows are later admitted.
        """
        if capacity < 0.0:
            raise ValueError(f"endpoint capacity must be >= 0, got {capacity!r}")
        eid = self.endpoint(key)
        if capacity >= 1.0:
            self._ep_caps.pop(eid, None)
        else:
            self._ep_caps[eid] = float(capacity)
        self._dirty = True
        self._schedule_kick()

    def endpoint_capacity(self, key: Any) -> float:
        """Current capacity of a link (1.0 unless degraded).

        The exact inverse of :meth:`set_endpoint_capacity`, including
        for links that only pending flows reference and links no flow
        has ever crossed (those report 1.0).
        """
        eid = self._endpoints.get(key)
        if eid is None:
            return 1.0
        return self._ep_caps.get(eid, 1.0)

    def link_utilization(self) -> dict:
        """Integrated busy port-seconds per link since construction.

        Only populated while :attr:`util_enabled` is set (the per-link
        tally at each re-solve is opt-in); divide by elapsed simulated
        time x link capacity for a utilization fraction.
        """
        out = {}
        for eid, key in enumerate(self._eid_keys):
            if eid < self._util.shape[0] and self._util[eid] > 0.0:
                out[key] = float(self._util[eid])
        return out

    def probe(self) -> Iterable[str]:
        """Watchdog lines describing in-flight flows (deadlock reports)."""
        n = self.active_count
        if n == 0:
            return []
        self._sync_flows()
        oldest = min(self._active + self._pending, key=lambda f: f.fid)
        lines = [
            f"flow engine: {n} active flow(s); oldest fid={oldest.fid} "
            f"remaining={oldest.remaining:.3e} port-s rate={oldest.rate:.3f}"
        ]
        if self._ep_caps:
            detail = ", ".join(
                f"{self._eid_keys[eid]}={cap:.2f}"
                for eid, cap in sorted(self._ep_caps.items())
            )
            lines.append(f"flow engine: degraded endpoint(s): {detail}")
        return lines

    # -- internals -------------------------------------------------------
    def _schedule_kick(self) -> None:
        if self._kick_scheduled:
            return
        self._kick_scheduled = True
        self.sim.call_at(self.sim.now, self._on_kick)

    def _on_kick(self, _ev) -> None:
        self._kick_scheduled = False
        self._sync()

    def _on_wake(self, gen: int) -> None:
        if gen != self._wake_gen:
            return  # superseded by a set change since it was scheduled
        self.wakes += 1
        self._sync()

    def _sync(self) -> None:
        """Settle progress to now, finish drained flows, reshare, rearm."""
        now = self.sim.now
        dt = now - self._last_t
        if dt > 0.0 and len(self._active):
            if self.util_enabled:
                self._accumulate_util(dt)
            self._rem -= dt * self._share
        self._last_t = now
        self._finish_due(now)
        if self._pending:
            self._admit_pending()
            self._recompute()
        elif self._dirty and self._active:
            # Endpoint capacity changed under an unchanged flow set
            # (link degrade/restore edge): re-solve the shares.
            self._recompute()
        self._dirty = False
        self._arm_wake(now)

    def _finish_due(self, now: float) -> None:
        act = self._active
        if not act:
            return
        rem = self._rem
        # A flow is drained when its residual work is below its absolute
        # epsilon OR its residual drain time is immeasurably small
        # relative to the clock (absorbs float residue from the
        # predicted-wake subtraction, keeping the wake loop convergent).
        time_eps = 1e-12 * max(now, 1e-9)
        done = (rem <= self._eps) | (rem <= time_eps * self._share)
        if not done.any():
            return
        idx = np.nonzero(done)[0]
        finished = [act[i] for i in idx]  # ascending index == fid order
        keep = ~done
        self._active = [f for f, k in zip(act, keep) if k]
        self._mask_arrays(keep)
        if self._active:
            self._recompute()
        else:
            self.recomputes += 1
            if self._congested:
                self._clear_congestion()
        for f in finished:
            f.remaining = 0.0
            f.t_drain = now
            self.flows_finished += 1
            f.finish(f, now)

    def _mask_arrays(self, keep: np.ndarray) -> None:
        self._rem = self._rem[keep]
        self._share = self._share[keep]
        self._eps = self._eps[keep]
        self._caps = self._caps[keep]
        # Columns only a departed flow used stay, all -1: harmless.
        self._pad = self._pad[keep]

    def _admit_pending(self) -> None:
        """Append this instant's batch to the active set and its arrays."""
        new = self._pending
        k = len(new)
        self._active.extend(new)
        self._pending = []
        self._caps = np.concatenate(
            [self._caps,
             np.fromiter((f.cap for f in new), dtype=np.float64, count=k)]
        )
        self._rem = np.concatenate(
            [self._rem,
             np.fromiter((f.remaining for f in new), dtype=np.float64,
                         count=k)]
        )
        self._eps = np.concatenate(
            [self._eps,
             np.fromiter((1e-9 * f.work + 1e-18 for f in new),
                         dtype=np.float64, count=k)]
        )
        # The incidence grows by this batch's rows (widened first if a
        # longer path arrived).
        pad = self._pad
        width = max(pad.shape[1], max(len(f.path) for f in new))
        block = np.full((k, width), -1, dtype=np.intp)
        for i, f in enumerate(new):
            block[i, : len(f.path)] = f.path
        if width > pad.shape[1]:
            grown = np.full((pad.shape[0], width), -1, dtype=np.intp)
            grown[:, : pad.shape[1]] = pad
            pad = grown
        self._pad = np.concatenate([pad, block])

    def _caps_array(self) -> Optional[np.ndarray]:
        """Effective per-link capacities, or ``None`` for all-ones."""
        if not self._ep_caps:
            return None
        caps = np.ones(len(self._endpoints), dtype=np.float64)
        for eid, c in self._ep_caps.items():
            caps[eid] = c
        return caps

    def _recompute(self) -> None:
        self.recomputes += 1
        link_caps = self._caps_array()
        # Looked up on the module at call time, so a wrapper installed
        # over the public name (bench tracing, the tests' reference
        # oracle) sees every solve.
        self._share = fair_shares_links(
            self._pad, self._caps, len(self._endpoints), link_caps)
        if self.util_enabled or self.on_congestion is not None:
            self._tally_links()
            if self.on_congestion is not None:
                self._watch_congestion(link_caps)

    def _tally_links(self) -> None:
        """Per-link flow counts and occupied shares of this allocation."""
        n_bins = len(self._endpoints) + 1
        # Shifted by one, the -1 padding lands in bin 0, which is dropped.
        flat = (self._pad + 1).ravel()
        self._link_counts = np.bincount(flat, minlength=n_bins)[1:]
        self._link_used = np.bincount(
            flat, weights=self._share.repeat(self._pad.shape[1]),
            minlength=n_bins,
        )[1:]

    def _watch_congestion(self, link_caps: Optional[np.ndarray]) -> None:
        """Fire the congestion hook on links' congested/clear edges.

        A link is *congested* while >= 2 in-flight flows share it and
        their allocated shares sum to (within float slack of) its full
        capacity -- a lone flow saturating its own port is just a busy
        sender, not contention.
        """
        counts = self._link_counts
        caps = 1.0 if link_caps is None else link_caps
        hot = np.nonzero((counts >= 2) & (self._link_used >= caps - 1e-9))[0]
        now_hot = set(hot.tolist())
        hook = self.on_congestion
        for eid in sorted(now_hot - self._congested):
            hook(self._eid_keys[eid], True, int(counts[eid]))
        for eid in sorted(self._congested - now_hot):
            hook(self._eid_keys[eid], False, int(counts[eid]))
        self._congested = now_hot

    def _clear_congestion(self) -> None:
        hook = self.on_congestion
        if hook is not None:
            for eid in sorted(self._congested):
                hook(self._eid_keys[eid], False, 0)
        self._congested = set()

    def _accumulate_util(self, dt: float) -> None:
        """Integrate dt x per-link occupied shares into the util vector."""
        used = self._link_used
        if self._util.shape[0] < used.shape[0]:
            grown = np.zeros(len(self._endpoints), dtype=np.float64)
            grown[: self._util.shape[0]] = self._util
            self._util = grown
        self._util[: used.shape[0]] += dt * used

    def _arm_wake(self, now: float) -> None:
        self._wake_gen += 1
        if not self._active:
            return
        share = self._share
        with np.errstate(divide="ignore", invalid="ignore"):
            horizon = np.where(share > 0.0, self._rem / np.maximum(share, _TINY),
                               np.inf)
        t_next = now + float(horizon.min())
        if not np.isfinite(t_next):
            return  # all shares zero (degenerate caps): nothing will drain
        if t_next <= now:
            # Float residue predicted a drain "now" that _finish_due did
            # not take; nudge forward one representable instant so the
            # wake strictly advances and the residue is absorbed.
            t_next = float(np.nextafter(now, np.inf))
        gen = self._wake_gen
        self.sim.call_at(t_next, lambda _ev: self._on_wake(gen))

    def _sync_flows(self) -> None:
        """Copy authoritative array state back onto the Flow objects."""
        for f, r, s in zip(self._active, self._rem, self._share):
            f.remaining = float(r)
            f.rate = float(s)
