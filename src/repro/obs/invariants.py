"""Trace invariants: what a *correct* run's event stream must look like.

The differential harness (``tests/harness``) checks payload equality
between backends; this module checks the *shape* of the execution
itself, straight off the :class:`~repro.obs.events.EventBus` columns
(its events and its busy spans).  docs/OBSERVABILITY.md states each in
full:

1. **Every post completes** -- each ``req.post`` meets a later
   ``req.complete`` of its ``rid`` (a lost FIN shows up here).
2. **Causality** -- ``xfer`` post <= deliver <= complete per ``xid``
   (which is also "no fabric arrow delivers before it posts"); every
   ``ctrl.post`` is delivered or explicitly dropped.
3. **No host CPU during offloaded group execution** -- a rank's span
   lane is empty between its ``group.offloaded`` and ``group.done``:
   the paper's Fig-1 claim of progress without host involvement.
4. **Group plans are built once** -- no ``build``/``reship`` of a
   signature after a ``cached`` call, unless a fault intervened.
5. **No use after revoke** -- with a :class:`~repro.verbs.mr.KeyTable`
   (armed via ``record_uses``): no WQE under a revoked key, no live key
   over freed memory (the epoch protocol of docs/RESOURCES.md).
6. **Flow windows are opaque DMA** (a fat-tree's bulk flows) -- each
   ``flow.begin`` has a later ``flow.end``, its delivery comes after the
   window, and no host-CPU or control event rides the flow's lane or
   ``fid`` inside.
7. **Flow faults recover** -- a dropped attempt *n* is retried as
   *n+1*; an aborted flow's delivery carries ``status="error"``.

:func:`trace_violations` returns the violations as pointed human
messages; :func:`check_trace` raises :class:`TraceInvariantError`
carrying all of them.  Every check reads the columns it needs through
the bus's per-shape row arrays; an :class:`~repro.obs.events.ObsEvent` is
built only to word a violation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain

import numpy as np

from repro.obs.events import Columns

__all__ = ["TraceInvariantError", "trace_violations", "check_trace"]


class TraceInvariantError(AssertionError):
    """A run's event stream violated one or more trace invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        n = len(self.violations)
        head = f"{n} trace invariant violation{'s' if n != 1 else ''}:"
        super().__init__("\n".join([head] + [f"  - {v}" for v in self.violations]))


def _fmt_t(t: float) -> str:
    return f"{t * 1e6:.3f}us"


def _keyed(c: Columns, cat: str, name: str, key: str) -> dict:
    """``arg value -> row`` over one kind (the last row of a value wins)."""
    rows = c.rows(cat, name)
    return dict(zip(c.column(rows, key), rows))


def _ordered(times: list) -> bool:
    return all(a <= b for a, b in zip(times, times[1:]))


def _check_requests(c: Columns, out: list[str]) -> None:
    posts = _keyed(c, "req", "post", "rid")
    completes = c.rows("req", "complete")
    completed = set()
    for rid, row in zip(c.column(completes, "rid"), completes):
        completed.add(rid)
        post = posts.get(rid)
        if post is not None and c.time[row] < c.time[post]:
            out.append(
                f"request rid={rid} completed at {_fmt_t(c.time[row])} *before* its "
                f"post at {_fmt_t(c.time[post])} -- completion/post causality broken"
            )
    for rid, row in posts.items():
        if rid not in completed:
            post = c.event(row)
            kind = post.arg("kind", "?")
            peer = post.arg("peer", "?")
            out.append(
                f"request rid={rid} ({kind} {post.entity}<->rank{peer}, "
                f"tag={post.arg('tag', '?')}, {post.arg('size', '?')}B) posted at "
                f"{_fmt_t(post.time)} never completed -- its FIN/completion was "
                f"lost and no recovery path fired"
            )


def _check_transfers(c: Columns, out: list[str]) -> None:
    delivers = _keyed(c, "xfer", "deliver", "xid")
    completes = _keyed(c, "xfer", "complete", "xid")
    time = c.time
    for xid, row in _keyed(c, "xfer", "post", "xid").items():
        dv = delivers.get(xid)
        if dv is None:
            post = c.event(row)
            out.append(
                f"transfer xid={xid} ({post.arg('kind')}, {post.arg('size')}B from "
                f"{post.entity}) posted at {_fmt_t(post.time)} was never delivered "
                f"-- the simulation ended with bytes in flight"
            )
            continue
        if time[dv] < time[row]:
            out.append(
                f"transfer xid={xid} delivered at {_fmt_t(time[dv])} before its "
                f"post at {_fmt_t(time[row])}"
            )
        cq = completes.get(xid)
        if cq is not None and time[cq] < time[dv]:
            out.append(
                f"transfer xid={xid} completion CQE at {_fmt_t(time[cq])} precedes "
                f"its delivery at {_fmt_t(time[dv])}"
            )


def _check_control(c: Columns, out: list[str]) -> None:
    delivered = _keyed(c, "ctrl", "deliver", "cid")
    dropped = set(c.column(c.rows("ctrl", "drop"), "cid"))
    posts = c.rows("ctrl", "post")
    for cid, row in zip(c.column(posts, "cid"), posts):
        dv = delivered.get(cid)
        if dv is None:
            if cid not in dropped:
                post = c.event(row)
                out.append(
                    f"control message cid={cid} ({post.arg('kind')} from "
                    f"{post.entity}) posted at {_fmt_t(post.time)} neither "
                    f"delivered nor recorded as dropped"
                )
        elif c.time[dv] < c.time[row]:
            out.append(
                f"control message cid={cid} ({c.arg(row, 'kind')}) delivered at "
                f"{_fmt_t(c.time[dv])} before its post at {_fmt_t(c.time[row])}"
            )


def _check_offload_windows(c: Columns, out: list[str], eps: float) -> None:
    """Host lanes must stay idle while their group executes on the DPU."""
    dones: dict[tuple, int] = {}
    done_rows = c.rows("group", "done")
    for lane, call, row in zip(map(c.entity.__getitem__, done_rows),
                               c.column(done_rows, "call"), done_rows):
        dones.setdefault((lane, call), row)
    starts = c.rows("group", "offloaded")
    spans = c.span_lanes() if starts else {}
    ordered: dict[int, bool] = {}
    for lane, call, row in zip(map(c.entity.__getitem__, starts),
                               c.column(starts, "call"), starts):
        end = dones.get((lane, call))
        entity, t_start = c.entities[lane], c.time[row]
        if end is None:
            out.append(
                f"{entity} offloaded group call={call} at "
                f"{_fmt_t(t_start)} but no group.done ever followed"
            )
            continue
        lo_s, hi_s = spans.get(lane, ((), ()))
        if lane not in ordered:
            ordered[lane] = _ordered(lo_s) and _ordered(hi_s)
        w_lo = t_start + eps
        w_hi = c.time[end] - eps
        first, last = 0, len(lo_s)
        if ordered[lane]:
            # Only spans ending after the window opens and starting
            # before it closes can overlap it: one run of the lane.
            first, last = bisect_right(hi_s, w_lo), bisect_left(lo_s, w_hi)
        for i in range(first, last):
            lo = max(lo_s[i], w_lo)
            hi = min(hi_s[i], w_hi)
            if hi > lo:
                out.append(
                    f"{entity} burned {_fmt_t(hi - lo)} of CPU inside the "
                    f"offloaded window of group call={call} "
                    f"({_fmt_t(t_start)}..{_fmt_t(c.time[end])}) -- offloaded "
                    f"groups must progress without host involvement"
                )
                break


def _check_flow_windows(c: Columns, out: list[str]) -> None:
    """Fluid bulk windows must be opaque: no CPU/control events inside."""
    begins = _keyed(c, "flow", "begin", "fid")
    ends = _keyed(c, "flow", "end", "fid")
    if not begins and not ends:
        return
    time = c.time
    for fid, end in ends.items():
        if fid not in begins:
            out.append(
                f"flow fid={fid} ended at {_fmt_t(time[end])} without ever "
                f"beginning -- the flow engine finished a flow it never admitted"
            )
    delivers = _keyed(c, "xfer", "deliver", "xid")
    for fid, row in begins.items():
        end = ends.get(fid)
        begin = c.event(row)
        if end is None:
            out.append(
                f"flow fid={fid} ({begin.arg('kind')}, {begin.arg('size')}B "
                f"node{begin.arg('src')}->node{begin.arg('dst')}) began at "
                f"{_fmt_t(begin.time)} but never ended -- its finisher was lost"
            )
            continue
        # ``seq`` is the row number plus a constant: rows order ties.
        if (time[end], end) < (time[row], row):
            out.append(
                f"flow fid={fid} ended at {_fmt_t(time[end])} before it began "
                f"at {_fmt_t(begin.time)}"
            )
        dv = delivers.get(begin.arg("xid"))
        if dv is not None and (time[dv], dv) < (time[end], end):
            out.append(
                f"flow fid={fid}'s delivery (xid={begin.arg('xid')}) fired at "
                f"{_fmt_t(time[dv])}, inside its bulk window "
                f"({_fmt_t(begin.time)}..{_fmt_t(time[end])}) -- the protocol "
                f"tail must start only after the flow drains"
            )
    # Inside any open window, the flow's lane and its fid must stay
    # silent: a flow is a pure DMA, so host-CPU ("proc") or control
    # ("ctrl") events attributed to it mean event-exact work leaked into
    # the coarse model.  Shape and lane codes pick the candidate rows
    # before any row is read: a watched category and either a ``fid``
    # argument or a ``flow<fid>`` lane.
    watched = [code for code, sh in enumerate(c.shapes)
               if sh.cat in ("proc", "ctrl", "wqe", "req", "group")]
    with_fid = [code for code in watched if "fid" in c.shapes[code].keys]
    flow_lane = {code: int(name[4:]) for code, name in enumerate(c.entities)
                 if name.startswith("flow") and name[4:].isdigit()}
    shape = np.frombuffer(c.shape, c.shape.typecode)
    lane = np.frombuffer(c.entity, c.entity.typecode)
    candidates = np.flatnonzero(
        np.isin(shape, with_fid)
        | (np.isin(shape, watched) & np.isin(lane, list(flow_lane)))).tolist()
    for row in candidates:
        fids = set()
        if c.entity[row] in flow_lane:
            fids.add(flow_lane[c.entity[row]])
        fid_arg = c.arg(row, "fid")
        if fid_arg is not None:
            fids.add(fid_arg)
        for fid in fids:
            begin = begins.get(fid)
            if begin is None or row < begin:
                continue
            end = ends.get(fid)
            if end is not None and row > end:
                continue
            ev = c.event(row)
            out.append(
                f"{ev.cat}.{ev.name} ({ev.entity}) at {_fmt_t(ev.time)} "
                f"occurred inside flow fid={fid}'s bulk window -- no "
                f"host-CPU or control event may ride a fluid flow"
            )


def _check_flow_faults(c: Columns, out: list[str]) -> None:
    """Dropped flows must retransmit; aborted flows must error out."""
    faults = c.rows("flow", "fault")
    if not faults:
        return
    time = c.time
    # Latest retry per (xid, attempt): a fault is recovered iff one is
    # no earlier than the fault itself.
    last_retry: dict[tuple, tuple] = {}
    retries = c.rows("flow", "retry")
    for key, r in zip(zip(c.column(retries, "xid"), c.column(retries, "attempt")),
                      retries):
        last_retry[key] = max(last_retry.get(key, (time[r], r)), (time[r], r))
    delivers = _keyed(c, "xfer", "deliver", "xid")
    for row in faults:
        f = c.event(row)
        xid = f.arg("xid")
        action = f.arg("action")
        if action == "drop":
            attempt = f.arg("attempt")
            retried = last_retry.get((xid, attempt + 1))
            if retried is None or retried < (f.time, row):
                out.append(
                    f"flow fid={f.arg('fid')} (xid={xid}) dropped at "
                    f"{_fmt_t(f.time)} on attempt {attempt} but no retry at "
                    f"attempt {attempt + 1} ever followed -- the lost "
                    f"remainder was never retransmitted"
                )
        elif action == "abort":
            dv = delivers.get(xid)
            if dv is None or c.arg(dv, "status") != "error" \
                    or (time[dv], dv) < (f.time, row):
                out.append(
                    f"flow fid={f.arg('fid')} (xid={xid}) aborted at "
                    f"{_fmt_t(f.time)} but no status=\"error\" delivery "
                    f"followed -- the flush error never surfaced to its "
                    f"consumer"
                )


def _check_plan_cache(c: Columns, out: list[str], allow_replay_after_fault: bool) -> None:
    time = c.time
    fault_times = sorted(time[r] for r in chain(c.rows("fault"), c.rows("proxy", "kill")))
    cached_at: dict[tuple, float] = {}
    calls = c.rows("group", "call")
    for lane, sig, mode, row in zip(map(c.entity.__getitem__, calls),
                                    c.column(calls, "sig"), c.column(calls, "mode"),
                                    calls):
        key = (lane, sig)
        if mode == "cached":
            cached_at.setdefault(key, time[row])
        elif mode in ("build", "reship") and key in cached_at:
            if allow_replay_after_fault:
                # First fault at or after the cache hit: is it before this call?
                i = bisect_left(fault_times, cached_at[key])
                if i < len(fault_times) and fault_times[i] <= time[row]:
                    continue
            out.append(
                f"{c.entities[lane]} re-{mode.rstrip('e')}ed group plan sig={sig} "
                f"at {_fmt_t(time[row])} after it was already served from cache at "
                f"{_fmt_t(cached_at[key])} -- plan-cache hits must stay monotone"
            )


def _check_keytable(keys, out: list[str]) -> None:
    """No key used at/after its revocation; no live key over freed memory."""
    for info in keys.live_infos():
        if not info.owner.space.contains(info.addr, info.size):
            out.append(
                f"live {info.kind} key {info.key:#x} covers "
                f"[{info.addr:#x},+{info.size}) of {info.owner.trace_name} "
                f"but that memory was freed -- the key was never revoked"
            )
    log = keys.use_log
    if not log:
        return
    # Scan in emission order (immune to same-timestamp ties): any use of
    # a key after its revoke entry is a stale access that went unchecked.
    revoked_at: dict[int, float] = {}
    for what, t, key, kind in log:
        if what == "revoke":
            revoked_at.setdefault(key, t)
        elif key in revoked_at:
            out.append(
                f"a WQE was posted under {kind} key {key:#x} at {_fmt_t(t)}, "
                f"after its revocation at {_fmt_t(revoked_at[key])} -- "
                f"stale-key detection must reject revoked registrations"
            )


def trace_violations(bus, *, keys=None, check_overlap: bool = True,
                     allow_replay_after_fault: bool = True,
                     eps: float = 1e-12) -> list[str]:
    """All invariant violations in ``bus``'s events and spans, as messages."""
    c = bus.columns
    out: list[str] = []
    _check_requests(c, out)
    _check_transfers(c, out)
    _check_control(c, out)
    _check_flow_windows(c, out)
    _check_flow_faults(c, out)
    _check_plan_cache(c, out, allow_replay_after_fault)
    if keys is not None:
        _check_keytable(keys, out)
    if check_overlap:
        _check_offload_windows(c, out, eps)
    return out


def check_trace(bus, *, keys=None, check_overlap: bool = True,
                allow_replay_after_fault: bool = True,
                eps: float = 1e-12) -> None:
    """Raise :class:`TraceInvariantError` if any invariant is violated."""
    violations = trace_violations(
        bus,
        keys=keys,
        check_overlap=check_overlap,
        allow_replay_after_fault=allow_replay_after_fault,
        eps=eps,
    )
    if violations:
        raise TraceInvariantError(violations)
