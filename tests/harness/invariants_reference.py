"""Reference trace-invariant checker: the oracle for ``repro.obs.invariants``.

The check functions below are the pre-index implementation of
``repro.obs.invariants`` (PR 13's tree), kept verbatim: every kind is
fetched by filtering ``bus.events`` (a stream scan, not
``EventBus.select``, so the oracle does not depend on the bus index it
is used to check), request/fault lookups are linear ``any``/``next``
searches and the offloaded-window check visits every tracer span per
window.  Slow and obviously right;
``tests/harness/test_invariants_differential.py`` requires the
production checker to return the *same list in the same order* on
clean, broken and mutated streams.

The spans and arrows it reads came from a separate recorder that the bus
has since absorbed; :func:`violations_of` rebuilds the spans from the
bus (``chrome_trace_reference.Recorded``) and runs the verbatim checker.
It passes no arrows: an arrow is now the ``xfer.post`` / ``xfer.deliver``
pair ``_check_transfers`` already reads, and the production checker no
longer reports the same fault twice.
"""

from __future__ import annotations

from repro.verbs.mr import key_kind
from tests.harness.chrome_trace_reference import Recorded


class _ScanBus:
    """Read-only view answering ``select`` by a full stream scan."""

    def __init__(self, bus):
        self.events = bus.events

    def select(self, cat=None, name=None):
        return [ev for ev in self.events
                if (cat is None or ev.cat == cat)
                and (name is None or ev.name == name)]


def _fmt_t(t: float) -> str:
    return f"{t * 1e6:.3f}us"


def _check_requests(bus, out: list[str]) -> None:
    posts = {}
    for ev in bus.select(cat="req", name="post"):
        posts[ev.arg("rid")] = ev
    completed = set()
    for ev in bus.select(cat="req", name="complete"):
        rid = ev.arg("rid")
        completed.add(rid)
        post = posts.get(rid)
        if post is not None and ev.time < post.time:
            out.append(
                f"request rid={rid} completed at {_fmt_t(ev.time)} *before* its "
                f"post at {_fmt_t(post.time)} -- completion/post causality broken"
            )
    for rid, post in posts.items():
        if rid not in completed:
            kind = post.arg("kind", "?")
            peer = post.arg("peer", "?")
            out.append(
                f"request rid={rid} ({kind} {post.entity}<->rank{peer}, "
                f"tag={post.arg('tag', '?')}, {post.arg('size', '?')}B) posted at "
                f"{_fmt_t(post.time)} never completed -- its FIN/completion was "
                f"lost and no recovery path fired"
            )


def _check_transfers(bus, out: list[str]) -> None:
    posts = {ev.arg("xid"): ev for ev in bus.select(cat="xfer", name="post")}
    delivers = {ev.arg("xid"): ev for ev in bus.select(cat="xfer", name="deliver")}
    completes = {ev.arg("xid"): ev for ev in bus.select(cat="xfer", name="complete")}
    for xid, post in posts.items():
        dv = delivers.get(xid)
        if dv is None:
            out.append(
                f"transfer xid={xid} ({post.arg('kind')}, {post.arg('size')}B from "
                f"{post.entity}) posted at {_fmt_t(post.time)} was never delivered "
                f"-- the simulation ended with bytes in flight"
            )
            continue
        if dv.time < post.time:
            out.append(
                f"transfer xid={xid} delivered at {_fmt_t(dv.time)} before its "
                f"post at {_fmt_t(post.time)}"
            )
        cq = completes.get(xid)
        if cq is not None and cq.time < dv.time:
            out.append(
                f"transfer xid={xid} completion CQE at {_fmt_t(cq.time)} precedes "
                f"its delivery at {_fmt_t(dv.time)}"
            )


def _check_control(bus, out: list[str]) -> None:
    delivered = {}
    dropped = set()
    for ev in bus.select(cat="ctrl", name="deliver"):
        delivered[ev.arg("cid")] = ev
    for ev in bus.select(cat="ctrl", name="drop"):
        dropped.add(ev.arg("cid"))
    for post in bus.select(cat="ctrl", name="post"):
        cid = post.arg("cid")
        dv = delivered.get(cid)
        if dv is None:
            if cid not in dropped:
                out.append(
                    f"control message cid={cid} ({post.arg('kind')} from "
                    f"{post.entity}) posted at {_fmt_t(post.time)} neither "
                    f"delivered nor recorded as dropped"
                )
        elif dv.time < post.time:
            out.append(
                f"control message cid={cid} ({post.arg('kind')}) delivered at "
                f"{_fmt_t(dv.time)} before its post at {_fmt_t(post.time)}"
            )


def _check_arrows(tracer, out: list[str]) -> None:
    for a in tracer.arrows:
        if a.delivered < a.posted:
            out.append(
                f"arrow {a.src}->{a.dst} ({a.kind}, {a.size}B) delivered at "
                f"{_fmt_t(a.delivered)} before it was posted at {_fmt_t(a.posted)}"
            )


def _check_offload_windows(bus, tracer, out: list[str], eps: float) -> None:
    """Host lanes must stay idle while their group executes on the DPU."""
    dones = bus.select(cat="group", name="done")
    for start in bus.select(cat="group", name="offloaded"):
        call = start.arg("call")
        end = next(
            (d for d in dones
             if d.entity == start.entity and d.arg("call") == call),
            None,
        )
        if end is None:
            out.append(
                f"{start.entity} offloaded group call={call} at "
                f"{_fmt_t(start.time)} but no group.done ever followed"
            )
            continue
        for s in tracer.spans:
            if s.entity != start.entity:
                continue
            lo = max(s.start, start.time + eps)
            hi = min(s.end, end.time - eps)
            if hi > lo:
                out.append(
                    f"{start.entity} burned {_fmt_t(hi - lo)} of CPU inside the "
                    f"offloaded window of group call={call} "
                    f"({_fmt_t(start.time)}..{_fmt_t(end.time)}) -- offloaded "
                    f"groups must progress without host involvement"
                )
                break


def _check_flow_windows(bus, out: list[str]) -> None:
    """Fluid bulk windows must be opaque: no CPU/control events inside."""
    begins = {ev.arg("fid"): ev for ev in bus.select(cat="flow", name="begin")}
    ends = {ev.arg("fid"): ev for ev in bus.select(cat="flow", name="end")}
    if not begins and not ends:
        return
    for fid, end in ends.items():
        if fid not in begins:
            out.append(
                f"flow fid={fid} ended at {_fmt_t(end.time)} without ever "
                f"beginning -- the flow engine finished a flow it never admitted"
            )
    delivers = {ev.arg("xid"): ev for ev in bus.select(cat="xfer", name="deliver")}
    for fid, begin in begins.items():
        end = ends.get(fid)
        if end is None:
            out.append(
                f"flow fid={fid} ({begin.arg('kind')}, {begin.arg('size')}B "
                f"node{begin.arg('src')}->node{begin.arg('dst')}) began at "
                f"{_fmt_t(begin.time)} but never ended -- its finisher was lost"
            )
            continue
        if (end.time, end.seq) < (begin.time, begin.seq):
            out.append(
                f"flow fid={fid} ended at {_fmt_t(end.time)} before it began "
                f"at {_fmt_t(begin.time)}"
            )
        dv = delivers.get(begin.arg("xid"))
        if dv is not None and (dv.time, dv.seq) < (end.time, end.seq):
            out.append(
                f"flow fid={fid}'s delivery (xid={begin.arg('xid')}) fired at "
                f"{_fmt_t(dv.time)}, inside its bulk window "
                f"({_fmt_t(begin.time)}..{_fmt_t(end.time)}) -- the protocol "
                f"tail must start only after the flow drains"
            )
    # Inside any open window, the flow's lane and its fid must stay
    # silent: a flow is a pure DMA, so host-CPU ("proc") or control
    # ("ctrl") events attributed to it mean event-exact work leaked into
    # the coarse model.
    for ev in bus.events:
        if ev.cat == "flow":
            continue
        fids = set()
        if ev.entity.startswith("flow"):
            suffix = ev.entity[4:]
            if suffix.isdigit():
                fids.add(int(suffix))
        fid_arg = ev.arg("fid")
        if fid_arg is not None:
            fids.add(fid_arg)
        for fid in fids:
            begin = begins.get(fid)
            if begin is None or ev.seq < begin.seq:
                continue
            end = ends.get(fid)
            if end is not None and ev.seq > end.seq:
                continue
            if ev.cat in ("proc", "ctrl", "wqe", "req", "group"):
                out.append(
                    f"{ev.cat}.{ev.name} ({ev.entity}) at {_fmt_t(ev.time)} "
                    f"occurred inside flow fid={fid}'s bulk window -- no "
                    f"host-CPU or control event may ride a fluid flow"
                )


def _check_flow_faults(bus, out: list[str]) -> None:
    """Dropped flows must retransmit; aborted flows must error out."""
    faults = bus.select(cat="flow", name="fault")
    if not faults:
        return
    retries = bus.select(cat="flow", name="retry")
    delivers = {ev.arg("xid"): ev for ev in bus.select(cat="xfer", name="deliver")}
    for f in faults:
        xid = f.arg("xid")
        action = f.arg("action")
        if action == "drop":
            attempt = f.arg("attempt")
            if not any(
                r.arg("xid") == xid and r.arg("attempt") == attempt + 1
                and (r.time, r.seq) >= (f.time, f.seq)
                for r in retries
            ):
                out.append(
                    f"flow fid={f.arg('fid')} (xid={xid}) dropped at "
                    f"{_fmt_t(f.time)} on attempt {attempt} but no retry at "
                    f"attempt {attempt + 1} ever followed -- the lost "
                    f"remainder was never retransmitted"
                )
        elif action == "abort":
            dv = delivers.get(xid)
            if dv is None or dv.arg("status") != "error" \
                    or (dv.time, dv.seq) < (f.time, f.seq):
                out.append(
                    f"flow fid={f.arg('fid')} (xid={xid}) aborted at "
                    f"{_fmt_t(f.time)} but no status=\"error\" delivery "
                    f"followed -- the flush error never surfaced to its "
                    f"consumer"
                )


def _check_plan_cache(bus, out: list[str], allow_replay_after_fault: bool) -> None:
    fault_times = [ev.time for ev in bus.select(cat="fault")]
    fault_times += [ev.time for ev in bus.select(cat="proxy", name="kill")]
    cached_at: dict[tuple, float] = {}
    for ev in bus.select(cat="group", name="call"):
        key = (ev.entity, ev.arg("sig"))
        mode = ev.arg("mode")
        if mode == "cached":
            cached_at.setdefault(key, ev.time)
        elif mode in ("build", "reship") and key in cached_at:
            if allow_replay_after_fault and any(
                cached_at[key] <= t <= ev.time for t in fault_times
            ):
                continue
            out.append(
                f"{ev.entity} re-{mode.rstrip('e')}ed group plan sig={ev.arg('sig')} "
                f"at {_fmt_t(ev.time)} after it was already served from cache at "
                f"{_fmt_t(cached_at[key])} -- plan-cache hits must stay monotone"
            )


def _check_keytable(keys, out: list[str]) -> None:
    """No key used at/after its revocation; no live key over freed memory."""
    for key, info in keys.live_keys():
        if not info.owner.space.contains(info.addr, info.size):
            out.append(
                f"live {key_kind(info, key)} key {key:#x} covers "
                f"[{info.addr:#x},+{info.size}) of {info.owner.trace_name} "
                f"but that memory was freed -- the key was never revoked"
            )
    log = keys.use_log
    if not log:
        return
    # Scan in emission order (immune to same-timestamp ties): any use of
    # a key after its revoke entry is a stale access that went unchecked.
    revoked_at: dict[int, float] = {}
    for what, t, key, info in log:
        if what == "revoke":
            revoked_at.setdefault(key, t)
        elif key in revoked_at:
            out.append(
                f"a WQE was posted under {key_kind(info, key)} key {key:#x} at {_fmt_t(t)}, "
                f"after its revocation at {_fmt_t(revoked_at[key])} -- "
                f"stale-key detection must reject revoked registrations"
            )


def trace_violations(bus, tracer=None, *, keys=None, check_overlap: bool = True,
                     allow_replay_after_fault: bool = True,
                     eps: float = 1e-12) -> list[str]:
    """All invariant violations in ``bus`` (and ``tracer``), as messages."""
    out: list[str] = []
    bus = _ScanBus(bus)
    _check_requests(bus, out)
    _check_transfers(bus, out)
    _check_control(bus, out)
    _check_flow_windows(bus, out)
    _check_flow_faults(bus, out)
    _check_plan_cache(bus, out, allow_replay_after_fault)
    if keys is not None:
        _check_keytable(keys, out)
    if tracer is not None:
        _check_arrows(tracer, out)
        if check_overlap:
            _check_offload_windows(bus, tracer, out, eps)
    return out


def violations_of(bus, **kw) -> list[str]:
    """:func:`trace_violations` of ``bus`` with its :class:`Recorded`
    spans (and no arrows)."""
    recorded = Recorded(bus)
    recorded.arrows = []
    return trace_violations(bus, recorded, **kw)
