"""Recovery as a policy layer over the offload protocol.

``api.py``, ``proxy.py`` and ``group_exec.py`` are the paper's protocol
plus its *loud failures*: a lost message hangs, a stale key or an
exhausted staging pool raises.  Everything that turns those into a
slower-but-correct run lives here and nowhere else (docs/FAULTS.md
"Recovery machinery", docs/RESOURCES.md stale keys / OOM).

``OffloadFramework`` installs a :class:`ProxyRecovery` on every engine
and an :class:`EndpointRecovery` on every endpoint iff it has a
:class:`~repro.hw.faults.RetryPolicy`; otherwise their ``recovery``
stays None and none of the tables, timers or processes below exist.
Recovery *calls* the protocol's prepare / ship / post methods, it never
restates them: a retransmit is the saved control message (or
``_ship_plan``) again, a stale rebuild is forget + ``_build_plan`` +
``_ship_plan``, a re-post is ``_post_*`` with the next attempt number.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.hw.faults import RetryPolicy
from repro.offload.requests import (
    OffloadError,
    OffloadGroupRequest,
    OffloadRequest,
)
from repro.verbs.rdma import post_control, rdma_read, verbs_state

if TYPE_CHECKING:  # pragma: no cover
    from repro.offload.api import OffloadEndpoint, OffloadFramework
    from repro.offload.proxy import ProxyEngine
    from repro.sim import Event

__all__ = ["EndpointRecovery", "ProxyRecovery", "arm_kills", "check_kills"]

#: Unique ids stamped on group receive descriptors so the receiving
#: endpoint can discard fault-injected duplicates/replays.
_desc_ids = itertools.count(1)


def _emit(ctx, cat: str, name: str, **args) -> None:
    bus = ctx.cluster.bus
    if bus is not None:
        bus.emit(cat, name, ctx.trace_name, **args)


class _ProcessOwner:
    """A recovery policy's own processes (``self.live``), held until each
    ends so an end of life can close them where they are parked."""

    def spawn(self, generator) -> None:
        proc = self.sim.process(generator)
        self.live.add(proc)
        proc.callbacks.append(self.live.discard)

    def close(self) -> None:
        """End of life: close every process still running."""
        for proc in self.live:
            proc.close()
        self.live.clear()


# ---------------------------------------------------------------------------
# scheduled proxy kills
# ---------------------------------------------------------------------------

def check_kills(plan, n_proxies: int) -> None:
    """Reject a ProxyKillPlan that cannot be armed, before anything starts."""
    for kill in plan.kills:
        if (not 0 <= kill.proxy_gid < n_proxies or kill.at < 0
                or (kill.restart_after is not None and kill.restart_after < 0)):
            raise OffloadError(
                f"{kill!r} cannot be armed: the cluster has {n_proxies} "
                f"proxies (gids 0..{n_proxies - 1}), and 'at' / "
                f"'restart_after' must be >= 0"
            )


def arm_kills(framework: "OffloadFramework") -> None:
    """One simulation process per scheduled ProxyKillPlan, held by the
    recovery of the proxy it kills."""
    for kill in framework.fault_plan.kills:
        recovery = framework.proxy_engine(framework.cluster.proxies[kill.proxy_gid]).recovery
        recovery.spawn(_execute_kill(framework.fault_plan, recovery, kill))


def _execute_kill(plan, recovery: "ProxyRecovery", kill):
    sim = recovery.sim
    yield sim.timeout(max(0.0, kill.at - sim.now))
    plan.stats["kills"] += 1
    plan.record("kill", f"proxy{kill.proxy_gid}")
    recovery.kill()
    if kill.restart_after is not None:
        yield sim.timeout(kill.restart_after)
        plan.stats["restarts"] += 1
        plan.record("restart", f"proxy{kill.proxy_gid}")
        recovery.restart()


# ---------------------------------------------------------------------------
# host side
# ---------------------------------------------------------------------------

class EndpointRecovery(_ProcessOwner):
    """The recovery policy of one :class:`OffloadEndpoint`: bounded
    waits that retransmit, the host-driven fallback rendezvous, and the
    answers to proxy NACKs (re-register, rebuild, fall back)."""

    def __init__(self, endpoint: "OffloadEndpoint", policy: RetryPolicy):
        self.ep = endpoint
        self.policy = policy
        self.sim = endpoint.sim
        self.metrics = endpoint.ctx.cluster.metrics
        #: Fallback offers (fb_rts) not yet matched to a local receive.
        self._fb_rts: list[dict] = []
        #: src_req ids already served by a fallback pull (idempotent
        #: fb_fin resend on duplicate offers).
        self._fb_served: dict[int, int] = {}
        #: desc_ids of group descriptors already applied (dup discard).
        self._gdesc_seen: set[int] = set()
        #: Descriptors I sent, keyed (sender rank, tag), replayed on a
        #: gdesc_req when the original was lost.
        self._gdesc_sent: dict[tuple[int, int], list[dict]] = {}
        #: NACK handler processes still running.
        self.live: set = set()
        endpoint.recovery = self
        endpoint.extra_handlers.update(
            gdesc_req=self._on_gdesc_req, plan_nack=self._on_plan_nack, fb_rts=self._on_fb_rts)

    def put(self, item) -> None:
        """Inbox adapter: the proxy's ``stale_nack`` / ``oom_nack`` land here.

        Each arrival spawns an independent handler process, so recovery
        makes progress even while the application computes or has not
        reached its ``Wait`` -- draining the shared endpoint inbox from a
        bare ``wait`` would change clean-run timing, which the golden
        traces forbid.
        """
        kind, info = item
        self.spawn(self._on_nack(kind, info))

    def _post_peer(self, rank: int, kind: str, payload: dict):
        """A host-to-host control message into ``rank``'s endpoint inbox."""
        peer_ep = self.ep.framework.endpoint(rank)
        yield from post_control(self.ep.ctx, peer_ep.ctx, (kind, payload),
                                inbox=peer_ep.inbox, kind=kind)

    # -- the bounded waits ------------------------------------------------
    def await_completion(self, req) -> None:
        """``Wait`` as the recovery driver: retransmit the request's
        control message with exponential backoff, serve fallback offers
        from peers, and -- past the liveness deadline -- degrade a basic
        operation to the host-driven path."""
        pol = self.policy
        start = self.sim.now
        timeout = pol.timeout
        attempts = 0
        while not req.complete:
            yield self.sim.any_of([req.event, self.sim.timeout(timeout)])
            if req.complete:
                break
            yield from self.ep._drain_inbox()
            yield from self._try_fb_matches()
            if req.complete:
                break
            attempts += 1
            if attempts > pol.max_attempts:
                raise OffloadError(
                    f"rank {self.ep.rank}: request {req.req_id} still incomplete "
                    f"after {pol.max_attempts} retransmits"
                )
            if (
                isinstance(req, OffloadRequest)
                and not req.fallback
                and self.sim.now - start >= pol.fallback_after
            ):
                yield from self._engage_fallback(req)
            else:
                yield from self._retransmit(req)
            timeout = pol.next_timeout(timeout)
        if attempts:
            # Recovery latency: how long a request that needed at least
            # one retransmit/fallback took from the first wait to its
            # completion.  The soak harness's SLO report (p50/p95/p99)
            # is built from this histogram; clean waits (attempts == 0)
            # record nothing, so fault-free runs are unchanged.
            self.metrics.observe("offload.recovery_latency", self.sim.now - start)

    def admission_stall(self, events: list, limit: int, timeout):
        """One stall of a full admission window, as a mini recovery
        driver: drain the inbox, serve fallback offers, and nudge the
        oldest request with a retransmit when nothing completed.
        Returns the timeout for the next stall (``None`` in = first)."""
        ep = self.ep
        if timeout is None:
            timeout = self.policy.timeout
        yield self.sim.any_of(events + [self.sim.timeout(timeout)])
        yield from ep._drain_inbox()
        yield from self._try_fb_matches()
        if len(ep._pending) >= limit and not any(e.processed for e in events):
            oldest = next(iter(ep._pending.values()))
            if not oldest.complete:
                yield from self._retransmit(oldest)
            timeout = self.policy.next_timeout(timeout)
        return timeout

    def await_descriptor(self, key: tuple[int, int]) -> None:
        """One bounded wait for a descriptor; nudges the peer on timeout.

        The gdesc may have been dropped in flight, so the get races a
        timeout; on expiry a ``gdesc_req`` asks the receiving endpoint to
        replay everything it recorded for me under this (rank, tag).
        """
        ep = self.ep
        timeout = self.policy.timeout
        while not ep._recv_descs.get(key):
            get_ev = ep.inbox.get()
            yield self.sim.any_of([get_ev, self.sim.timeout(timeout)])
            if get_ev.triggered:
                yield from ep._handle_inbox_item(get_ev.value)
                return
            ep.inbox.cancel(get_ev)
            self.metrics.add("offload.gdesc_reqs")
            yield from self._post_peer(key[0], "gdesc_req", {"src": ep.rank, "tag": key[1]})
            timeout = self.policy.next_timeout(timeout)

    # -- idempotent receive -----------------------------------------------
    def duplicate_completion(self) -> None:
        """A FIN for a request no longer pending: a retransmit-triggered
        resend, or a revived proxy finishing work the fallback path
        already completed.  Benign under recovery -- count and drop."""
        self.metrics.add("offload.dup_completions")

    def stale_fin(self, req_id: int, call_no: int) -> bool:
        """True for the FIN of an earlier call of a re-used group request
        (a retransmit raced the next call): the live call has its own
        FIN coming, so this one must not complete it."""
        req = self.ep._pending.get(req_id)
        if req is None or getattr(req, "calls", call_no) == call_no:
            return False
        self.metrics.add("offload.stale_fins_dropped")
        return True

    def stamp_descriptor(self, desc: dict) -> None:
        """Stamp an outgoing gdesc for receiver-side dedupe and keep it
        for replay should the sender ask (gdesc_req) after a loss."""
        desc["desc_id"] = next(_desc_ids)
        self._gdesc_sent.setdefault((desc["src"], desc["tag"]), []).append(desc)

    def duplicate_descriptor(self, desc: dict) -> bool:
        if desc["desc_id"] in self._gdesc_seen:
            self.metrics.add("offload.dup_gdesc_dropped")
            return True
        self._gdesc_seen.add(desc["desc_id"])
        return False

    # -- retransmit ---------------------------------------------------------
    def _retransmit(self, req) -> None:
        ep = self.ep
        self.metrics.add("offload.retransmits")
        _emit(self.ep.ctx, "req", "retransmit", rid=req.req_id)
        if isinstance(req, OffloadGroupRequest):
            if req.resend_plan is None:  # pragma: no cover - defensive
                raise OffloadError("group retransmit without a saved plan")
            if req.needs_rebuild:
                yield from self._rebuild_group(req)
            else:
                yield from ep._ship_plan(req, req.resend_plan)
        elif req.fallback and req.kind == "send":
            # The offer itself may have been lost: repeat it.
            yield from self._send_fb_rts(req)
        else:
            proxy, msg = req.resend
            yield from post_control(ep.ctx, proxy, msg, kind=msg[0])

    def _rebuild_group(self, greq: OffloadGroupRequest) -> None:
        """Stale-plan recovery: rebuild from scratch and ship the result.

        The proxy faulted on a revoked key inside the plan, so the saved
        entries are poison -- re-shipping them would fault again.  A
        full rebuild runs the registrations back through the (since-
        invalidated) caches and redoes the descriptor exchange; the
        ``desc_id`` dedupe set is cleared first so peers' replayed
        descriptors are accepted afresh.
        """
        greq.needs_rebuild = False
        self.metrics.add("offload.group_rebuilds")
        _emit(self.ep.ctx, "group", "rebuild", call=greq.req_id)
        self._gdesc_seen.clear()
        greq.resend_plan = yield from self.ep._build_plan(greq)
        yield from self.ep._ship_plan(greq, greq.resend_plan)

    # -- inbox kinds only recovery sends --------------------------------------
    def _on_gdesc_req(self, ep, info: dict):
        """A sender never saw one of my descriptors: replay everything
        recorded for it (desc_id dedupe on its side keeps this
        idempotent)."""
        for desc in self._gdesc_sent.get((info["src"], info["tag"]), []):
            self.metrics.add("offload.gdesc_replays")
            yield from self._post_peer(info["src"], "gdesc", desc)

    def _on_plan_nack(self, ep, info: dict):
        self.metrics.add("offload.plan_nacks")
        stale = info.get("stale", False)
        if stale:
            # The proxy faulted on a revoked key: the saved entries
            # are poison, drop the plan entirely and force a full
            # rebuild on the next retransmit.
            ep.group_cache.drop_plan(info["plan_id"])
        else:
            ep.group_cache.invalidate(info["plan_id"])
        req = ep._pending.get(info["req_id"])
        call_no = info.get("call_no")
        if (req is not None and call_no is not None
                and getattr(req, "calls", call_no) != call_no):
            # NACK for a superseded call of this re-used request.
            return ()
        plan = getattr(req, "resend_plan", None)
        if plan is not None and plan.plan_id == info["plan_id"]:
            plan.sent_to_proxy = False
            plan.dirty = True
            if stale:
                req.needs_rebuild = True
        return ()  # nothing to wait for (handlers are ``yield from``-ed)

    def _on_fb_rts(self, ep, offer: dict):
        self._fb_rts.append(offer)
        return ()

    # -- proxy NACKs: stale keys, memory exhaustion --------------------------
    def _on_nack(self, kind: str, info: dict):
        """Handle one stale_nack / oom_nack (its own simulation process)."""
        ep = self.ep
        yield ep.ctx.consume(ep.params.host_handler_cost)
        req = ep._pending.get(info["req_id"])
        if req is None or req.complete or not isinstance(req, OffloadRequest):
            return
        if kind == "stale_key":
            yield from self._repost_stale(req)
        elif kind == "oom_nack":
            if not req.fallback:
                self.metrics.add("offload.oom_fallbacks")
                yield from self._engage_fallback(req)
        else:  # pragma: no cover - defensive
            raise OffloadError(f"endpoint: unknown recovery item {kind!r}")

    def _repost_stale(self, req: OffloadRequest):
        """The proxy faulted on one of my revoked keys: re-register and
        re-post.

        The free that revoked the keys also invalidated the host-side
        caches (free listeners), so going back through them mints fresh
        registrations over the buffer's current incarnation; they
        replace the dead keys in a copy of the saved RTS / RTR.
        Requires the range to be mapped again -- re-registering a
        still-freed buffer faults loudly, which is correct: the data to
        send no longer exists.
        """
        ep = self.ep
        self.metrics.add("offload.stale_reposts")
        _emit(ep.ctx, "req", "repost", rid=req.req_id, kind=req.kind)
        proxy, (kind, info) = req.resend
        if "mkey" in info:
            mkey = yield from ep.gvmi_cache.get(req.addr, req.size, proxy)
            fresh = {"reg_addr": mkey.addr, "reg_size": mkey.size, "mkey": mkey.key}
        else:
            handle = yield from ep.ib_cache.get(req.addr, req.size)
            fresh = {"rkey": handle.rkey}
        req.resend = (proxy, (kind, {**info, **fresh}))
        yield from post_control(ep.ctx, proxy, req.resend[1], kind=kind)

    # -- graceful degradation: the host-driven fallback path -------------------
    def _engage_fallback(self, req: OffloadRequest) -> None:
        """The proxy missed its liveness deadline: leave the offload path.

        A send offers its (IB-registered) buffer straight to the peer
        endpoint; the peer pulls with a host-initiated RDMA READ and
        FINs back -- the classic host rendezvous, with no proxy in the
        loop.  A receive degrades passively: it simply waits for the
        sender's offer (or a revived proxy, whichever is first).
        Logged, never fatal.
        """
        req.fallback = True
        self.metrics.add("offload.fallbacks")
        _emit(self.ep.ctx, "req", "fallback", rid=req.req_id, kind=req.kind)
        self.ep.framework.fallback_log.append(
            (round(self.sim.now, 9), self.ep.rank, req.kind, req.req_id)
        )
        if req.kind == "send":
            yield from self._send_fb_rts(req)

    def _send_fb_rts(self, req: OffloadRequest) -> None:
        ep = self.ep
        handle = yield from ep.ib_cache.get(req.addr, req.size)
        self.metrics.add("offload.fb_rts")
        yield from self._post_peer(req.peer, "fb_rts", {
            "src": ep.rank, "dst": req.peer, "tag": req.tag,
            "addr": req.addr, "size": req.size, "rkey": handle.rkey,
            "src_req": req.req_id,
        })

    def _try_fb_matches(self) -> None:
        """Serve queued fallback offers against my pending receives."""
        if not self._fb_rts:
            return
        remaining = []
        for fb in self._fb_rts:
            if fb["src_req"] in self._fb_served:
                # Duplicate offer for a pull already done: only the
                # sender's FIN can have been lost -- resend it.
                yield from self._send_fb_fin(fb["src"], fb["src_req"])
                continue
            req = self._match_fb(fb)
            if req is None:
                remaining.append(fb)
                continue
            yield from self._fb_pull(fb, req)
        self._fb_rts = remaining

    def _match_fb(self, fb: dict):
        for req in self.ep._pending.values():
            if (
                isinstance(req, OffloadRequest)
                and req.kind == "recv"
                and not req.complete
                and req.peer == fb["src"]
                and req.tag == fb["tag"]
            ):
                return req
        return None

    def _fb_pull(self, fb: dict, req: OffloadRequest) -> None:
        """Host-initiated pull of a fallback offer into my receive buffer."""
        ep = self.ep
        if fb["size"] > req.size:
            raise OffloadError(
                f"fallback send of {fb['size']} bytes overflows receive of "
                f"{req.size} (src={fb['src']} tag={fb['tag']})"
            )
        handle = yield from ep.ib_cache.get(req.addr, req.size)
        self.metrics.add("offload.fb_pulls")
        attempt = 1
        while True:
            transfer = yield from rdma_read(
                ep.ctx,
                lkey=handle.lkey,
                local_addr=req.addr,
                rkey=fb["rkey"],
                remote_addr=fb["addr"],
                size=fb["size"],
            )
            dv = yield transfer.completed
            if getattr(dv, "via", "event") == "flow":
                # On a fat-tree a bulk pull rides a flow: this CQE was
                # signaled from its drain, not the exact port walk.
                self.metrics.add("offload.flow_cqes")
            if getattr(dv, "status", "ok") != "error":
                break
            attempt += 1
            if attempt > self.policy.rdma_retry_limit:
                raise OffloadError("fallback pull exceeded the RDMA re-post limit")
            yield self.sim.timeout(self.policy.rdma_backoff * attempt)
        req.fallback = True
        self._fb_served[fb["src_req"]] = fb["src"]
        ep._complete_by_id(req.req_id)
        yield from self._send_fb_fin(fb["src"], fb["src_req"])

    def _send_fb_fin(self, src_rank: int, src_req: int) -> None:
        """Complete the offering sender directly (its completion sink)."""
        ctx = self.ep.ctx
        peer_ep = self.ep.framework.endpoint(src_rank)
        yield ctx.consume(ctx.hca.post_overhead("host"))
        self.metrics.add("offload.fb_fins")
        ctx.cluster.fabric.control(
            src_node=ctx.node_id,
            dst_node=peer_ep.ctx.node_id,
            initiator="host",
            inbox=peer_ep.completion_sink,
            msg=src_req,
            src_mem="host",
            dst_mem="host",
            kind="fb_fin",
        )


# ---------------------------------------------------------------------------
# proxy side
# ---------------------------------------------------------------------------

class ProxyRecovery(_ProcessOwner):
    """The recovery policy of one :class:`ProxyEngine`.

    The tables are DPU-DRAM durable records (they survive a kill) except
    ``_live_reqs``, which dies with the worker like the matching queues.
    """

    def __init__(self, engine: "ProxyEngine", policy: RetryPolicy):
        self.engine = engine
        self.policy = policy
        self.sim = engine.sim
        self.metrics = engine.ctx.cluster.metrics
        self.fault_plan = engine.ctx.cluster.fault_plan
        #: req_ids of basic pairs queued or in flight (process-local).
        self._live_reqs: set[int] = set()
        #: FINs already sent: req_id -> host rank, for idempotent resend.
        self._fin_sent: dict[int, int] = {}
        #: Group launches: req_id -> {seqs, incarnation, done, call_no},
        #: for replay with the original sequence numbers.
        self._group_launches: dict[int, dict] = {}
        #: Last counter epoch written per key, re-written when a peer
        #: probes for a loss.
        self._counters_sent: dict[tuple, int] = {}
        #: Scheduled kills and counter probers still running.
        self.live: set = set()
        engine.recovery = self
        engine.extra_handlers.update(
            retry_xfer=self._on_retry_xfer, counter_probe=self._on_counter_probe)

    def _write_host(self, host_rank: int, sink: str, msg, kind: str, metric: str):
        """ARM post + control write into ``host_rank``'s endpoint: its
        ``completion_sink``, its ``inbox`` or its ``recovery`` sink."""
        engine = self.engine
        ep = engine.framework.endpoint(host_rank)
        yield engine.ctx.consume(engine.ctx.hca.post_overhead("dpu"))
        self.metrics.add(metric)
        engine._host_write(host_rank, msg, None, kind, getattr(ep, sink))

    # -- kill / restart ---------------------------------------------------------
    def kill(self) -> None:
        """Crash the worker process (chaos testing).

        Process-local state dies with it: the RTS/RTR matching queues,
        in-flight pair tracking, parked executors.  What lives in DPU
        DRAM survives for the next incarnation: the plan cache, counter
        board, sequence counters, staging pool, and the durable
        FIN/launch/counter records used for idempotent recovery.
        """
        engine = self.engine
        if not engine.alive:
            return
        engine.alive = False
        engine.incarnation += 1
        engine._send_q.clear()
        engine._recv_q.clear()
        self._live_reqs.clear()
        engine._parked.clear()
        self.metrics.add("proxy.kills")
        _emit(engine.ctx, "proxy", "kill", incarnation=engine.incarnation)
        # On a fat-tree this worker's in-flight bulk flows die with its
        # QPs.  Each aborts into a flush-error CQE; the dead
        # incarnation's watchers discard it, and the host-side
        # retransmit / group-replay machinery redoes the work against
        # the next incarnation.
        fabric = engine.ctx.cluster.fabric
        if fabric.flow_engine is not None:
            aborted = fabric.abort_flows(engine.ctx)
            if aborted:
                self.metrics.add("proxy.flows_aborted", aborted)
        if not engine.core.ended:
            engine.core.interrupt("proxy killed")

    def restart(self) -> None:
        """Boot a fresh worker over the surviving DPU-DRAM state."""
        engine = self.engine
        if engine.alive:
            return
        engine.alive = True
        self.metrics.add("proxy.restarts")
        _emit(engine.ctx, "proxy", "restart", incarnation=engine.incarnation)
        engine.start(f"proxy{engine.ctx.global_id}.inc{engine.incarnation}")

    # -- idempotent control receive ------------------------------------------------
    def duplicate_ctrl(self, info: dict):
        """Idempotent receive of a (possibly retransmitted) RTS/RTR.

        Returns True when the message is a duplicate and has been fully
        handled: already-finished requests get their FIN resent (the
        original FIN may have been the loss that triggered the
        retransmit); requests still queued or in flight are dropped.
        Generator -- the FIN resend pays post overhead.
        """
        req_id = info["req_id"]
        if req_id in self._fin_sent:
            yield from self._write_host(self._fin_sent[req_id], "completion_sink",
                                        req_id, "fin", "proxy.fin_resends")
            return True
        if req_id in self._live_reqs:
            self.metrics.add("proxy.dup_ctrl_dropped")
            return True
        self._live_reqs.add(req_id)
        return False

    def fin_sent(self, req_id: int, host_rank: int) -> None:
        self._live_reqs.discard(req_id)
        self._fin_sent[req_id] = host_rank

    # -- error CQEs: back off, re-post, give up past rdma_retry_limit --------------
    def repost_after_error(self, leg: str, state: dict, attempt: int, inc: int) -> None:
        """An error CQE (fault injection) moved no bytes: back off, then
        re-post through the inbox so the retry stays ARM-serialized."""
        backoff = self.sim.timeout(self.policy.rdma_backoff * attempt)
        item = ("retry_xfer", (leg, state, attempt + 1, inc))
        backoff.callbacks.append(lambda _t: self.engine.ctx.inbox.put(item))

    def _count_repost(self, attempt: int, what: str) -> None:
        if attempt > self.policy.rdma_retry_limit:
            raise OffloadError(f"{what} exceeded {self.policy.rdma_retry_limit} RDMA re-posts")
        self.metrics.add("proxy.rdma_retries")

    def _on_retry_xfer(self, engine, item: tuple):
        leg, state, attempt, inc = item
        if inc != engine.incarnation:
            # A previous life's transfer; the retransmit redoes it.
            if leg != "pair":
                self.release_stale(state)
            return
        if leg == "pair":
            rts = state["rts"]
            self._count_repost(
                attempt, f"basic pair src={rts['src']} dst={rts['dst']} tag={rts['tag']}")
            yield from engine._post_pair_transfer(state, attempt)
        elif leg == "read":
            self._count_repost(attempt, "staged RDMA read")
            yield from engine._post_staged_read(state, attempt)
        else:
            self._count_repost(attempt, "staged RDMA write")
            yield from engine._post_staged_write(state, attempt, inc)

    def release_stale(self, st: dict) -> None:
        """Return a dead incarnation's bounce buffer to the pool (once)."""
        if not st.get("released"):
            st["released"] = True
            self.engine.staging.release(st["buf"])

    def segment_backoff(self, executor) -> Event:
        """Count a group segment's re-post; return the backoff to park on."""
        self._count_repost(
            executor.attempt, f"group send segment of host {executor.plan.host_rank}")
        return self.sim.timeout(self.policy.rdma_backoff * executor.attempt)

    # -- resource governance: stale keys and memory exhaustion -----------------------
    def on_stale_pair(self, pair: dict, exc) -> None:
        """Recover a matched pair that faulted on a revoked key.

        Probe which side is stale, requeue the surviving side at the
        FRONT of its queue (so the recovered repost matches it), and
        nack the stale side so its endpoint re-registers and re-posts.
        """
        engine = self.engine
        rts, rtr = pair["rts"], pair["rtr"]
        keys = verbs_state(engine.ctx.cluster).keys
        if engine.mode == "staged":
            send_live = keys.is_live(rts["rkey"])
        else:
            send_live = keys.is_live(rts["mkey"])
            # Drop the cached cross-registration so recovery registers
            # a fresh chain rather than rediscovering the stale one.
            engine.gvmi_cache.invalidate(
                rts.get("reg_addr", rts["addr"]),
                rts.get("reg_size", rts["size"]),
                rts["src"],
            )
        recv_live = keys.is_live(rtr["rkey"])
        if send_live and recv_live:
            # Only the mkey2 was stale (e.g. evicted under DPU memory
            # pressure): one re-post cross-registers afresh.
            if pair.get("stale_retries", 0) >= 1:
                raise OffloadError(
                    f"pair src={rts['src']} dst={rts['dst']} tag={rts['tag']} "
                    f"keeps faulting with live endpoint keys: {exc}"
                ) from exc
            pair["stale_retries"] = pair.get("stale_retries", 0) + 1
            yield from engine._post_pair_transfer(pair, attempt=1)
            return
        key = (rts["src"], rts["dst"], rts["tag"])
        if send_live:
            engine._send_q.setdefault(key, []).insert(0, rts)
        if recv_live:
            engine._recv_q.setdefault(key, []).insert(0, rtr)
        for info, host_rank, live in (
            (rts, rts["src"], send_live),
            (rtr, rtr["dst"], recv_live),
        ):
            if live:
                continue
            # Forget the request so the recovered repost (same req_id,
            # fresh keys) is not dropped as a duplicate.
            self._live_reqs.discard(info["req_id"])
            yield from self._write_host(host_rank, "recovery",
                                        ("stale_key", {"req_id": info["req_id"]}),
                                        "stale_nack", "proxy.stale_nacks")

    def degrade_pair(self, pair: dict) -> None:
        """This pair cannot be staged: push the sender onto the
        host-driven fallback path (mirroring the proxy-death
        degradation); the pair's req_ids stay in ``_live_reqs`` so
        control retransmits are dropped quietly while the hosts finish
        over the fallback."""
        rts = pair["rts"]
        yield from self._write_host(rts["src"], "recovery",
                                    ("oom_nack", {"req_id": rts["req_id"]}),
                                    "oom_nack", "proxy.oom_nacks")

    # -- group plans: unknown / stale plans, launch replay ------------------------------
    def plan_nack(self, host_rank: int, plan_id: int, req_id: int, call_no, **flags):
        """Tell the host its proxy does not hold ``plan_id`` (a dropped
        group_plan, a group_call racing ahead of it, an eviction from a
        bounded plan cache, or -- flagged ``stale`` -- an abort): it marks
        its cached copy stale and re-ships on the next retransmit."""
        nack = {"plan_id": plan_id, "req_id": req_id, "call_no": call_no, **flags}
        yield from self._write_host(host_rank, "inbox", ("plan_nack", nack),
                                    "plan_nack", "proxy.plan_nacks")

    def abort_stale(self, executor) -> None:
        """Abandon an invocation whose plan touches revoked memory.

        Drops the DPU copy of the plan, marks the launch record
        replayable, and sends a ``stale``-flagged plan_nack so the host
        rebuilds the plan from scratch (fresh registrations and
        descriptors) instead of re-shipping the same stale entries.
        Counter writes already issued stay valid: the relaunch replays
        with the original sequence numbers and counter writes are
        monotone.
        """
        plan_id = executor.plan.plan_id
        self.metrics.add("proxy.stale_plans")
        _emit(self.engine.ctx, "reg", "stale_use", plan=plan_id, call=executor.req_id)
        rec = self._group_launches.get(executor.req_id)
        if rec is not None:
            # Not done, and no incarnation owns it: the retransmitted
            # call relaunches with the ORIGINAL sequence numbers.
            rec["incarnation"] = None
        self.engine.plan_cache.drop(plan_id)
        yield from self.plan_nack(executor.plan.host_rank, plan_id,
                                  executor.req_id, executor.call_no, stale=True)

    def relaunch(self, plan, req_id: int, call_no: int):
        """Idempotent group launch (a generator).

        Returns None for a fresh launch, False when there is nothing to
        launch (a duplicate: at most the completion is resent), or the
        ORIGINAL sequence numbers of a launch to replay.
        """
        engine = self.engine
        rec = self._group_launches.get(req_id)
        if rec is None or call_no > rec["call_no"]:
            # Never launched, or a recorded pattern being re-called: a
            # fresh invocation, not a replay of the finished one.
            return None
        if call_no < rec["call_no"] or rec["done"]:
            # A duplicate of a superseded call, or of one that finished in
            # an earlier life/attempt: the completion write is the only
            # thing the host could still be missing -- resend it.
            yield engine.ctx.consume(engine.post_cost)
            engine.completion_write(plan.host_rank, req_id, call_no)
            return False
        if rec["incarnation"] == engine.incarnation:
            # Duplicate invocation while the executor still runs.
            self.metrics.add("proxy.dup_ctrl_dropped")
            return False
        # Killed mid-run: replay with the ORIGINAL per-pair sequence
        # numbers so peer proxies' (src, dst, seq) counter keys still
        # line up with what they already wrote or await.
        rec["incarnation"] = engine.incarnation
        self.metrics.add("proxy.group_replays")
        _emit(engine.ctx, "group", "replay", plan=plan.plan_id, call=req_id)
        return dict(rec["seqs"])

    def record_launch(self, req_id: int, seqs: dict, call_no: int) -> None:
        self._group_launches[req_id] = {
            "seqs": dict(seqs),
            "incarnation": self.engine.incarnation,
            "done": False,
            "call_no": call_no,
        }

    def mark_done(self, req_id: int, call_no: int) -> None:
        """Durably record that the executor finished, before its
        completion write (a replayed invocation then only resends it)."""
        rec = self._group_launches.get(req_id)
        if rec is not None and rec["call_no"] == call_no:
            rec["done"] = True

    # -- counter probing --------------------------------------------------------------------
    def counter_written(self, key: tuple, epoch: int) -> None:
        """Durable record: a peer probing for a lost write gets this
        epoch re-written (see :meth:`_on_counter_probe`)."""
        self._counters_sent[key] = max(self._counters_sent.get(key, 0), epoch)

    def arm_counter_probe(self, key: tuple, ev, writer_rank: int,
                          my_rank: int) -> None:
        """Chase a possibly-lost counter write while ``ev`` is unfired.

        Spawns a prober that, with backoff, asks the proxy serving
        ``writer_rank`` to re-write counter ``key`` toward ``my_rank``'s
        proxy (this engine).  No-op without a fault plan.
        """
        if self.fault_plan is None or ev.triggered:
            return
        engine = self.engine
        peer = engine.ctx.cluster.proxy_for_rank(writer_rank)
        inc = engine.incarnation
        pol = self.policy

        def _prober():
            delay = pol.counter_probe_after
            while True:
                yield self.sim.timeout(delay)
                if ev.triggered or engine.incarnation != inc or not engine.alive:
                    return
                self.metrics.add("proxy.counter_probes")
                engine.fabric.send_control(engine.fabric.control_route(
                    engine.ctx.node_id, peer.node_id, "dpu", 16, "dpu", peer.mem_kind),
                    peer.inbox, ("counter_probe", {"key": key, "rank": my_rank}), "counter_probe")
                delay = pol.next_timeout(delay, 4 * pol.max_timeout)

        self.spawn(_prober())

    def _on_counter_probe(self, engine, info: dict):
        """A peer suspects it lost one of my counter writes: re-write it."""
        key = info["key"]
        epoch = self._counters_sent.get(key)
        if epoch is None:
            return  # not written yet; the peer will probe again
        self.metrics.add("proxy.counter_rewrites")
        yield engine.ctx.consume(engine.post_cost)
        engine.counter_write(engine.counter_route(info["rank"]), key, epoch)
