"""Seeded fault injection for the simulated fabric and proxies.

The reproduction's clean-room model assumes a perfectly reliable RDMA
fabric and immortal proxy processes; related SmartNIC studies (Wahlgren
et al., Chen et al.) flag the off-path proxy as a fragile single point
of failure.  This module supplies the *chaos* side of that story:

* :class:`FaultSpec` -- the knobs: per-message drop / duplicate /
  corrupt / delay probabilities for control messages, an error-CQE
  probability for RDMA data operations, and filters restricting which
  message kinds / initiators are eligible.
* :class:`ProxyKillPlan` -- a scheduled kill (and optional restart) of
  one DPU proxy process.
* :class:`FaultPlan` -- the seeded decision engine the
  :class:`~repro.hw.fabric.Fabric` consults per message.  All draws
  come from one named stream of :class:`~repro.sim.rng.RngRegistry`, so
  a given (cluster seed, spec) pair always injects the identical fault
  sequence -- chaos runs stay byte-for-byte reproducible.
* :class:`RetryPolicy` -- the recovery constants (timeout, exponential
  backoff, retry caps, the liveness deadline after which a host rank
  abandons its proxy and falls back to the host-MPI style path).

Fault semantics, mirroring real RC-transport behaviour:

* **Control messages** (RTS/RTR/FIN/counter writes/group packets) model
  writes into remote inboxes; a *drop* silently loses one, a *corrupt*
  is detected by the receiver's ICRC check and discarded (same visible
  effect, logged separately), a *dup* delivers it twice, a *delay* adds
  an arbitrary extra in-flight latency.
* **Data transfers** never lose bytes silently -- the reliable
  transport retransmits at packet level -- but can complete with an
  **error CQE** (``Delivery.status == "error"``): no data lands and the
  initiator must re-post.

With no plan installed (``cluster.fault_plan is None``) every message
keeps its default fate on the same code path: fault-free runs are
bit-identical to a build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import Cluster

__all__ = [
    "OFFLOAD_CONTROL_KINDS",
    "FaultSpec",
    "ProxyKillPlan",
    "RetryPolicy",
    "FaultPlan",
    "LinkWindow",
    "LinkDegradePlan",
]

#: The offload framework's control-message kinds; a FaultSpec targeting
#: exactly these shakes the offload stack while leaving the host-MPI
#: baseline's (kind="ctrl") traffic untouched.
OFFLOAD_CONTROL_KINDS = frozenset({
    "rts", "rtr", "fin", "counter", "counter_probe",
    "group_plan", "group_call", "gdesc", "gdesc_req", "plan_nack",
    "fb_rts", "fb_fin",
})


@dataclass(frozen=True)
class FaultSpec:
    """Probability knobs of one fault campaign (all independent draws)."""

    #: Probability one eligible control message is silently lost.
    drop_prob: float = 0.0
    #: Probability one eligible control message arrives twice.
    dup_prob: float = 0.0
    #: Probability one eligible control message is corrupted in flight
    #: (detected by the receiver's ICRC and discarded -- a logged drop).
    corrupt_prob: float = 0.0
    #: Probability an extra in-flight delay is added (control and data).
    delay_prob: float = 0.0
    #: Extra delay is uniform in (0, delay_max] seconds.
    delay_max: float = 25e-6
    #: Probability an RDMA data operation completes with an error CQE.
    error_cqe_prob: float = 0.0
    #: Probability a bulk transfer riding the fluid FlowEngine suffers a
    #: mid-flight link glitch: the flow's progress up to the glitch point
    #: is kept, the remainder is retransmitted as a fresh flow after an
    #: exponential backoff (see docs/FAULTS.md).  Flow fates draw from
    #: their own RNG stream, so exact-mode runs never consume them.
    flow_drop_prob: float = 0.0
    #: Which control-message kinds are eligible (None = all kinds).
    control_kinds: Optional[frozenset] = None
    #: Which initiators' data operations can take an error CQE.
    error_initiators: tuple = ("dpu", "host")

    def __post_init__(self):
        for name in ("drop_prob", "dup_prob", "corrupt_prob", "delay_prob",
                     "error_cqe_prob", "flow_drop_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p!r} is not a probability")
        if self.delay_max < 0:
            raise ValueError("delay_max must be >= 0")


@dataclass(frozen=True)
class ProxyKillPlan:
    """Kill proxy ``proxy_gid`` at simulated time ``at``.

    ``restart_after`` seconds later the process is relaunched (its DPU
    DRAM state -- plan cache, counter board, sequence counters --
    survives; process-local matching queues do not).  ``None`` means the
    proxy stays dead, which exercises the host fallback path.
    """

    proxy_gid: int
    at: float
    restart_after: Optional[float] = None


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery constants of the offload layer (documented in docs/FAULTS.md)."""

    #: Initial host-side wait timeout before the first retransmit.
    timeout: float = 50e-6
    #: Exponential backoff factor applied per retransmit.
    backoff: float = 2.0
    #: Ceiling on the per-attempt timeout.
    max_timeout: float = 800e-6
    #: Retransmit attempts before a Wait gives up loudly.
    max_attempts: int = 30
    #: Liveness deadline: a basic-primitive Wait that has seen no
    #: completion for this long declares its proxy dead and falls back
    #: to the host-driven path (logged, not fatal).
    fallback_after: float = 2e-3
    #: Proxy-side re-posts of an RDMA op that completed with an error CQE.
    rdma_retry_limit: int = 12
    #: Backoff between RDMA re-posts.
    rdma_backoff: float = 20e-6
    #: Proxy-side timeout before probing a peer for a lost counter write.
    counter_probe_after: float = 80e-6

    def next_timeout(self, timeout: float, ceiling: Optional[float] = None) -> float:
        """The wait after ``timeout`` in the exponential progression,
        capped at ``ceiling`` (default :attr:`max_timeout`)."""
        return min(timeout * self.backoff,
                   self.max_timeout if ceiling is None else ceiling)


class FaultPlan:
    """Deterministic per-message fault decisions plus an audit trace.

    Construct with a :class:`FaultSpec` and optional
    :class:`ProxyKillPlan` list, then install on a cluster via
    :meth:`repro.hw.cluster.Cluster.install_faults` (which binds the
    plan to the cluster's seeded RNG registry and hands it to the
    fabric).  ``seed`` overrides the cluster seed for the fault stream.
    """

    def __init__(self, spec: FaultSpec = FaultSpec(),
                 kills: tuple = (), seed: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None):
        self.spec = spec
        self.kills = tuple(kills)
        self.seed = seed
        #: Recovery constants the *fabric* uses for flow-level
        #: retransmits (the offload layer keeps its own policy).
        self.retry = retry if retry is not None else RetryPolicy()
        self.sim = None
        self._rng = None
        # Flow fates draw from a *separate* stream: the fluid engine's
        # decisions must never advance the event path's "faults" stream,
        # so an exact-mode run with the same plan armed stays
        # bit-identical whatever the flow knobs say.
        self._flow_rng = None
        #: Optional :class:`~repro.obs.events.EventBus` (set when a bus
        #: is attached to the cluster); every audit record doubles as a
        #: ``fault.inject`` event.
        self.bus = None
        #: (time, category, detail) audit records, in decision order.
        self.events: list[tuple] = []
        self.stats: dict[str, int] = {
            "drops": 0, "dups": 0, "corruptions": 0, "delays": 0,
            "error_cqes": 0, "kills": 0, "restarts": 0,
            "flow_drops": 0, "flow_retries": 0,
        }

    # -- wiring ---------------------------------------------------------
    def bind(self, cluster: "Cluster") -> "FaultPlan":
        self.sim = cluster.sim
        registry = RngRegistry(self.seed) if self.seed is not None else cluster.rng
        self._rng = registry.stream("faults")
        self._flow_rng = registry.stream("flow-faults")
        return self

    def _require_bound(self):
        if self._rng is None:
            raise RuntimeError("FaultPlan is not bound to a cluster "
                               "(use cluster.install_faults(plan))")

    # -- audit ----------------------------------------------------------
    def record(self, category: str, detail: str) -> None:
        now = 0.0 if self.sim is None else self.sim.now
        self.events.append((round(now, 12), category, detail))
        if self.bus is not None:
            self.bus.emit("fault", "inject", "fabric",
                          category=category, detail=detail)

    def trace(self) -> tuple:
        """Immutable audit trail; byte-identical across reruns of one seed."""
        return tuple(self.events)

    # -- decisions (called by the fabric) --------------------------------
    def _eligible_control(self, kind: str) -> bool:
        allowed = self.spec.control_kinds
        return allowed is None or kind in allowed

    def control_fate(self, kind: str, src_node: int, dst_node: int):
        """Fate of one control message: ``(action, extra_delay)``.

        ``action`` is one of ``"deliver" | "drop" | "corrupt" | "dup"``;
        ``extra_delay`` is added to the in-flight latency (0.0 normally).
        """
        self._require_bound()
        spec = self.spec
        if not self._eligible_control(kind):
            return "deliver", 0.0
        where = f"{kind} n{src_node}->n{dst_node}"
        action = "deliver"
        r = float(self._rng.random())
        if r < spec.drop_prob:
            action = "drop"
            self.stats["drops"] += 1
            self.record("drop", where)
        elif r < spec.drop_prob + spec.corrupt_prob:
            action = "corrupt"
            self.stats["corruptions"] += 1
            self.record("corrupt", where)
        elif r < spec.drop_prob + spec.corrupt_prob + spec.dup_prob:
            action = "dup"
            self.stats["dups"] += 1
            self.record("dup", where)
        extra = 0.0
        if action in ("deliver", "dup") and spec.delay_prob > 0.0:
            if float(self._rng.random()) < spec.delay_prob:
                extra = float(self._rng.random()) * spec.delay_max
                self.stats["delays"] += 1
                self.record("delay", f"{where} +{extra:.3e}s")
        return action, extra

    def transfer_fate(self, kind: str, initiator: str,
                      src_node: int, dst_node: int):
        """Fate of one RDMA data operation: ``(status, extra_delay)``.

        ``status`` is ``"ok"`` or ``"error"`` (an error CQE: the
        operation completes without moving any bytes).
        """
        self._require_bound()
        spec = self.spec
        status = "ok"
        where = f"{kind} n{src_node}->n{dst_node} by {initiator}"
        if spec.error_cqe_prob > 0.0 and initiator in spec.error_initiators:
            if float(self._rng.random()) < spec.error_cqe_prob:
                status = "error"
                self.stats["error_cqes"] += 1
                self.record("error_cqe", where)
        extra = 0.0
        if status == "ok" and spec.delay_prob > 0.0:
            if float(self._rng.random()) < spec.delay_prob:
                extra = float(self._rng.random()) * spec.delay_max
                self.stats["delays"] += 1
                self.record("delay", f"{where} +{extra:.3e}s")
        return status, extra

    def flow_fate(self, kind: str, src_node: int, dst_node: int,
                  attempt: int):
        """Fate of one fluid-engine flow (admission): ``(action, frac)``.

        ``action`` is ``"ok"`` or ``"drop"``; on a drop, ``frac`` in
        [0.05, 0.95] is the fraction of the flow's work that completes
        before the mid-flight glitch (the fabric retransmits the rest as
        a fresh flow after an exponential backoff).  Draws come from the
        dedicated ``flow-faults`` stream only, so consulting this never
        perturbs the event path's fault sequence.
        """
        self._require_bound()
        if self.spec.flow_drop_prob <= 0.0:
            return "ok", 1.0
        rng = self._flow_rng
        if float(rng.random()) >= self.spec.flow_drop_prob:
            return "ok", 1.0
        # Clamp away the degenerate edges: a zero-work glitch flow is
        # unrepresentable and a ~1.0 fraction is an invisible no-op.
        frac = 0.05 + 0.9 * float(rng.random())
        self.stats["flow_drops"] += 1
        self.record(
            "flow_drop",
            f"{kind} n{src_node}->n{dst_node} attempt={attempt} "
            f"frac={frac:.3f}",
        )
        return "drop", frac

    def note_flow_retry(self, kind: str, src_node: int, dst_node: int,
                        attempt: int, backoff: float) -> None:
        """Audit one fabric-level flow retransmit (no RNG draw)."""
        self.stats["flow_retries"] += 1
        self.record(
            "flow_retry",
            f"{kind} n{src_node}->n{dst_node} attempt={attempt} "
            f"backoff={backoff:.3e}s",
        )


@dataclass(frozen=True)
class LinkWindow:
    """One link-degradation window on a fabric link.

    Target either a node endpoint (``node`` + ``direction``, the
    original form) or -- with a fat-tree topology attached -- any
    explicit link by its key (``link=("up", leaf, spine)`` etc.; see
    ``repro.hw.topology``).  ``factor`` scales the link's *base*
    capacity for the window's duration: 0.5 halves the achievable rate
    of every flow crossing the link, 0.0 is a *flap* (the link is down;
    flows stall and resume at restore).  Windows on the same link may
    overlap -- the effective capacity is ``base * min(open factors)``.
    """

    node: int = -1
    direction: str = "tx"  # "tx" or "rx"
    start: float = 0.0
    duration: float = 0.0
    factor: float = 0.0
    #: Explicit link key; when set, ``node``/``direction`` are ignored.
    link: Optional[tuple] = None

    def __post_init__(self):
        if self.link is not None:
            if not isinstance(self.link, tuple) or len(self.link) < 2:
                raise ValueError(
                    f"link must be a link-key tuple like ('up', leaf, "
                    f"spine), got {self.link!r}"
                )
        else:
            if self.node < 0:
                raise ValueError("window needs a node (or an explicit link)")
            if self.direction not in ("tx", "rx"):
                raise ValueError(f"direction must be 'tx' or 'rx', "
                                 f"got {self.direction!r}")
        if self.start < 0.0 or self.duration <= 0.0:
            raise ValueError("window start must be >= 0 and duration > 0")
        if not 0.0 <= self.factor < 1.0:
            raise ValueError(f"degrade factor must be in [0, 1), "
                             f"got {self.factor!r}")

    @property
    def key(self) -> tuple:
        """The engine link key this window degrades."""
        if self.link is not None:
            return self.link
        return (self.direction, self.node)


class LinkDegradePlan:
    """Seeded schedule of link degradations on the fluid flow path.

    Either pass explicit :class:`LinkWindow` tuples, or sampling knobs
    (``count`` windows uniform over ``[0, horizon)``); sampled windows
    are drawn at install time from the cluster registry's dedicated
    ``link-degrade`` stream (or a private registry when ``seed`` is
    given), so a (cluster seed, plan) pair always degrades the same
    links at the same instants.

    The plan drives :meth:`FlowEngine.set_endpoint_capacity` at each
    window edge -- the engine settles in-flight progress and re-solves
    the fair shares there -- and emits ``link.degrade``/``link.restore``
    obs events.  Install via
    :meth:`repro.hw.cluster.Cluster.install_link_degrade`; the cluster
    must be in fluid mode (link capacity is a flow-path concept; the
    event-exact engine models ports as busy/idle only).
    """

    def __init__(self, windows: tuple = (), *, count: int = 0,
                 horizon: float = 0.0,
                 duration_range: tuple = (20e-6, 200e-6),
                 factor_range: tuple = (0.25, 0.75),
                 flap_prob: float = 0.25,
                 seed: Optional[int] = None):
        if count < 0:
            raise ValueError("count must be >= 0")
        if count and horizon <= 0.0:
            raise ValueError("sampling windows requires a horizon > 0")
        self.windows = tuple(windows)
        self.count = count
        self.horizon = horizon
        self.duration_range = duration_range
        self.factor_range = factor_range
        self.flap_prob = flap_prob
        self.seed = seed
        self.sim = None
        self.bus = None
        self.stats: dict[str, int] = {"degrades": 0, "restores": 0}
        #: (time, category, detail) audit records, in schedule order.
        self.events: list[tuple] = []
        self._engine = None
        self._metrics = None
        # Effective capacity bookkeeping: open window factors per
        # endpoint key (overlaps take the min).
        self._open: dict[tuple, list] = {}

    # -- wiring ---------------------------------------------------------
    def bind(self, cluster: "Cluster") -> "LinkDegradePlan":
        engine = cluster.fabric.flow_engine
        if engine is None:
            raise ValueError(
                "LinkDegradePlan needs a fluid cluster (flow engine "
                "attached); link capacity does not exist on the "
                "event-exact path"
            )
        self.sim = cluster.sim
        self._engine = engine
        self._metrics = cluster.metrics
        if self.bus is None:
            self.bus = cluster.bus
        registry = RngRegistry(self.seed) if self.seed is not None else cluster.rng
        rng = registry.stream("link-degrade")
        # With a multi-leaf fat-tree attached, sampled windows also land
        # on spine up/down links (uniform over every link in the graph);
        # endpoint-only clusters keep the original draw sequence, so
        # existing seeded schedules replay byte-identically.
        topo = getattr(cluster, "topology", None)
        spine_links: list[tuple] = []
        if topo is not None and topo.n_leaves > 1:
            for leaf in range(topo.n_leaves):
                for s in range(topo.spine_count):
                    spine_links.append(("up", leaf, s))
                    spine_links.append(("down", s, leaf))
        windows = list(self.windows)
        for _ in range(self.count):
            if spine_links:
                n_ep = 2 * cluster.spec.nodes
                idx = int(rng.integers(0, n_ep + len(spine_links)))
                link = None if idx < n_ep else spine_links[idx - n_ep]
                node = idx // 2 if idx < n_ep else -1
                direction = ("tx" if idx % 2 == 0 else "rx") \
                    if idx < n_ep else "tx"
            else:
                link = None
                node = int(rng.integers(0, cluster.spec.nodes))
                direction = "tx" if float(rng.random()) < 0.5 else "rx"
            start = float(rng.random()) * self.horizon
            lo, hi = self.duration_range
            duration = lo + float(rng.random()) * max(0.0, hi - lo)
            if float(rng.random()) < self.flap_prob:
                factor = 0.0
            else:
                flo, fhi = self.factor_range
                factor = flo + float(rng.random()) * max(0.0, fhi - flo)
            windows.append(LinkWindow(node, direction, start, duration,
                                      factor, link=link))
        windows.sort(key=lambda w: (w.start, w.node, w.direction,
                                    () if w.link is None else w.link))
        self.windows = tuple(windows)
        for wid, w in enumerate(self.windows):
            self._arm_window(wid, w)
        return self

    def _arm_window(self, wid: int, w: LinkWindow) -> None:
        self.sim.call_at(w.start, lambda _ev: self._degrade(wid, w))
        self.sim.call_at(w.start + w.duration, lambda _ev: self._restore(wid, w))

    def _effective(self, key: tuple) -> float:
        factors = self._open.get(key)
        return min(factors) if factors else 1.0

    def _apply(self, key: tuple) -> None:
        # Every link's healthy capacity is one port-share, so the
        # effective factor is the capacity; with no open window this
        # restores 1.0 exactly, clearing the override.
        self._engine.set_endpoint_capacity(key, self._effective(key))

    @staticmethod
    def _describe(w: LinkWindow) -> str:
        if w.link is not None:
            return " ".join(str(part) for part in w.link)
        return f"{w.direction} n{w.node}"

    def _degrade(self, wid: int, w: LinkWindow) -> None:
        key = w.key
        self._open.setdefault(key, []).append(w.factor)
        self._apply(key)
        self.stats["degrades"] += 1
        self._metrics.add("fabric.link_degrades")
        now = self.sim.now
        self.events.append((round(now, 12), "degrade",
                            f"{self._describe(w)} factor={w.factor:.3f}"))
        if self.bus is not None:
            if w.link is not None:
                self.bus.emit("link", "degrade", "fabric", wid=wid,
                              link=str(key), factor=w.factor)
            else:
                self.bus.emit("link", "degrade", f"node{w.node}", wid=wid,
                              node=w.node, direction=w.direction,
                              factor=w.factor)

    def _restore(self, wid: int, w: LinkWindow) -> None:
        key = w.key
        factors = self._open.get(key)
        if factors is not None:
            factors.remove(w.factor)
            if not factors:
                del self._open[key]
        self._apply(key)
        self.stats["restores"] += 1
        now = self.sim.now
        self.events.append((round(now, 12), "restore", self._describe(w)))
        if self.bus is not None:
            if w.link is not None:
                self.bus.emit("link", "restore", "fabric", wid=wid,
                              link=str(key))
            else:
                self.bus.emit("link", "restore", f"node{w.node}", wid=wid,
                              node=w.node, direction=w.direction)

    def trace(self) -> tuple:
        """Immutable audit trail; byte-identical across reruns of one seed."""
        return tuple(self.events)
