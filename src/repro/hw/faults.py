"""Seeded fault injection for the simulated fabric and proxies.

The reproduction's clean-room model assumes a perfectly reliable RDMA
fabric and immortal proxy processes; related SmartNIC studies (Wahlgren
et al., Chen et al.) flag the off-path proxy as a fragile single point
of failure.  This module supplies the *chaos* side of that story:

* :class:`FaultSpec` -- the knobs: per-message drop / duplicate /
  delay probabilities for control messages, an error-CQE probability
  for RDMA data operations, a drop probability for fluid flows, and
  filters restricting which message kinds / initiators are eligible.
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
  writes into remote inboxes; a *drop* loses one (in flight, or
  discarded by the receiver's ICRC check: the receiver sees the same
  thing), a *dup* delivers it twice, a *delay* adds an arbitrary extra
  in-flight latency.
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
    """Probability knobs of one fault campaign.

    A control message's drop and dup are one draw (exclusive fates, so
    ``drop_prob + dup_prob <= 1``); every other knob is its own draw.
    """

    #: Probability one eligible control message is lost.
    drop_prob: float = 0.0
    #: Probability one eligible control message arrives twice.
    dup_prob: float = 0.0
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
        for name in ("drop_prob", "dup_prob", "delay_prob",
                     "error_cqe_prob", "flow_drop_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p!r} is not a probability")
        if self.drop_prob + self.dup_prob > 1.0:
            raise ValueError(
                f"drop_prob + dup_prob = {self.drop_prob + self.dup_prob!r} "
                f"> 1: one draw decides both fates")
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
            "drops": 0, "dups": 0, "delays": 0,
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

        ``action`` is one of ``"deliver" | "drop" | "dup"``;
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
        elif r < spec.drop_prob + spec.dup_prob:
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
