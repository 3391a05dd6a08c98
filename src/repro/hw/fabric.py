"""Message-level InfiniBand-like fabric.

A single-switch topology (the paper's 32-node testbed hangs off one HDR
switch): every inter-node message pays the wire latency plus one switch
hop; host<->DPU traffic on the *same* node loops back through the HCA
and pays the wire latency only (the paper notes local host-DPU
transfers cost the same as remote ones).

Contention is modelled with two FIFO ports per node -- a tx and an rx
port (:class:`~repro.hw.nic.Port`) -- each held for the message's
serialization window in a store-and-forward discipline: serialize out
of the source (tx), fly the wire, serialize into the destination (rx),
deliver.  Dense patterns (alltoall incast) therefore queue exactly
where the real fabric queues, and -- crucially -- a sender blocked by a
busy receiver never parks its own tx port (no artificial head-of-line
blocking; real NICs interleave packets of concurrent flows).

Every message -- data or control, observed or not, fault plan armed or
not -- is one :class:`_Message` that walks that schedule as its own
calendar entry, one processed event per hop: no generator, no Process
wrapper, no port request or timeout object.  The post-time fault fate
rides in the message's slots and is applied where it bites (extra wire
delay, error CQE, control drop/dup); the EventBus is an ``is not None``
emission guard inside the landing step.  The run you observe, or
inject faults into, therefore executes the same functions and schedules
the same events as the bare run you time
(tests/test_obs_nonperturbation.py pins it).  On a leaf/spine fat-tree
(``ClusterSpec.nodes_per_switch > 0``) a bulk transfer swaps the port
walk for a rate-shared flow over its link path and lands through the
very same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.hw.nic import Hca
from repro.hw.params import MachineParams
from repro.sim import Event, Simulator

__all__ = ["Delivery", "Transfer", "Fabric"]


@dataclass(slots=True)
class Delivery:
    """What arrives at the destination when a message lands."""

    src_node: int
    dst_node: int
    size: int
    kind: str = "data"
    #: Arbitrary sender-supplied metadata (protocol headers).
    meta: Any = None
    #: Simulated arrival time (stamped by the fabric).
    time: float = field(default=0.0)
    #: CQE status: "ok", or "error" when fault injection forced an error
    #: completion (no bytes moved; the initiator must re-post).
    status: str = "ok"
    #: Which engine carried the bytes: "event" (exact store-and-forward
    #: port walk) or "flow" (a fat-tree bulk flow).  Lets consumers -- the
    #: offload proxy's CQE accounting, the differential harness -- tell
    #: flow-completed CQEs apart without changing any timing.
    via: str = "event"
    #: Link keys a flow's bytes crossed, in order (``(("tx", s),
    #: ("up", l, k), ("down", k, l'), ("rx", d))`` across leaves);
    #: ``None`` on the event path.
    path: Any = None


@dataclass(slots=True)
class Transfer:
    """Handle returned by :meth:`Fabric.transfer`."""

    #: Fires when the initiator would see the CQE; its value is the
    #: :class:`Delivery`, whose ``time`` is when the last byte landed.
    completed: Event
    size: int
    #: Set by ``rdma_read(lazy_payload=True)``: ``(space, addr)`` where
    #: the bytes actually live, for a follow-on forwarding write.
    payload_src: Any = None


class _Message(Event):
    """One message in flight: identity, post-time fate, port walk, landing.

    The message is its own calendar entry.  Each hop of the
    store-and-forward walk -- start, tx grant, tx serialise, wire, rx
    grant, rx serialise, ack -- sets ``callbacks`` to the next step and
    files the message again: at ``now`` through a port's grant, or
    through :meth:`Simulator._schedule_at` at ``now + delay``, the float
    a ``Timeout`` of that delay would get.  A step is an *unbound*
    function (the kernel passes the message itself as the event), so a
    message never holds a bound method of itself.  The walk ends in
    :meth:`land` for data (Delivery, payload callback, CQE after the
    hardware ack) or :meth:`_land_control` (into the inbox).  A flow
    transfer never walks: the FlowEngine drains it and the fabric files
    :meth:`land` after the unshared protocol tail, so both engines
    share one landing.
    """

    __slots__ = (
        # identity; xid is the control message's cid, and latency is
        # one-way (without the fate's extra_delay)
        "fabric", "src_hca", "src_node", "dst_node", "size", "kind",
        "t_posted", "xid", "latency",
        # post-time fate (fault injection): CQE status and extra
        # in-flight delay; for control, deliver / drop / dup
        "status", "extra_delay", "action",
        # port walk
        "dst_hca", "serialization",
        # data landing
        "meta", "on_deliver", "completed", "via", "path", "_dv",
        # control landing (inbox stays None on data messages)
        "inbox", "msg",
        # flows: the unshared rx re-serialization tail, the engine's
        # flow id, the 1-based transmission attempt (bumped per
        # flow-drop retransmit), the port-seconds still to send after a
        # mid-flight drop (None when the current flow carries the
        # message to completion), and the posting ProcessContext (lets a
        # proxy kill abort the flows it had in flight)
        "tail", "fid", "attempt", "drop_remaining", "owner",
    )

    def __init__(self, fabric, src_hca, src_node, dst_node, size, kind,
                 t_posted, xid, latency):
        self.sim = fabric.sim
        self.callbacks = None
        self._value = None
        self._ok = True
        self._scheduled = False
        self._defused = False
        self.fabric = fabric
        self.src_hca = src_hca
        self.src_node = src_node
        self.dst_node = dst_node
        self.size = size
        self.kind = kind
        self.t_posted = t_posted
        self.xid = xid
        self.latency = latency
        self.status = "ok"
        self.extra_delay = 0.0
        self.inbox = None
        self.via = "event"
        #: Link keys the flow crosses; None on the port walk.
        self.path = None

    def _file_at(self, steps, when: float) -> None:
        """File the message at absolute time ``when`` to run ``steps``."""
        self.callbacks = steps
        self._scheduled = False
        self.sim._schedule_at(self, when)

    # -- the port walk ---------------------------------------------------
    # The timed hops inline _file_at: they run once per hop per message.
    def walk(self, dst_hca, serialization) -> None:
        self.dst_hca = dst_hca
        self.serialization = serialization
        # The first hop queues behind what the current instant already
        # holds: the tx port is asked for when it pops, not at post time.
        self.callbacks = _START
        self.sim._cur.append(self)

    def _start(self):
        self.callbacks = _TX_GRANTED
        self.src_hca.tx.acquire(self)

    def _tx_granted(self):
        self.callbacks = _TX_DONE
        self._scheduled = False
        sim = self.sim
        sim._schedule_at(self, sim.now + self.serialization)

    def _tx_done(self):
        self.src_hca.tx.release(self)
        self.callbacks = _ARRIVED
        self._scheduled = False
        sim = self.sim
        sim._schedule_at(self, sim.now + (self.latency + self.extra_delay))

    def _arrived(self):
        self.callbacks = _RX_GRANTED
        self.dst_hca.rx.acquire(self)

    def _rx_granted(self):
        # Control messages are gap-bound; their rx dwell is the same
        # single-packet window as their tx dwell.
        self.callbacks = _RX_DONE
        self._scheduled = False
        sim = self.sim
        sim._schedule_at(self, sim.now + self.serialization)

    def _rx_done(self):
        self.dst_hca.rx.release(self)
        if self.inbox is None:
            self.land()
        else:
            self._land_control()

    # -- landing -----------------------------------------------------------
    def land(self) -> None:
        """Last byte at the destination: deliver now, CQE after the ack."""
        sim = self.sim
        fabric = self.fabric
        status = self.status
        now = sim.now
        dv = self._dv = Delivery(self.src_node, self.dst_node, self.size,
                                 self.kind, self.meta, now, status, self.via,
                                 self.path)
        # An error CQE moves no bytes: skip the payload callback.
        if self.on_deliver is not None and status == "ok":
            self.on_deliver(dv)
        bus = fabric.bus
        if bus is not None:
            bus.emit("xfer", "deliver", fabric.hcas[self.dst_node].lane, xid=self.xid,
                     status=status, **self._via_tag())
        lat = fabric.xfer_lat.get(self.kind)
        if lat is None:
            lat = fabric.xfer_lat[self.kind] = self.src_hca.metrics.samples(
                "fabric.xfer_latency." + self.kind)
        lat.append(now - self.t_posted)
        self.callbacks = _ACKED
        self._scheduled = False
        sim._schedule_at(self, now + fabric.params.ack_latency)

    def _acked(self):
        bus = self.fabric.bus
        if bus is not None:
            bus.emit("xfer", "complete", self.src_hca.lane, xid=self.xid,
                     status=self.status, **self._via_tag())
        self.completed.succeed(self._dv)

    def _via_tag(self) -> dict:
        # Event-engine xfer events carry no ``via`` arg (golden traces).
        return {"via": "flow"} if self.via == "flow" else {}

    def _land_control(self) -> None:
        src_hca = self.src_hca
        action = self.action
        bus = self.fabric.bus
        if action == "drop":
            # Lost in flight or discarded by the receiver's ICRC check:
            # it never reaches the inbox.
            src_hca.metrics.add("fabric.faults.drop")
            if bus is not None:
                bus.emit("ctrl", "drop", self.dst_hca.lane, cid=self.xid,
                         kind=self.kind)
            return
        self.inbox.put(self.msg)
        if action == "dup":
            src_hca.metrics.add("fabric.faults.dup")
            self.inbox.put(self.msg)
        if bus is not None:
            bus.emit("ctrl", "deliver", self.dst_hca.lane, cid=self.xid,
                     kind=self.kind)
        fabric = self.fabric
        lat = fabric.ctrl_lat
        if lat is None:
            lat = fabric.ctrl_lat = src_hca.metrics.samples("fabric.ctrl_latency")
        lat.append(self.sim.now - self.t_posted)


# One step per hop, as the ``callbacks`` a message files itself with
# (a shared tuple: the kernel only reads it).
_START = (_Message._start,)
_TX_GRANTED = (_Message._tx_granted,)
_TX_DONE = (_Message._tx_done,)
_ARRIVED = (_Message._arrived,)
_RX_GRANTED = (_Message._rx_granted,)
_RX_DONE = (_Message._rx_done,)
_LAND = (_Message.land,)
_ACKED = (_Message._acked,)


class Fabric:
    def __init__(self, sim: Simulator, hcas: list[Hca], params: MachineParams,
                 spec):
        self.sim = sim
        self.hcas = hcas
        self.params = params
        #: The ClusterSpec: hop counts (a two-level leaf/spine fabric
        #: when spec.nodes_per_switch > 0) and the flows' byte threshold.
        self.spec = spec
        #: Optional :class:`~repro.hw.faults.FaultPlan`; None leaves every
        #: message its default fate (status "ok", no delay, "deliver").
        self.fault_plan = None
        #: Optional :class:`~repro.obs.events.EventBus`; set by
        #: ``EventBus.attach``.  None keeps every message emission-free.
        self.bus = None
        #: :class:`~repro.sim.flows.FlowEngine` and the
        #: :class:`~repro.hw.topology.FatTreeTopology` its flows cross,
        #: set together by :meth:`attach_flow_engine`; None on a single
        #: switch keeps every transfer on the exact port walk.
        self.flow_engine = None
        self.topology = None
        # Per-fabric ids tagging bus events so posts/deliveries/
        # completions of one message correlate (deterministic: assigned
        # in post order).
        self._xfer_seq = 0
        self._ctrl_seq = 0
        # (src, dst) -> one-way latency; the topology is static, so the
        # hop count never needs recomputing per message.
        self._lat_cache: dict[tuple[int, int], float] = {}
        # control_route's arguments -> its route, shared by every sender.
        self._routes: dict[tuple, tuple] = {}
        #: Live sample arrays of the latency histograms (per data kind,
        #: and the control one), fetched from the metrics on first use.
        self.xfer_lat: dict[str, Any] = {}
        self.ctrl_lat = None

    def attach_flow_engine(self, engine, topology) -> None:
        """Make bulk data transfers (at least ``spec.fluid_threshold``
        bytes) rate-shared flows over ``topology``'s link paths (tx
        port, spine up/down links, rx port); everything else stays
        event-exact.  The engine water-fills over the full flow x link
        incidence, and the fabric surfaces ``link.congested`` /
        ``link.clear`` obs events on contention edges.
        """
        self.flow_engine = engine
        self.topology = topology
        engine.on_congestion = self._on_link_congestion

    def one_way_latency(self, src_node: int, dst_node: int) -> float:
        lat = self._lat_cache.get((src_node, dst_node))
        if lat is None:
            if src_node == dst_node:
                lat = self.params.wire_latency
            else:
                hops = self.spec.switch_hops(src_node, dst_node)
                lat = self.params.wire_latency + hops * self.params.switch_hop_latency
            self._lat_cache[(src_node, dst_node)] = lat
        return lat

    def transfer(
        self,
        *,
        src_node: int,
        dst_node: int,
        size: int,
        initiator: str,
        src_mem: str = "host",
        dst_mem: str = "host",
        on_deliver: Optional[Callable[[Delivery], None]] = None,
        meta: Any = None,
        kind: str = "data",
        bw_scale: float = 1.0,
        owner: Any = None,
    ) -> Transfer:
        """Start a one-sided data movement; post overhead is the caller's.

        Returns immediately with a handle whose ``completed`` event fires
        when the initiator would see the CQE (delivery + hardware ack);
        its value is the :class:`Delivery`.  The destination learns of
        the bytes through ``on_deliver`` at the landing instant.  A post
        the fabric rejects (negative size, unknown initiator or memory
        kind) raises before anything is counted, emitted or drawn.
        """
        if size < 0:
            raise ValueError("negative message size")
        src_hca = self.hcas[src_node]
        serialization = src_hca.serialization_time(
            size, initiator, src_mem, dst_mem
        ) / max(1e-9, bw_scale)
        completed = self.post(src_hca, self.hcas[dst_node], size, initiator,
                              serialization, on_deliver, kind, owner, meta)
        return Transfer(completed, size)

    def post(self, src_hca: Hca, dst_hca: Hca, size: int, initiator: str,
             serialization: float, on_deliver, kind: str, owner: Any,
             meta: Any = None) -> Event:
        """:meth:`transfer` from a resolved work request: ``serialization``
        is the (bandwidth-scaled) port window :meth:`transfer` computes
        and ``initiator`` one it has accepted.  Returns the CQE event.
        """
        completed = self.sim.event()
        if initiator == "dpu":
            src_hca.dpu_msgs += 1
            src_hca.dpu_bytes += size
        else:
            src_hca.host_msgs += 1
            src_hca.host_bytes += size
        if src_hca.bus is not None:
            src_hca.bus.emit("wqe", "post", src_hca.lane, initiator=initiator, size=size)
        src_node, dst_node = src_hca.node_id, dst_hca.node_id
        t_posted = self.sim.now
        xid = self._xfer_seq
        self._xfer_seq += 1
        bus = self.bus
        if bus is not None:
            bus.emit("xfer", "post", src_hca.lane, xid=xid, kind=kind,
                     size=size, initiator=initiator, dst=dst_node)

        m = _Message(self, src_hca, src_node, dst_node, size, kind, t_posted,
                     xid, self.one_way_latency(src_node, dst_node))
        m.meta = meta
        m.on_deliver = on_deliver
        m.completed = completed
        plan = self.fault_plan
        if plan is not None:
            m.status, m.extra_delay = plan.transfer_fate(
                kind, initiator, src_node, dst_node)

        # On a fat-tree, bulk data rides the rate-shared FlowEngine;
        # control messages (Fabric.control) and sub-threshold transfers
        # keep the exact port walk.  An armed FaultPlan composes with the
        # flow path: the transfer_fate decided above (error CQE / extra
        # delay, drawn from the shared "faults" stream at the same point
        # for both engines) rides the flow's protocol tail, and per-flow
        # drop fates come from the plan's independent flow stream.
        engine = self.flow_engine
        if engine is not None and size >= self.spec.fluid_threshold:
            self._flow_transfer(engine, m, serialization, owner)
        else:
            m.walk(dst_hca, serialization)
        return completed

    # -- fat-tree flows (docs/PERFORMANCE.md) ----------------------------
    def _flow_transfer(self, engine, st: _Message, work: float,
                       owner: Any) -> None:
        """Route one bulk transfer through the rate-shared FlowEngine.

        The flow's *work* is the store-and-forward serialization window
        in port-seconds; its drain marks the last byte leaving the
        shared tx port.  The unshared protocol tail -- wire latency plus
        the destination's re-serialization plus the hardware ack -- is
        appended verbatim, so a solo flow lands on exactly the event
        engine's timestamps (post + 2*serialization + latency [+ ack])
        and n symmetric flows on one port pair drain in n*serialization,
        matching the pipelined port walk.

        Fault composition: ``st.status``/``st.extra_delay`` are the
        post-time ``transfer_fate`` (an error CQE still occupies the
        ports for the full window, exactly like the event path; extra
        delay stretches the in-flight tail).  Mid-flight *drops* are
        flow-native fates drawn per admission from the plan's
        independent stream: the flow carries only the pre-glitch
        fraction of its work, and the remainder is retransmitted as a
        fresh flow after an exponential backoff (``RetryPolicy``).
        """
        st.via = "flow"
        st.tail = work
        st.attempt = 1
        st.owner = owner
        st.src_hca.metrics.add("fabric.flows")
        self._flow_admit(engine, st, work)

    def _flow_admit(self, engine, st: _Message, work: float) -> None:
        """Admit (or re-admit) a flow, consulting the plan's flow fates.

        A "drop" fate splits ``work``: the admitted flow carries the
        pre-glitch fraction and ``st.drop_remaining`` holds the rest for
        the retransmit scheduled at drain time.  Fates stop being
        consulted past ``RetryPolicy.rdma_retry_limit`` attempts, so a
        retransmit storm is bounded and every message still completes.
        """
        plan = self.fault_plan
        st.drop_remaining = None
        if (plan is not None and st.status == "ok"
                and plan.spec.flow_drop_prob > 0.0
                and st.attempt <= plan.retry.rdma_retry_limit):
            action, frac = plan.flow_fate(st.kind, st.src_node, st.dst_node,
                                          st.attempt)
            if action == "drop":
                st.drop_remaining = work * (1.0 - frac)
                work = work * frac
        path = st.path = self.topology.path(st.src_node, st.dst_node)
        flow = engine.add_flow(path=path, work=work,
                               finish=self._flow_drained, tag=st)
        st.fid = flow.fid
        bus = self.bus
        if bus is not None:
            bus.emit("flow", "begin", f"flow{flow.fid}", fid=flow.fid,
                     xid=st.xid, kind=st.kind, size=st.size,
                     src=st.src_node, dst=st.dst_node, attempt=st.attempt)

    def _on_link_congestion(self, key, congested: bool, nflows: int) -> None:
        """FlowEngine congestion hook: count + surface contention edges."""
        if congested and self.hcas:
            self.hcas[0].metrics.add("fabric.link_congested")
        bus = self.bus
        if bus is not None:
            bus.emit("link", "congested" if congested else "clear",
                     "fabric", link=str(key), nflows=nflows)

    def _flow_drained(self, flow, t_drain: float) -> None:
        """FlowEngine finish callback: close the window, arm the tail.

        A flow whose admission drew a drop fate does not deliver: its
        window closes at the glitch point and the residual work is
        retransmitted as a fresh flow after an exponential backoff.
        """
        st = flow.tag
        bus = self.bus
        if st.drop_remaining is not None:
            remaining = st.drop_remaining
            plan = self.fault_plan
            retry = plan.retry
            backoff = min(
                retry.rdma_backoff * (retry.backoff ** (st.attempt - 1)),
                retry.max_timeout,
            )
            st.src_hca.metrics.add("fabric.flow_drops")
            if bus is not None:
                bus.emit("flow", "fault", f"flow{flow.fid}", fid=flow.fid,
                         xid=st.xid, action="drop", attempt=st.attempt)
                bus.emit("flow", "end", f"flow{flow.fid}", fid=flow.fid,
                         xid=st.xid)
            self.sim.call_at(t_drain + backoff,
                             lambda _ev: self._flow_retry(st, remaining))
            plan.note_flow_retry(st.kind, st.src_node, st.dst_node,
                                 st.attempt, backoff)
            return
        if bus is not None:
            bus.emit("flow", "end", f"flow{flow.fid}", fid=flow.fid,
                     xid=st.xid)
        st._file_at(_LAND, t_drain + st.latency + st.tail + st.extra_delay)

    def _flow_retry(self, st: _Message, remaining: float) -> None:
        """Retransmit a dropped flow's residual work as a fresh flow."""
        engine = self.flow_engine
        st.attempt += 1
        st.src_hca.metrics.add("fabric.flow_retries")
        bus = self.bus
        if bus is not None:
            bus.emit("flow", "retry", st.src_hca.lane, xid=st.xid,
                     attempt=st.attempt, kind=st.kind)
        self._flow_admit(engine, st, remaining)

    def abort_flows(self, owner: Any) -> int:
        """Cancel every in-flight flow posted by ``owner`` (process death).

        Each aborted flow's window closes at the cancel instant and its
        transfer completes promptly with an **error CQE** (status
        "error", no bytes moved) -- mirroring how a real RC QP flushes
        outstanding WQEs with flush errors when its owner dies.  The
        initiating layer's normal error/retransmit recovery takes over
        from there.  Returns the number of flows aborted.
        """
        engine = self.flow_engine
        if engine is None:
            return 0
        aborted = 0
        bus = self.bus
        for flow in engine.flows():
            st = flow.tag
            if not isinstance(st, _Message) or st.owner is not owner:
                continue
            if engine.cancel_flow(flow) is None:
                continue  # drained in this very instant; the tail runs
            aborted += 1
            st.status = "error"
            st.drop_remaining = None
            st.src_hca.metrics.add("fabric.flow_aborts")
            if bus is not None:
                bus.emit("flow", "fault", f"flow{flow.fid}", fid=flow.fid,
                         xid=st.xid, action="abort", attempt=st.attempt)
                bus.emit("flow", "end", f"flow{flow.fid}", fid=flow.fid,
                         xid=st.xid)
            # The flush error surfaces after the protocol tail (the
            # in-flight bytes still have to land somewhere); delivery
            # carries status="error" so nothing moves and consumers see
            # the failed CQE.
            st._file_at(_LAND, self.sim.now + st.latency + st.tail)
        return aborted

    def control(
        self,
        *,
        src_node: int,
        dst_node: int,
        initiator: str,
        inbox,
        msg: Any,
        size: Optional[int] = None,
        src_mem: str = "host",
        dst_mem: str = "host",
        kind: str = "ctrl",
    ) -> None:
        """Send a small control message into ``inbox`` (a Store).

        Control messages ride the same engines as data (they *are* small
        RDMA sends) but skip the completion plumbing: nothing fires on
        the sender's side, and the receiver learns of the message by
        getting it from ``inbox``.  Same-node host<->DPU control costs
        ``ctrl_latency`` one way, matching the paper's observation that
        the loopback path is latency-comparable to the wire.

        ``kind`` names the protocol message ("rts", "fin", "counter",
        ...) for tracing and for :class:`~repro.hw.faults.FaultPlan`
        targeting.  A dropped message never reaches ``inbox`` (senders
        treat control traffic as fire-and-forget; recovery is the
        receiver's retransmit/timeout protocol).
        """
        self.send_control(self._route(src_node, dst_node, initiator, size,
                                      src_mem, dst_mem), inbox, msg, kind)

    def control_route(self, src_node: int, dst_node: int, initiator: str,
                      size: Optional[int] = None, src_mem: str = "host",
                      dst_mem: str = "host") -> tuple:
        """What every control message between two endpoints costs, worked
        out once per fabric: ``(src_hca, dst_hca, nbytes, initiator,
        serialization, latency)``, for :meth:`send_control`.  For the
        senders that keep a route; a one-off :meth:`control` files none."""
        key = (src_node, dst_node, initiator, size, src_mem, dst_mem)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._route(*key)
        return route

    def _route(self, src_node: int, dst_node: int, initiator: str,
               size: Optional[int], src_mem: str, dst_mem: str) -> tuple:
        nbytes = self.params.ctrl_bytes if size is None else size
        src_hca = self.hcas[src_node]
        serialization = src_hca.serialization_time(nbytes, initiator,
                                                   src_mem, dst_mem)
        latency = (
            self.params.ctrl_latency
            if src_node == dst_node
            else self.one_way_latency(src_node, dst_node)
        )
        return src_hca, self.hcas[dst_node], nbytes, initiator, serialization, latency

    def send_control(self, route: tuple, inbox, msg: Any, kind: str) -> None:
        """:meth:`control` over a :meth:`control_route`."""
        src_hca, dst_hca, nbytes, initiator, serialization, latency = route
        if initiator == "dpu":
            src_hca.dpu_msgs += 1
            src_hca.dpu_bytes += nbytes
        else:
            src_hca.host_msgs += 1
            src_hca.host_bytes += nbytes
        if src_hca.bus is not None:
            src_hca.bus.emit("wqe", "post", src_hca.lane, initiator=initiator, size=nbytes)
        src_hca.control_msgs += 1
        cid = self._ctrl_seq
        self._ctrl_seq += 1
        t_posted = self.sim.now
        bus = self.bus
        if bus is not None:
            bus.emit("ctrl", "post", src_hca.lane, cid=cid, kind=kind,
                     size=nbytes, initiator=initiator, dst=dst_hca.node_id)
        m = _Message(self, src_hca, src_hca.node_id, dst_hca.node_id, nbytes, kind,
                     t_posted, cid, latency)
        m.inbox = inbox
        m.msg = msg
        m.action = "deliver"
        plan = self.fault_plan
        if plan is not None:
            m.action, m.extra_delay = plan.control_fate(kind, src_hca.node_id,
                                                        dst_hca.node_id)
        m.walk(dst_hca, serialization)
