"""ConnectX-style HCA engine model.

Each node has one HCA shared by the host CPUs and the BlueField ARM
subsystem (the paper's nodes have a separate ConnectX-6 for host traffic
and a BlueField-2 for offloaded traffic; modelling one shared engine
with per-initiator injection gaps keeps the same contention behaviour
while staying simple -- the asymmetry that matters is *who posts*, not
which physical port carries the bytes).

Cost model per message (LogGP-flavoured):

* the **initiator** pays a post overhead on its own core
  (charged by the caller, since it consumes that core's time);
* the message occupies the node's **tx port** (a FIFO :class:`Port`) for
  ``max(injection_gap(initiator), size / path_bandwidth)``;
* the destination's **rx port** is held for the same serialization
  window (this is what produces incast contention in dense patterns);
* ``path_bandwidth = min(src_memory_bw, wire_bw, dst_memory_bw)`` --
  a transfer touching DPU DRAM on either end is capped by it.
"""

from __future__ import annotations

from collections import deque

from repro.hw.metrics import Metrics
from repro.hw.params import MachineParams
from repro.sim import SimulationError, Simulator

__all__ = ["Hca", "Port"]

#: Memory locations a DMA can touch.
MEM_KINDS = ("host", "dpu")
#: Cores that can post work requests.
INITIATOR_KINDS = ("host", "dpu")


class Port:
    """One HCA port: a FIFO slot that one message holds at a time.

    A message sets its next step as its ``callbacks`` before it asks.
    A free port files it at the current instant; a busy one queues it,
    and the release that frees the port files the head of the queue at
    the releasing instant.  No request object is made and no event is
    processed for the port itself.
    """

    __slots__ = ("sim", "holder", "waiting")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.holder = None
        self.waiting: deque = deque()

    def acquire(self, msg) -> None:
        # The port is free only with nobody queued: release hands it on.
        if self.holder is None:
            self.holder = msg
            self.sim._cur.append(msg)
        else:
            self.waiting.append(msg)

    def release(self, msg) -> None:
        if self.holder is not msg:
            raise SimulationError("releasing a port this message does not hold")
        waiting = self.waiting
        if waiting:
            self.holder = nxt = waiting.popleft()
            self.sim._cur.append(nxt)
        else:
            self.holder = None

    def clear(self) -> None:
        """Forget the holder and the queue (end of life)."""
        self.holder = None
        self.waiting.clear()


class Hca:
    """Per-node HCA: tx/rx ports plus cost helpers."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: MachineParams,
        metrics: Metrics,
    ):
        self.sim = sim
        self.node_id = node_id
        #: Lane name of this node on the bus (built once).
        self.lane = f"node{node_id}"
        self.params = params
        self.metrics = metrics
        #: Outbound serialization engine (one QP scheduler's worth).
        self.tx = Port(sim)
        #: Inbound delivery engine.
        self.rx = Port(sim)
        #: Optional :class:`~repro.obs.events.EventBus`.
        self.bus = None
        # Hot-path lookup tables (params are immutable for a run): they
        # serve the cost helpers below without per-message branching.
        self._post_overhead = {
            "host": params.host_post_overhead,
            "dpu": params.dpu_post_overhead,
        }
        self._gap = {
            "host": params.host_injection_gap,
            "dpu": params.dpu_injection_gap,
        }
        self._bw = {
            (s, d): min(
                self.memory_bandwidth(s),
                params.wire_bandwidth,
                self.memory_bandwidth(d),
            )
            for s in MEM_KINDS
            for d in MEM_KINDS
        }
        self._post_labels = {
            kind: (f"nic.{kind}_posted_msgs", f"nic.{kind}_posted_bytes")
            for kind in INITIATOR_KINDS
        }

    # -- cost helpers -----------------------------------------------------
    def post_overhead(self, initiator: str) -> float:
        try:
            return self._post_overhead[initiator]
        except KeyError:
            raise ValueError(f"unknown initiator kind {initiator!r}") from None

    def memory_bandwidth(self, mem: str) -> float:
        if mem == "host":
            return self.params.host_memory_bandwidth
        if mem == "dpu":
            return self.params.dpu_memory_bandwidth
        raise ValueError(f"unknown memory kind {mem!r}")

    def serialization_time(
        self, size: int, initiator: str, src_mem: str, dst_mem: str
    ) -> float:
        """Port occupancy of one message."""
        try:
            gap = self._gap[initiator]
        except KeyError:
            raise ValueError(f"unknown initiator kind {initiator!r}") from None
        try:
            bw = self._bw[(src_mem, dst_mem)]
        except KeyError:
            bad = dst_mem if src_mem in MEM_KINDS else src_mem
            raise ValueError(f"unknown memory kind {bad!r}") from None
        return max(gap, size / bw)

    def count_post(self, initiator: str, size: int) -> None:
        """Count one post; the fabric has already validated ``initiator``
        (:meth:`serialization_time` runs first)."""
        msgs_label, bytes_label = self._post_labels[initiator]
        metrics = self.metrics
        metrics.add(msgs_label)
        metrics.add(bytes_label, size)
        if self.bus is not None:
            self.bus.emit("wqe", "post", self.lane,
                          initiator=initiator, size=size)
