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
* the message occupies the node's **tx port** for
  ``max(injection_gap(initiator), size / path_bandwidth)``;
* the destination's **rx port** is held for the same serialization
  window (this is what produces incast contention in dense patterns);
* ``path_bandwidth = min(src_memory_bw, wire_bw, dst_memory_bw)`` --
  a transfer touching DPU DRAM on either end is capped by it.
"""

from __future__ import annotations

from repro.hw.metrics import Metrics
from repro.hw.params import MachineParams
from repro.sim import Resource, Simulator

__all__ = ["Hca"]

#: Memory locations a DMA can touch.
MEM_KINDS = ("host", "dpu")
#: Cores that can post work requests.
INITIATOR_KINDS = ("host", "dpu")


class Hca:
    """Per-node HCA: tx/rx port resources plus cost helpers."""

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
        self.tx = Resource(sim, capacity=1)
        #: Inbound delivery engine.
        self.rx = Resource(sim, capacity=1)
        #: Optional :class:`~repro.obs.events.EventBus`.
        self.bus = None
        # Hot-path lookup tables (params are immutable for a run): the
        # cost helpers below stay the validating API; these serve
        # serialization_time/count_post without per-message branching.
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
        if initiator == "host":
            return self.params.host_post_overhead
        if initiator == "dpu":
            return self.params.dpu_post_overhead
        raise ValueError(f"unknown initiator kind {initiator!r}")

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
        try:
            msgs_label, bytes_label = self._post_labels[initiator]
        except KeyError:
            msgs_label = f"nic.{initiator}_posted_msgs"
            bytes_label = f"nic.{initiator}_posted_bytes"
        metrics = self.metrics
        metrics.add(msgs_label)
        metrics.add(bytes_label, size)
        if self.bus is not None:
            self.bus.emit("wqe", "post", self.lane,
                          initiator=initiator, size=size)
