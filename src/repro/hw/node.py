"""Nodes and the software processes that run on them."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.memory import AddressSpace
from repro.hw.nic import Hca
from repro.sim import Simulator, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import Cluster

__all__ = ["ProcessContext", "Node"]


class ProcessContext:
    """One simulated OS process: a host MPI rank or a DPU proxy/worker.

    Owns an address space (its virtual memory) and an inbox
    :class:`~repro.sim.resources.Store` into which the fabric deposits
    control messages.  All per-process protocol state (MPI runtime,
    offload endpoint, proxy engine) hangs off the context via the
    attributes the respective layers install.
    """

    def __init__(
        self,
        cluster: "Cluster",
        kind: str,
        node_id: int,
        global_id: int,
        local_id: int,
    ):
        if kind not in ("host", "dpu"):
            raise ValueError(f"unknown process kind {kind!r}")
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.kind = kind
        self.node_id = node_id
        #: Host ranks: the MPI rank.  Proxies: a global proxy index.
        self.global_id = global_id
        #: Index within this node (local rank / local proxy index).
        self.local_id = local_id
        #: Lane name on the bus (built once: ``consume`` and every emit
        #: read it).
        self.trace_name = f"{kind}{global_id}"
        #: The node's HCA, which every post of this process goes through.
        self.hca: Hca = cluster.nodes[node_id].hca
        #: Which DRAM this process's buffers live in.
        self.mem_kind = kind
        # Address space and inbox are built on first touch: neither
        # constructor has simulator side effects, and at thousand-rank
        # scale most of a figure's resident bytes would otherwise be
        # spent on contexts the program never exercises.
        self._space: AddressSpace | None = None
        self._inbox: Store | None = None
        #: Callbacks ``(addr, size)`` invoked by :meth:`free` after the
        #: range is released and covering keys are revoked -- caches
        #: register here to drop entries over freed memory.
        self.free_listeners: list = []
        #: Seconds of core time charged so far (diagnostics; incremented
        #: by :meth:`consume`).
        self.busy_time = 0.0

    @property
    def space(self) -> AddressSpace:
        """This process's virtual memory (materialized on first use)."""
        sp = self._space
        if sp is None:
            params = self.cluster.params
            budget = (
                params.host_mem_budget
                if self.kind == "host"
                else params.dpu_mem_budget
            )
            sp = self._space = AddressSpace(
                owner=f"{self.kind}{self.global_id}@n{self.node_id}",
                kind=self.kind,
                budget=budget,
                reuse=params.reuse_freed_addresses,
            )
        return sp

    @property
    def inbox(self) -> Store:
        """Control-message inbox (materialized on first use)."""
        ib = self._inbox
        if ib is None:
            ib = self._inbox = Store(self.sim)
        return ib

    # -- convenience ------------------------------------------------------
    def consume(self, seconds: float):
        """Occupy this process's core for ``seconds`` (a timeout event);
        an observed cluster's bus records the busy span."""
        self.busy_time += seconds
        bus = self.cluster.bus
        if bus is not None and seconds > 0:
            bus.span(self.trace_name, self.sim.now, self.sim.now + seconds)
        return self.sim.timeout(seconds)

    def free(self, addr: int) -> list:
        """Free ``addr`` and run the invalidation protocol.

        Revokes every registered key covering the range (so later use of
        a cached key raises ``ProtectionError`` instead of silently
        addressing recycled memory), bumps the space's registration
        epoch, and notifies ``free_listeners`` so caches drop their
        entries.  Returns the revoked ``(key, record)`` pairs.  Plain
        call (no simulated time).
        """
        size = self.space.size_of(addr)
        self.space.free(addr)
        revoked = []
        state = getattr(self.cluster, "_verbs", None)
        if state is not None:
            revoked = state.keys.revoke_covering(self, addr, size)
        metrics = self.cluster.metrics
        metrics.add("mem.frees")
        if revoked:
            metrics.add("verbs.revoked_keys", len(revoked))
        bus = self.cluster.bus
        if bus is not None:
            bus.emit(
                "mem", "free", self.trace_name,
                addr=addr, size=size, epoch=self.space.epoch,
            )
            from repro.verbs.mr import key_kind

            for key, info in revoked:
                bus.emit(
                    "reg", "revoke", self.trace_name,
                    key=key, kind=key_kind(info, key), size=info.size,
                )
        for listener in list(self.free_listeners):
            listener(addr, size)
        return revoked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind}{self.global_id} node={self.node_id}>"


class Node:
    """One cluster node: host CPUs + BlueField DPU behind a shared HCA."""

    def __init__(self, cluster: "Cluster", node_id: int):
        self.node_id = node_id
        self.hca = Hca(cluster.sim, node_id, cluster.params, cluster.metrics)
