"""Cluster assembly: nodes, fabric, process contexts, shared services."""

from __future__ import annotations

from collections.abc import Sequence

from repro.hw.fabric import Fabric
from repro.hw.topology import FatTreeTopology
from repro.hw.metrics import Metrics
from repro.hw.node import Node, ProcessContext
from repro.hw.params import ClusterSpec
from repro.sim import FlowEngine, RngRegistry, Simulator

__all__ = ["Cluster", "LazySeq"]


class LazySeq(Sequence):
    """Fixed-length sequence whose items are built on first index.

    ``factory(i)`` runs once per index and the result is cached;
    iteration and slicing build whatever they visit, so code that
    genuinely needs every item still works.  Every per-rank container
    (rank and proxy contexts here, ``MpiWorld.runtimes``) is one of
    these: the factories are plain calls with no simulator side
    effects, which is what makes first-touch creation timing-invisible
    (tests/test_scale_out.py holds the differential proof).
    """

    def __init__(self, what: str, count: int, factory):
        self._what = what
        self._count = count
        self._factory = factory
        self._made: dict = {}

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(self._count))]
        if idx < 0:
            idx += self._count
        if not 0 <= idx < self._count:
            raise IndexError(f"{self._what} {idx} out of range")
        item = self._made.get(idx)
        if item is None:
            item = self._made[idx] = self._factory(idx)
        return item

    def close(self) -> None:
        """Build nothing more: lets go of the factory (it closes over the owner)."""
        self._factory = None

    def materialized(self) -> list:
        """The items built so far, in index order."""
        return [self._made[i] for i in sorted(self._made)]


class Cluster:
    """The complete simulated machine.

    Construction wires up every node's HCA into one fabric; the
    :class:`~repro.hw.node.ProcessContext` of a host rank or DPU proxy
    is created the first time ``ranks[r]`` / ``proxies[g]`` is indexed.
    Higher layers (verbs, MPI, offload) attach their state to these
    contexts; the cluster itself stays protocol-agnostic.
    """

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.params = spec.params
        self.sim = Simulator()
        self.metrics = Metrics()
        self.rng = RngRegistry(spec.seed)
        #: Optional :class:`~repro.hw.faults.FaultPlan` (chaos testing);
        #: installed via :meth:`install_faults`, None for clean runs.
        self.fault_plan = None
        #: Set by ``OffloadFramework`` at Init_Offload, which reads
        #: :attr:`fault_plan` once: a plan installed later is refused.
        self.offload_initialized = False
        #: Optional :class:`~repro.obs.events.EventBus`; set by
        #: ``EventBus.attach`` (or ``repro.obs.observe_cluster``).
        #: Declared here so the hot consume path can test it with a
        #: plain attribute load.
        self.bus = None
        #: When False, deliveries skip moving real bytes (perf-only
        #: sweeps whose programs never read the payload buffers set
        #: this; validation programs leave it True).  Simulated timing
        #: is computed from sizes, never from buffer contents, so this
        #: cannot change any simulated result.
        self.payloads = True

        self.nodes: list[Node] = [Node(self, n) for n in range(spec.nodes)]
        self.fabric = Fabric(self.sim, [n.hca for n in self.nodes], self.params,
                             spec=spec)

        #: Leaf/spine link graph the flows contend on; None on the
        #: paper's single switch, which runs the exact port walk alone.
        self.topology = None
        if spec.nodes_per_switch > 0:
            engine = FlowEngine(self.sim)
            self.sim.attach_flow_engine(engine)
            self.topology = FatTreeTopology(spec)
            self.fabric.attach_flow_engine(engine, self.topology)

        ppd = spec.proxies_per_dpu
        #: Host rank contexts, indexed by MPI rank (built on first index).
        self.ranks = LazySeq(
            "host context", spec.world_size,
            lambda rank: ProcessContext(
                self, "host", spec.node_of_rank(rank),
                global_id=rank, local_id=spec.local_rank(rank)),
        )
        #: Proxy contexts, node-major (built on first index).
        self.proxies = LazySeq(
            "dpu context", spec.nodes * ppd,
            lambda gid: ProcessContext(
                self, "dpu", gid // ppd, global_id=gid, local_id=gid % ppd),
        )

    # -- fault injection ----------------------------------------------------
    def install_faults(self, plan) -> "Cluster":
        """Attach a :class:`~repro.hw.faults.FaultPlan` to this machine.

        Binds the plan to the cluster's seeded RNG registry and hands it
        to the fabric.  Must happen before traffic flows and before an
        ``OffloadFramework`` is built: Init_Offload reads the plan to
        build the recovery layer and arm scheduled proxy kills, so a
        later plan would drop messages nothing recovers.
        """
        if self.offload_initialized:
            raise ValueError(
                "install_faults after OffloadFramework(cluster): install the "
                "fault plan first, then build the framework")
        self.fault_plan = plan.bind(self)
        self.fabric.fault_plan = self.fault_plan
        if self.bus is not None:
            self.fault_plan.bus = self.bus
        return self

    def close(self) -> None:
        """End of life of the machine, processing no event: the simulator
        forgets its calendar and every pointer back up to the cluster is
        dropped, so dropping the cluster frees it by reference counting.
        ``metrics``, ``sim.now`` / ``processed_events`` / ``flow_engine``
        counters and each built context's ``busy_time`` stay readable.
        ``with Cluster(spec) as cl:`` closes it on the way out."""
        self.sim.close()
        self.metrics.settle()
        for node in self.nodes:
            node.hca.tx.clear()
            node.hca.rx.clear()
        engine = self.sim.flow_engine
        if engine is not None:
            engine.sim = engine.on_congestion = None
        for seq in (self.ranks, self.proxies):
            seq.close()
            for ctx in seq.materialized():
                ctx.cluster = None
                ctx.free_listeners.clear()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- lookups -----------------------------------------------------------
    @property
    def world_size(self) -> int:
        return self.spec.world_size

    def rank_ctx(self, rank: int) -> ProcessContext:
        return self.ranks[rank]

    def proxy_ctx(self, node_id: int, local_idx: int) -> ProcessContext:
        return self.proxies[node_id * self.spec.proxies_per_dpu + local_idx]

    def proxy_for_rank(self, rank: int) -> ProcessContext:
        """The DPU worker that serves ``rank`` (paper's modulo mapping)."""
        node_id = self.spec.node_of_rank(rank)
        return self.proxy_ctx(node_id, self.spec.proxy_of_rank(rank))

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.spec.node_of_rank(rank_a) == self.spec.node_of_rank(rank_b)

