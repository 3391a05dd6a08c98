"""Cluster assembly: nodes, fabric, process contexts, shared services."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.hw.fabric import Fabric
from repro.hw.fluid import resolve_fluid
from repro.hw.topology import FatTreeTopology, resolve_topology_spec
from repro.hw.metrics import Metrics
from repro.hw.node import Node, ProcessContext
from repro.hw.params import ClusterSpec
from repro.sim import FlowEngine, RngRegistry, Simulator

__all__ = ["Cluster"]


class _LazyContexts(Sequence):
    """List-like view over a slim cluster's rank or proxy contexts.

    Indexing materializes (and caches) the requested
    :class:`~repro.hw.node.ProcessContext`; iteration materializes the
    lot, so code that genuinely needs every context still works.
    Construction is a plain call with no simulator side effects, which
    is what makes first-touch creation timing-invisible (see
    tests/test_scale_slim.py for the differential proof).
    """

    def __init__(self, cluster: "Cluster", kind: str, count: int):
        self._cluster = cluster
        self._kind = kind
        self._count = count
        self._made: dict[int, ProcessContext] = {}

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(self._count))]
        if idx < 0:
            idx += self._count
        if not 0 <= idx < self._count:
            raise IndexError(f"{self._kind} context {idx} out of range")
        ctx = self._made.get(idx)
        if ctx is None:
            ctx = self._made[idx] = self._make(idx)
        return ctx

    def _make(self, idx: int) -> ProcessContext:
        cl = self._cluster
        spec = cl.spec
        if self._kind == "host":
            return ProcessContext(
                cl, "host", spec.node_of_rank(idx),
                global_id=idx, local_id=spec.local_rank(idx),
            )
        return ProcessContext(
            cl, "dpu", idx // spec.proxies_per_dpu,
            global_id=idx, local_id=idx % spec.proxies_per_dpu,
        )

    def materialized(self) -> list[ProcessContext]:
        """The contexts created so far, in id order."""
        return [self._made[i] for i in sorted(self._made)]


class Cluster:
    """The complete simulated machine.

    Construction wires up every node's HCA into one fabric and creates a
    :class:`~repro.hw.node.ProcessContext` for each host rank and each
    DPU proxy.  Higher layers (verbs, MPI, offload) attach their state to
    these contexts; the cluster itself stays protocol-agnostic.
    """

    def __init__(self, spec: ClusterSpec):
        # Ambient fat-tree overrides (repro.hw.topology.using_topology /
        # REPRO_NODES_PER_SWITCH ...) land only on fields the spec left
        # at defaults; with none set this is the spec itself, unchanged.
        spec = resolve_topology_spec(spec)
        self.spec = spec
        self.params = spec.params
        self.sim = Simulator()
        self.metrics = Metrics()
        self.rng = RngRegistry(spec.seed)
        #: Optional :class:`~repro.hw.faults.FaultPlan` (chaos testing);
        #: installed via :meth:`install_faults`, None for clean runs.
        self.fault_plan = None
        #: Optional :class:`~repro.hw.faults.LinkDegradePlan` (fluid
        #: mode only); installed via :meth:`install_link_degrade`.
        self.link_plan = None
        #: Optional :class:`~repro.obs.events.EventBus`; set by
        #: ``EventBus.attach`` (or ``repro.obs.observe_cluster``).
        self.bus = None
        #: Optional :class:`~repro.hw.trace.Tracer`; set by
        #: ``Tracer.attach``.  Declared here so the hot consume/transfer
        #: paths can test it with a plain attribute load.
        self.tracer = None
        #: When False, deliveries skip moving real bytes (perf-only
        #: sweeps whose programs never read the payload buffers set
        #: this; validation programs leave it True).  Simulated timing
        #: is computed from sizes, never from buffer contents, so this
        #: cannot change any simulated result.
        self.payloads = True

        self.nodes: list[Node] = [Node(self, n) for n in range(spec.nodes)]
        self.fabric = Fabric(self.sim, [n.hca for n in self.nodes], self.params,
                             spec=spec)

        #: Hybrid engine selection (docs/PERFORMANCE.md): explicit
        #: ``spec.fluid`` wins, ``None`` inherits the ambient default
        #: (``runall --fluid`` / ``repro.hw.fluid.using_fluid``).  Exact
        #: mode leaves ``fabric.flow_engine`` as None, so every existing
        #: code path is untouched byte for byte.
        self.fluid, self.fluid_threshold = resolve_fluid(spec)
        #: Explicit leaf/spine link graph (fluid mode with
        #: ``nodes_per_switch > 0``); None keeps flows endpoint-only.
        self.topology = None
        if self.fluid:
            engine = FlowEngine(self.sim, threshold=self.fluid_threshold)
            self.sim.attach_flow_engine(engine)
            if spec.nodes_per_switch > 0:
                rng = (self.rng.stream("ecmp-paths")
                       if spec.path_selector == "random" else None)
                self.topology = FatTreeTopology(spec, rng=rng)
            self.fabric.attach_flow_engine(engine, self.fluid_threshold,
                                           topology=self.topology)

        n_proxies = spec.nodes * spec.proxies_per_dpu
        #: Shared busy-time bookkeeping for slim clusters: one float64
        #: slot per process (ranks first, then proxies) instead of one
        #: boxed float per context.  ``None`` when eager -- the consume
        #: hot path then stays a plain attribute add.
        self._busy_times = (
            np.zeros(spec.world_size + n_proxies) if spec.slim else None
        )

        if spec.slim:
            #: Host rank contexts, indexed by MPI rank (lazy when slim).
            self.ranks = _LazyContexts(self, "host", spec.world_size)
            #: Proxy contexts, node-major (lazy when slim).
            self.proxies = _LazyContexts(self, "dpu", n_proxies)
        else:
            #: Flat list of host rank contexts, indexed by MPI rank.
            self.ranks: list[ProcessContext] = []
            for rank in range(spec.world_size):
                node_id = spec.node_of_rank(rank)
                ctx = ProcessContext(
                    self, "host", node_id, global_id=rank,
                    local_id=spec.local_rank(rank)
                )
                self.nodes[node_id].host_procs.append(ctx)
                self.ranks.append(ctx)

            #: Flat list of proxy contexts, node-major.
            self.proxies: list[ProcessContext] = []
            for node_id in range(spec.nodes):
                for local_idx in range(spec.proxies_per_dpu):
                    gid = node_id * spec.proxies_per_dpu + local_idx
                    ctx = ProcessContext(
                        self, "dpu", node_id, global_id=gid, local_id=local_idx
                    )
                    self.nodes[node_id].dpu_procs.append(ctx)
                    self.proxies.append(ctx)

    def _busy_slot(self, kind: str, global_id: int):
        """Index of a process's slot in the shared busy-time array.

        ``None`` when this cluster is eager (contexts then keep a plain
        float, the faster path for the consume hot loop).
        """
        if self._busy_times is None:
            return None
        return global_id if kind == "host" else self.spec.world_size + global_id

    # -- fault injection ----------------------------------------------------
    def install_faults(self, plan) -> "Cluster":
        """Attach a :class:`~repro.hw.faults.FaultPlan` to this machine.

        Binds the plan to the cluster's seeded RNG registry and hands it
        to the fabric.  Must happen before traffic flows (ideally right
        after construction); scheduled proxy kills are armed by
        ``OffloadFramework`` at Init_Offload time.
        """
        self.fault_plan = plan.bind(self)
        self.fabric.fault_plan = self.fault_plan
        if self.bus is not None:
            self.fault_plan.bus = self.bus
        return self

    def install_link_degrade(self, plan) -> "Cluster":
        """Attach a :class:`~repro.hw.faults.LinkDegradePlan`.

        Requires fluid mode (the plan drives the FlowEngine's endpoint
        capacities); binding samples any seeded windows and schedules
        every degrade/restore edge on the simulator heap.  Install
        before traffic flows, and after ``EventBus.attach`` if the
        ``link.*`` events should be observed.
        """
        if self.bus is not None:
            plan.bus = self.bus
        self.link_plan = plan.bind(self)
        return self

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

    def run(self, until=None):
        """Convenience passthrough to the simulator."""
        return self.sim.run(until=until)
