"""Machine and cluster parameters.

All times are in **seconds**, all sizes in **bytes**, all bandwidths in
**bytes/second**.  The defaults model the paper's testbed: Broadwell
Xeon hosts, ConnectX-6-class HDR InfiniBand (~25 GB/s per port), and a
BlueField-2 SmartNIC whose 8 Cortex-A72 ARM cores run at roughly a
third of the host's single-core speed and whose on-card DRAM delivers
noticeably less bandwidth than the host's.

Calibration targets (paper Section II):

* Fig 2  -- RDMA-write *latency* host<->host vs host<->DPU nearly equal
  (the DPU adds a sub-microsecond ARM processing cost).
* Fig 3  -- host<->host small/medium-message *bandwidth* ~2x host<->DPU
  (ARM injection gap dominates small messages; DPU DRAM bandwidth caps
  large ones below the wire rate).
* Fig 4  -- staging through DPU DRAM roughly doubles pingpong latency.
* Fig 5  -- host GVMI registration cheaper than the DPU's
  cross-registration; both grow with the number of pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = ["DPU_CORES", "MachineParams", "ClusterSpec"]

#: ARM cores on each DPU (BlueField-2: 8).
DPU_CORES = 8


@dataclass(frozen=True)
class MachineParams:
    """LogGP-style cost constants for one homogeneous cluster."""

    # ----- fabric ------------------------------------------------------
    #: Peak per-port wire bandwidth (HDR InfiniBand, ~200 Gb/s).
    wire_bandwidth: float = 24.0e9
    #: Base one-way fabric latency, NIC-to-NIC, excluding serialization.
    wire_latency: float = 0.85e-6
    #: Extra latency per switch hop (single-switch topology => 1 hop).
    switch_hop_latency: float = 0.12e-6
    #: Hardware ACK / completion return latency.
    ack_latency: float = 0.55e-6

    # ----- host endpoint ----------------------------------------------
    #: CPU time to build a WQE and ring the doorbell.
    host_post_overhead: float = 0.15e-6
    #: Per-message NIC engine occupancy for host-posted messages
    #: (inverse of the host's small-message injection rate).
    host_injection_gap: float = 0.080e-6
    #: Rate at which the NIC can DMA to/from pinned *host* memory.
    host_memory_bandwidth: float = 24.0e9
    #: Cost of the host CPU handling one inbound control message.
    host_handler_cost: float = 0.10e-6

    # ----- DPU endpoint (BlueField-2 ARM subsystem) ---------------------
    #: ARM time to build a WQE and ring the doorbell (slower cores).
    dpu_post_overhead: float = 0.55e-6
    #: Per-message NIC engine occupancy for ARM-posted messages.  ~2.5x
    #: the host gap -> host-host streams see ~2x the message rate of
    #: DPU-involved streams at small sizes (Fig 3).
    dpu_injection_gap: float = 0.200e-6
    #: Rate for DMA to/from the BlueField's on-card DRAM (single-channel
    #: DDR4; distinctly below the wire rate, so staged transfers cannot
    #: reach host-host bandwidth even for large messages).
    dpu_memory_bandwidth: float = 13.0e9
    #: ARM time to handle one inbound control message (parse + queue ops).
    dpu_handler_cost: float = 0.35e-6
    #: ARM time for one send/recv queue matching step (Fig 8).
    dpu_match_cost: float = 0.12e-6

    # ----- host <-> local DPU control path ------------------------------
    #: One-way latency of a small control message between a host process
    #: and a proxy on the local DPU (loopback RDMA through the HCA; the
    #: paper notes this is close to host-host latency).
    ctrl_latency: float = 1.05e-6
    #: Serialized bytes of one RTS/RTR/FIN-style control message.
    ctrl_bytes: int = 64
    #: Serialized bytes of one Group_op entry inside a
    #: Group_Offload_packet.
    group_op_bytes: int = 48

    # ----- intra-node (shared-memory) path ------------------------------
    shm_latency: float = 0.30e-6
    shm_bandwidth: float = 16.0e9
    #: Per-message CPU cost of a shared-memory transfer (both sides are
    #: CPU copies, so intra-node traffic is never offloaded -- the paper
    #: makes the same observation for its 3DStencil overlap ceiling).
    shm_cpu_cost: float = 0.25e-6

    # ----- memory registration ------------------------------------------
    #: ibv_reg_mr on the host: base cost + per-4KiB-page pinning cost
    #: (~45 us/MiB -- page pinning dominates large registrations, which
    #: is why registration caches matter; Section II-C).
    host_reg_base: float = 1.60e-6
    host_reg_per_page: float = 0.180e-6
    #: ibv_reg_mr driven by the DPU's ARM cores (registering DPU DRAM,
    #: e.g. staging buffers): same machinery at ARM speed.
    dpu_reg_base: float = 3.20e-6
    dpu_reg_per_page: float = 0.240e-6
    #: Host-side GVMI registration (mkey): same machinery as ibv_reg_mr
    #: plus a GVMI context lookup.
    gvmi_reg_base: float = 1.90e-6
    gvmi_reg_per_page: float = 0.200e-6
    #: DPU-side cross-registration (mkey2): a device command issued from
    #: the slow ARM cores; costlier base, and it still walks the page
    #: list (Fig 5 shows it growing with size).
    xreg_base: float = 4.20e-6
    xreg_per_page: float = 0.280e-6
    #: Registration-cache lookup costs (array index + BST descent are
    #: cheap but not free; the DPU's is ARM-speed).
    host_cache_lookup: float = 0.040e-6
    dpu_cache_lookup: float = 0.110e-6
    #: Effective-bandwidth factor for data moved under an mkey2 (the
    #: cross-GVMI translation adds an indirection in the NIC's MTT
    #: walk).  Invisible for latency-bound transfers; erodes the
    #: framework's edge for very large ones -- the effect the paper
    #: blames for HPL's shrinking margin at 50-75% memory.
    gvmi_bw_factor: float = 0.93

    # ----- MPI runtime ---------------------------------------------------
    #: Library bookkeeping per MPI call (request alloc, queue checks).
    mpi_call_overhead: float = 0.10e-6
    #: Messages at or below this size go eager (copied through
    #: preregistered bounce buffers); above it, rendezvous.
    eager_threshold: int = 16 * 1024
    #: CPU copy bandwidth for eager copy-in/copy-out.
    copy_bandwidth: float = 11.0e9

    # ----- resource governance (docs/RESOURCES.md) -----------------------
    # All default to None / False = unbounded, byte-identical to the
    # pre-governance behaviour.  Budgets are bytes; capacities are entry
    # counts.
    #: Byte budget of each host rank's address space (None = unbounded).
    host_mem_budget: Optional[int] = None
    #: Byte budget of each DPU proxy's address space.  BlueField DRAM is
    #: the scarce resource the paper's caches exist to conserve.
    dpu_mem_budget: Optional[int] = None
    #: Opt-in: freed blocks are recycled LIFO per size class, so a
    #: free + same-size alloc returns the *same* address -- the
    #: buffer-reuse pattern that exercises stale-mkey invalidation.
    #: Off by default: the bump allocator's never-reuse property is what
    #: keeps registration-cache keys unambiguous in clean runs.
    reuse_freed_addresses: bool = False
    #: Max entries in each host IB registration cache (LRU evicts with a
    #: real dereg_mr, reclaiming KeyTable entries).
    ib_cache_capacity: Optional[int] = None
    #: Max entries in each GVMI registration cache (host mkey cache and
    #: DPU mkey2 cache; LRU eviction revokes the evicted key).
    gvmi_cache_capacity: Optional[int] = None
    #: Max prepared plans in each host-side group request cache.
    group_cache_capacity: Optional[int] = None
    #: Max plans in each proxy's DPU plan cache.  Eviction recovery runs
    #: through the plan_nack path, so a bounded plan cache requires a
    #: RetryPolicy -- checked at Init_Offload (see docs/RESOURCES.md).
    plan_cache_capacity: Optional[int] = None
    #: Admission window: max incomplete offload requests per endpoint;
    #: further posts block (in simulated time) until one completes.
    max_outstanding_offloads: Optional[int] = None
    #: Max incomplete one-sided SHMEM ops per PE before put/get blocks.
    shmem_queue_depth: Optional[int] = None

    # ----- thousand-rank scale-out (docs/PERFORMANCE.md "Scaling") -------
    # None (the default) is byte-identical to the pre-scale-out
    # behaviour: one proxy wakeup per message.
    #: Max inbox items a proxy drains per wakeup.  ``None`` (default)
    #: keeps the one-message-per-wakeup loop; a positive value switches
    #: the proxy to batched drain -- everything already queued (up to
    #: this many items) is handled under a *single* ARM handler charge,
    #: so proxy event count scales with batches, not messages.  Each
    #: drain emits one ``queue.drain`` event carrying the batch size.
    proxy_batch_drain: Optional[int] = None
    #: Ignored (every flush segment writes one counter per doorbell);
    #: accepted only because bench/workloads.py passes it -- delete with
    #: that argument in the next ``benchmark`` PR.
    counter_doorbell_batch: bool = False

    # ----- compute -------------------------------------------------------
    #: Host double-precision throughput per core (Broadwell ~ 2.4 GHz
    #: AVX2 FMA: ~16 flop/cycle sustained fraction).
    host_flops_per_core: float = 22.0e9

    def with_overrides(self, **kw) -> "MachineParams":
        """Return a copy with selected fields replaced."""
        return replace(self, **kw)

    @staticmethod
    def paper_testbed() -> "MachineParams":
        """The calibrated BlueField-2 / ConnectX-6 / Broadwell preset."""
        return MachineParams()

    @staticmethod
    def ideal_nic() -> "MachineParams":
        """A DPU with host-speed cores (ablation: isolates the ARM gap)."""
        p = MachineParams()
        return p.with_overrides(
            dpu_post_overhead=p.host_post_overhead,
            dpu_injection_gap=p.host_injection_gap,
            dpu_memory_bandwidth=p.host_memory_bandwidth,
            dpu_handler_cost=p.host_handler_cost,
            dpu_cache_lookup=p.host_cache_lookup,
            xreg_base=p.gvmi_reg_base,
            xreg_per_page=p.gvmi_reg_per_page,
        )

    @staticmethod
    def bluefield3() -> "MachineParams":
        """A BlueField-3 / NDR-400 projection (the paper's future work).

        16 Cortex-A78 cores at roughly twice the A72's effective speed,
        DDR5 on-card memory, and an NDR InfiniBand port.  The host side
        is sped up proportionally less (the same Broadwell hosts would
        not drive NDR; assume a modest CPU refresh), so the *relative*
        host-vs-DPU asymmetries narrow -- which is the interesting
        question the paper defers.
        """
        p = MachineParams()
        return p.with_overrides(
            wire_bandwidth=48.0e9,
            wire_latency=0.70e-6,
            host_memory_bandwidth=48.0e9,
            copy_bandwidth=18.0e9,
            dpu_post_overhead=0.30e-6,
            dpu_injection_gap=0.110e-6,
            dpu_memory_bandwidth=34.0e9,
            dpu_handler_cost=0.18e-6,
            dpu_cache_lookup=0.060e-6,
            xreg_base=2.60e-6,
            xreg_per_page=0.150e-6,
            dpu_reg_base=2.00e-6,
            dpu_reg_per_page=0.130e-6,
        )


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of a simulated cluster."""

    #: Number of nodes (the paper's testbed has 32; its runs use 4-16).
    nodes: int = 2
    #: Host MPI processes per node (paper: 32).
    ppn: int = 2
    #: Worker/proxy processes launched on each DPU by Init_Offload()
    #: (at most :data:`DPU_CORES`, one per ARM core).
    proxies_per_dpu: int = 4
    #: Root seed for all random streams.
    seed: int = 0
    #: Nodes per leaf switch.  0 (default) = the paper's single-switch
    #: topology, run on the exact port walk alone.  A value above 0
    #: selects the per-link model: a two-level leaf/spine fabric where
    #: cross-leaf traffic pays two extra switch hops and bulk transfers
    #: of at least :attr:`fluid_threshold` bytes become rate-shared
    #: :class:`~repro.sim.flows.FlowEngine` flows contending on an
    #: explicit leaf/spine link graph (see ``repro.hw.topology``).  A
    #: single leaf (``nodes_per_switch=nodes``) is the single switch
    #: with flows.
    nodes_per_switch: int = 0
    #: Equal-cost leaf<->spine uplinks per leaf (= number of spine
    #: switches).  Only meaningful with ``nodes_per_switch > 0``; the
    #: default single uplink makes every cross-leaf flow share one
    #: spine path.  Each leaf<->spine link carries one node port's
    #: capacity, so ``nodes_per_switch / spine_count`` is the tree's
    #: oversubscription ratio.
    spine_count: int = 1
    #: Ignored (flows exist exactly when :attr:`nodes_per_switch` > 0);
    #: accepted only because bench/workloads.py passes it -- delete with
    #: that argument in the next ``benchmark`` PR.
    fluid: bool = False
    #: Bulk/control split on a fat-tree.  Below it, messages are
    #: latency-bound, cheap to price exactly, and -- critically -- still
    #: *contend* with control traffic for the tx/rx ports, an effect the
    #: decoupled FlowEngine cannot see (flows only rate-share with other
    #: flows).  Measured on the figure suite run on a one-leaf tree
    #: (docs/PERFORMANCE.md): a 64 KiB threshold lets fig15's
    #: contention-coupled 64 KiB exchanges ride flows and distorts them
    #: by up to 10%; at 256 KiB every
    #: quick-scale figure matches the event engine to < 1e-9 relative.
    #: 16x the eager threshold also matches where serialization (not
    #: port arbitration) dominates the exact engine's timing.
    fluid_threshold: int = 256 * 1024
    #: Ignored (per-rank state is always lazy); accepted only because
    #: bench/workloads.py passes it -- delete with that argument in the
    #: next ``benchmark`` PR.
    slim: bool = False
    params: MachineParams = field(default_factory=MachineParams)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("need at least one node")
        if self.ppn < 1:
            raise ValueError("need at least one process per node")
        if self.proxies_per_dpu < 1:
            raise ValueError("need at least one proxy per DPU")
        if self.proxies_per_dpu > DPU_CORES:
            raise ValueError("more proxies than DPU cores")
        if self.nodes_per_switch < 0:
            raise ValueError("nodes_per_switch must be >= 0")
        if self.spine_count < 1:
            raise ValueError("need at least one spine uplink")
        if self.fluid_threshold < 1:
            raise ValueError("fluid_threshold must be at least one byte")

    @property
    def world_size(self) -> int:
        """Total number of host ranks."""
        return self.nodes * self.ppn

    def node_of_rank(self, rank: int) -> int:
        """Block rank placement: ranks [n*ppn, (n+1)*ppn) live on node n."""
        self._check_rank(rank)
        return rank // self.ppn

    def local_rank(self, rank: int) -> int:
        self._check_rank(rank)
        return rank % self.ppn

    def proxy_of_rank(self, rank: int) -> int:
        """Paper Section VII-A: proxy_local_rank = host_rank % num_proxies.

        Returns the proxy's *local* index on the rank's own node.
        """
        self._check_rank(rank)
        return rank % self.proxies_per_dpu

    def leaf_of_node(self, node_id: int) -> int:
        """Which leaf switch a node hangs off (0 for single-switch)."""
        if self.nodes_per_switch <= 0:
            return 0
        return node_id // self.nodes_per_switch

    def switch_hops(self, src_node: int, dst_node: int) -> int:
        """Switch hops between two distinct nodes."""
        if src_node == dst_node:
            return 0
        if self.leaf_of_node(src_node) == self.leaf_of_node(dst_node):
            return 1
        return 3  # leaf -> spine -> leaf

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")
