"""Hardware models: hosts, DPUs, HCAs, fabric, memory.

This package is the substitute for the paper's physical testbed
(32 nodes, dual-socket Broadwell Xeon, BlueField-2 SmartNIC +
ConnectX-6 HCA on HDR InfiniBand).  Costs follow a LogGP-style
message-level model whose parameters live in
:class:`repro.hw.params.MachineParams`; the defaults are calibrated so
the micro-level behaviours the paper measures in its Figures 2-5
(host-vs-DPU latency, bandwidth, registration overheads, staging
penalty) hold by construction.
"""

from repro.hw.params import ClusterSpec, MachineParams
from repro.hw.memory import AddressSpace, PAGE_SIZE
from repro.hw.nic import Hca
from repro.hw.fabric import Fabric, Delivery
from repro.hw.faults import (
    OFFLOAD_CONTROL_KINDS,
    FaultPlan,
    FaultSpec,
    LinkDegradePlan,
    LinkWindow,
    ProxyKillPlan,
    RetryPolicy,
)
from repro.hw.topology import FatTreeTopology, ecmp_hash
from repro.hw.node import Node, ProcessContext
from repro.hw.cluster import Cluster
from repro.hw.metrics import Metrics

__all__ = [
    "AddressSpace",
    "Cluster",
    "ClusterSpec",
    "Delivery",
    "ecmp_hash",
    "Fabric",
    "FatTreeTopology",
    "FaultPlan",
    "FaultSpec",
    "Hca",
    "LinkDegradePlan",
    "LinkWindow",
    "MachineParams",
    "Metrics",
    "Node",
    "OFFLOAD_CONTROL_KINDS",
    "PAGE_SIZE",
    "ProcessContext",
    "ProxyKillPlan",
    "RetryPolicy",
]
