"""The paper's contribution: the DPU communication-offload framework.

Two API families (Section VI):

* **Basic primitives** -- ``Send_Offload`` / ``Recv_Offload`` / ``Wait``:
  non-blocking point-to-point operations executed by DPU proxy
  processes on the hosts' behalf via cross-GVMI RDMA.
* **Group primitives** -- ``Group_Offload_start`` / ``Send_Goffload`` /
  ``Recv_Goffload`` / ``Local_barrier_Goffload`` / ``Group_Offload_end``
  / ``Group_Offload_call`` / ``Group_Wait``: record an entire dependent
  communication pattern and offload it wholesale, so ordered patterns
  (ring broadcast, HPL look-ahead) progress with **zero host CPU
  intervention**.

Mechanisms (Section VII): proxy processes with RTS/RTR matching queues
(Fig. 8), array-of-BST GVMI registration caches on both host and DPU
(Section VII-B), group packet execution with RDMA-written barrier
counters (Fig. 10, Algorithm 1), and request caches that collapse
repeat group calls to a single request-ID control message
(Section VII-D).

Entry point: :class:`~repro.offload.api.OffloadFramework`
(= ``Init_Offload``) and per-rank
:class:`~repro.offload.api.OffloadEndpoint` objects.
"""

from repro.offload.api import OffloadEndpoint, OffloadFramework
from repro.offload.collectives import (
    allreduce_algorithm,
    build_iallreduce,
    build_ialltoall,
)
from repro.offload.requests import (
    GroupOp,
    ReduceOp,
    OffloadError,
    OffloadGroupRequest,
    OffloadRequest,
)
from repro.offload.staging import StagingChannel

__all__ = [
    "allreduce_algorithm",
    "build_iallreduce",
    "build_ialltoall",
    "GroupOp",
    "ReduceOp",
    "OffloadEndpoint",
    "OffloadError",
    "OffloadFramework",
    "OffloadGroupRequest",
    "OffloadRequest",
    "StagingChannel",
]

# The SHMEM front-end (repro.offload.shmem) is imported lazily by its
# users: importing it here would create a cycle through api/proxy.
