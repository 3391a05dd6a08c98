"""The "Proposed" backend: the paper's framework behind the common API.

* Inter-node point-to-point -> **Basic primitives** (``Send_Offload`` /
  ``Recv_Offload``): the DPU proxy progresses the transfer, the host
  only observes the completion counter.
* Intra-node point-to-point -> host shared memory (the paper does not
  offload intra-node traffic; Section VIII-A notes this is what keeps
  3DStencil overlap below 100%).
* ``ialltoall`` / ``ibcast`` -> **Group primitives**, with the recorded
  request object reused across iterations so the Section VII-D caches
  collapse repeat calls to a single request-ID message.  ``ibcast``
  uses the ring pipeline -- the pattern of paper Listing 5 -- executed
  entirely by the proxies.
"""

from __future__ import annotations

from repro.baselines.base import GroupBackend

__all__ = ["ProposedBackend"]


class ProposedBackend(GroupBackend):
    name = "proposed"
    mode = "gvmi"
    keeps_patterns = True
    a2a_tag = 23
    bcast_tag = 29

    def _isend(self, comm, dst, addr, size, tag):
        dst_world = comm.world_rank(dst)
        if self.ctx.cluster.same_node(self.rank, dst_world):
            return (yield from self.rt.isend(comm, dst, addr, size, tag))
        return (yield from self.ep.send_offload(addr, size, dst=dst_world, tag=tag))

    def _irecv(self, comm, src, addr, size, tag):
        src_world = comm.world_rank(src)
        if self.ctx.cluster.same_node(self.rank, src_world):
            return (yield from self.rt.irecv(comm, src, addr, size, tag))
        return (yield from self.ep.recv_offload(addr, size, src=src_world, tag=tag))
