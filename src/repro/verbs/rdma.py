"""One-sided RDMA operations and small control sends.

``rdma_write``/``rdma_read`` are generators: ``yield from`` them to pay
the initiator's post overhead; they return a
:class:`~repro.hw.fabric.Transfer` handle whose ``completed`` event is
the CQE.  This split is what lets callers pipeline many posts before
waiting on any completion -- exactly how the proxies drive dense
patterns.

Key semantics enforced here (Section IV and V of the paper):

* an ``lkey`` may be used only by the process that registered it;
* an ``mkey2`` may be used only by a DPU process whose GVMI matches --
  and it moves *host* memory on that process's behalf (the cross-GVMI
  trick);
* an ``rkey`` identifies the remote buffer; data lands there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.cluster import Cluster
from repro.hw.fabric import Transfer
from repro.hw.node import ProcessContext
from repro.verbs.gvmi import gvmi_id_of
from repro.verbs.mr import KeyTable, ProtectionError

__all__ = ["VerbsState", "verbs_state", "rdma_write", "rdma_read", "post_control"]

# Hot-path metric labels (initiator.kind is "host" or "dpu").
_WRITE_LABELS = {k: f"rdma.write.{k}" for k in ("host", "dpu")}
_READ_LABELS = {k: f"rdma.read.{k}" for k in ("host", "dpu")}
_CTRL_LABELS = {(a, b): f"ctrl.{a}_to_{b}"
                for a in ("host", "dpu") for b in ("host", "dpu")}


@dataclass
class VerbsState:
    """Cluster-wide verbs bookkeeping (one HCA ecosystem)."""

    keys: KeyTable = field(default_factory=KeyTable)


def verbs_state(cluster: Cluster) -> VerbsState:
    """The cluster's verbs state, created on first use."""
    state = getattr(cluster, "_verbs", None)
    if state is None:
        state = VerbsState()
        cluster._verbs = state
    return state


def _check_lkey(state: VerbsState, initiator: ProcessContext, lkey: int, addr: int, size: int):
    info = state.keys.lookup(lkey)
    if info.kind == "lkey":
        if info.owner is not initiator:
            raise ProtectionError(
                f"lkey {lkey:#x} belongs to {info.owner!r}; {initiator!r} cannot use it"
            )
    elif info.kind == "mkey2":
        if initiator.kind != "dpu" or info.gvmi_id != gvmi_id_of(initiator):
            raise ProtectionError(
                f"mkey2 {lkey:#x} (GVMI {info.gvmi_id:#x}) is not usable by {initiator!r}"
            )
    else:
        raise ProtectionError(
            f"key {lkey:#x} is a {info.kind}; RDMA local access needs an lkey or mkey2"
        )
    if not info.covers(addr, size):
        raise ProtectionError(
            f"local key {lkey:#x} covers [{info.addr:#x}, +{info.size}) but the "
            f"operation touches [{addr:#x}, +{size})"
        )
    return info


def _check_rkey(state: VerbsState, rkey: int, addr: int, size: int):
    info = state.keys.lookup(rkey)
    if info.kind != "rkey":
        raise ProtectionError(f"key {rkey:#x} is a {info.kind}; remote access needs an rkey")
    if not info.covers(addr, size):
        raise ProtectionError(
            f"rkey {rkey:#x} covers [{info.addr:#x}, +{info.size}) but the "
            f"operation touches [{addr:#x}, +{size})"
        )
    return info


def rdma_write(
    initiator: ProcessContext,
    *,
    lkey: int,
    src_addr: int,
    rkey: int,
    dst_addr: int,
    size: int,
    copy: bool = True,
    payload_src=None,
) -> Transfer:
    """RDMA WRITE: move [src_addr, +size) into the rkey's buffer.

    Use as ``t = yield from rdma_write(...)``; then ``yield t.completed``
    for the CQE (or keep pipelining).

    ``payload_src`` is an optional ``(space, addr)`` pair naming where
    the bytes *really* live when the local buffer was filled lazily (a
    staged pipeline that skipped materializing the bounce buffer, see
    ``rdma_read(lazy_payload=True)``): delivery copies straight from
    there to the destination, eliding the intermediate copy.  Timing is
    unaffected -- only the byte movement is short-circuited.
    """
    cluster = initiator.cluster
    state = verbs_state(cluster)
    src_info = _check_lkey(state, initiator, lkey, src_addr, size)
    dst_info = _check_rkey(state, rkey, dst_addr, size)
    src_owner = src_info.owner
    dst_owner = dst_info.owner

    yield initiator.consume(initiator.hca.post_overhead(initiator.kind))

    def deliver(_dv):
        if copy and size > 0 and cluster.payloads:
            if payload_src is not None:
                real_space, real_addr = payload_src
                dst_owner.space.write(dst_addr, real_space.read(real_addr, size))
            else:
                dst_owner.space.write(dst_addr, src_owner.space.read(src_addr, size))

    cluster.metrics.add(
        _WRITE_LABELS.get(initiator.kind) or f"rdma.write.{initiator.kind}"
    )
    # Cross-GVMI data paths pay the mkey2 translation indirection.
    bw_scale = cluster.params.gvmi_bw_factor if src_info.kind == "mkey2" else 1.0
    return cluster.fabric.transfer(
        src_node=src_owner.node_id,
        dst_node=dst_owner.node_id,
        size=size,
        initiator=initiator.kind,
        src_mem=src_owner.mem_kind,
        dst_mem=dst_owner.mem_kind,
        on_deliver=deliver,
        kind="rdma_write",
        bw_scale=bw_scale,
        owner=initiator,
    )


def rdma_read(
    initiator: ProcessContext,
    *,
    lkey: int,
    local_addr: int,
    rkey: int,
    remote_addr: int,
    size: int,
    copy: bool = True,
    lazy_payload: bool = False,
) -> Transfer:
    """RDMA READ: pull the rkey's bytes into the local buffer.

    Data flows remote -> local; the remote CPU is not involved (that is
    the point of one-sided reads -- and why a staging proxy can drain a
    host buffer without interrupting the host).

    With ``lazy_payload=True`` the bytes are *not* written into the
    local buffer at delivery; instead the returned handle's
    ``payload_src`` records ``(remote_space, remote_addr)`` so a
    follow-on ``rdma_write(payload_src=...)`` can forward the data
    directly to its final destination.  Only valid when the remote
    buffer is guaranteed stable until the forward completes (MPI
    rendezvous: the sender may not touch the buffer until FIN) and when
    nothing reads the local buffer in between.
    """
    cluster = initiator.cluster
    state = verbs_state(cluster)
    local_info = _check_lkey(state, initiator, lkey, local_addr, size)
    remote_info = _check_rkey(state, rkey, remote_addr, size)
    local_owner = local_info.owner
    remote_owner = remote_info.owner

    yield initiator.consume(initiator.hca.post_overhead(initiator.kind))

    if lazy_payload:
        deliver = None
    else:
        def deliver(_dv):
            if copy and size > 0 and cluster.payloads:
                local_owner.space.write(local_addr, remote_owner.space.read(remote_addr, size))

    cluster.metrics.add(
        _READ_LABELS.get(initiator.kind) or f"rdma.read.{initiator.kind}"
    )
    t = cluster.fabric.transfer(
        src_node=remote_owner.node_id,
        dst_node=local_owner.node_id,
        size=size,
        initiator=initiator.kind,
        src_mem=remote_owner.mem_kind,
        dst_mem=local_owner.mem_kind,
        on_deliver=deliver,
        kind="rdma_read",
        owner=initiator,
    )
    if lazy_payload:
        t.payload_src = (remote_owner.space, remote_addr)
    return t


def post_control(
    initiator: ProcessContext,
    target: ProcessContext,
    msg,
    size: int | None = None,
    inbox=None,
    kind: str = "ctrl",
):
    """Send a small control message into ``target``'s inbox.

    ``inbox`` defaults to the target context's raw inbox; protocol
    engines that keep their own queue (the MPI runtime, the offload
    endpoints) pass it explicitly.  Use as ``yield from post_control(...)``:
    the sender pays the post and learns nothing more -- RTS/RTR/FIN are
    fire-and-forget, and a fault-injected drop means the message never
    lands.  ``kind`` names the protocol message for fault-plan targeting.
    """
    cluster = initiator.cluster
    yield initiator.consume(initiator.hca.post_overhead(initiator.kind))
    cluster.metrics.add(_CTRL_LABELS[initiator.kind, target.kind])
    cluster.fabric.control(
        src_node=initiator.node_id,
        dst_node=target.node_id,
        initiator=initiator.kind,
        inbox=target.inbox if inbox is None else inbox,
        msg=msg,
        size=size,
        src_mem=initiator.mem_kind,
        dst_mem=target.mem_kind,
        kind=kind,
    )
