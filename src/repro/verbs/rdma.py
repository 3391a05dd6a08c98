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

__all__ = ["VerbsState", "verbs_state", "work_request", "rdma_write", "rdma_read",
           "post_control"]

# Hot-path metric labels (initiator.kind is "host" or "dpu").
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


def work_request(state: VerbsState, initiator: ProcessContext, lkey: int,
                 local_addr: int, rkey: int, remote_addr: int, size: int,
                 write: bool = True) -> tuple:
    """Resolve one RDMA work request: its keys and its port window.

    Checks the local key -- an lkey of ``initiator``'s own, or an mkey2
    whose GVMI is the initiating DPU process's -- and the remote rkey,
    each over the bytes the operation touches.  Returns ``(local,
    remote, serialization)``: the two keys' ``KeyInfo`` records and the
    source HCA's serialization of ``size`` bytes (a write's source is
    the local buffer, a read's the remote one), stretched by
    ``gvmi_bw_factor`` when a write reads through an mkey2 -- the
    cross-GVMI translation indirection.  What :func:`rdma_write`,
    :func:`rdma_read` and the Group executor's first post of a send all
    check; a cached replay revalidates by identity instead.
    """
    if size < 0:
        raise ValueError("negative message size")
    keys = state.keys
    local = keys.lookup(lkey)
    if local.kind == "lkey":
        if local.owner is not initiator:
            raise ProtectionError(
                f"lkey {lkey:#x} belongs to {local.owner!r}; {initiator!r} cannot use it"
            )
    elif local.kind == "mkey2":
        if initiator.kind != "dpu" or local.gvmi_id != gvmi_id_of(initiator):
            raise ProtectionError(
                f"mkey2 {lkey:#x} (GVMI {local.gvmi_id:#x}) is not usable by {initiator!r}"
            )
    else:
        raise ProtectionError(
            f"key {lkey:#x} is a {local.kind}; RDMA local access needs an lkey or mkey2"
        )
    if not local.covers(local_addr, size):
        raise ProtectionError(
            f"local key {lkey:#x} covers [{local.addr:#x}, +{local.size}) but the "
            f"operation touches [{local_addr:#x}, +{size})"
        )
    remote = keys.lookup(rkey)
    if remote.kind != "rkey":
        raise ProtectionError(f"key {rkey:#x} is a {remote.kind}; remote access needs an rkey")
    if not remote.covers(remote_addr, size):
        raise ProtectionError(
            f"rkey {rkey:#x} covers [{remote.addr:#x}, +{remote.size}) but the "
            f"operation touches [{remote_addr:#x}, +{size})"
        )
    src, dst = (local.owner, remote.owner) if write else (remote.owner, local.owner)
    cluster = initiator.cluster
    serialization = cluster.fabric.hcas[src.node_id].serialization_time(
        size, initiator.kind, src.mem_kind, dst.mem_kind)
    if write and local.kind == "mkey2":
        serialization /= max(1e-9, cluster.params.gvmi_bw_factor)
    return local, remote, serialization


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
    src_info, dst_info, serialization = work_request(
        verbs_state(cluster), initiator, lkey, src_addr, rkey, dst_addr, size)
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

    if initiator.kind == "dpu":
        initiator.hca.dpu_writes += 1
    else:
        initiator.hca.host_writes += 1
    hcas = cluster.fabric.hcas
    return Transfer(cluster.fabric.post(
        hcas[src_owner.node_id], hcas[dst_owner.node_id], size, initiator.kind,
        serialization, deliver, "rdma_write", initiator), size)


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
    local_info, remote_info, serialization = work_request(
        verbs_state(cluster), initiator, lkey, local_addr, rkey, remote_addr, size,
        write=False)
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
    hcas = cluster.fabric.hcas
    t = Transfer(cluster.fabric.post(
        hcas[remote_owner.node_id], hcas[local_owner.node_id], size, initiator.kind,
        serialization, deliver, "rdma_read", initiator), size)
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
