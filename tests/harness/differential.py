"""Run one exchange pattern through interchangeable backends.

Every runner here answers the same question -- "after the exchange,
what bytes does each rank hold in its receive buffer?" -- so results
from different runtimes can be compared with ``==``:

* :func:`run_offload` -- ``Send_Offload``/``Recv_Offload`` (or the Group
  primitives) through :class:`~repro.offload.api.OffloadFramework`, in
  either ``gvmi`` (proposed) or ``staged`` (BluesMPI-style) mode.
* :func:`run_hostmpi` -- plain ``MPI_Isend``/``MPI_Irecv`` through
  :class:`~repro.mpi.runtime.MpiRuntime` (self messages become local
  copies, exactly as the collectives layer does).
* :func:`expected_payloads` -- the pure-python reference model: no
  simulator at all, just "rank r must end up with rank src's pattern".

All runners accept ``instrument``: a callable invoked with the fresh
cluster before any runtime objects exist, so tests can attach an
observability bus (``repro.obs.observe_cluster``) and check
trace invariants over the very runs being diffed.
"""

from __future__ import annotations

import numpy as np

from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld
from repro.offload import OffloadFramework
from tests.helpers import waitall

__all__ = [
    "BACKENDS",
    "PATTERNS",
    "SWEEP_SIZES",
    "DIFF_SPEC",
    "expected_payloads",
    "payload_for",
    "peers",
    "run_backend",
    "run_hostmpi",
    "run_offload",
]

#: Message sizes for the full differential sweep: 1 B to 1 MiB with odd
#: counts (3, 17, 255, 4097) that straddle page/eager/chunk boundaries.
SWEEP_SIZES = [1, 3, 17, 255, 1024, 4097, 65536, 1 << 20]

#: Exchange patterns: who rank r sends to / receives from.
PATTERNS = ("self", "neighbor", "ring")

#: Backend flavours runnable through :func:`run_backend`.
BACKENDS = ("offload", "bluesmpi", "hostmpi")

#: 2 nodes x 2 ranks -- the smallest world where "neighbor" crosses a
#: node boundary and "ring" mixes intra- and inter-node hops.
DIFF_SPEC = ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=2)

_TAG = 7


def peers(pattern: str, rank: int, world: int) -> tuple[int, int]:
    """``(dst, src)`` for ``rank`` under ``pattern``."""
    if pattern == "self":
        return rank, rank
    if pattern == "neighbor":
        # Pairwise exchange with the adjacent rank (crosses sockets and,
        # for the middle pair of a 2x2 world, the node boundary).
        peer = rank ^ 1
        if peer >= world:  # odd world: the last rank talks to itself
            peer = rank
        return peer, peer
    if pattern == "ring":
        return (rank + 1) % world, (rank - 1) % world
    raise ValueError(f"unknown pattern {pattern!r}")


def payload_for(rank: int, size: int, seed: int = 0) -> np.ndarray:
    """Deterministic per-rank payload (differs across ranks and seeds)."""
    rng = np.random.default_rng(seed * 1009 + rank)
    return rng.integers(0, 255, size=size, dtype=np.uint8)


def expected_payloads(pattern: str, world: int, size: int, seed: int = 0) -> dict:
    """Reference model: rank -> bytes it must hold after the exchange."""
    out = {}
    for rank in range(world):
        _, src = peers(pattern, rank, world)
        out[rank] = payload_for(src, size, seed).tobytes()
    return out


def run_offload(spec: ClusterSpec, pattern: str, size: int, *, mode: str = "gvmi",
                use_group: bool = False, repeats: int = 1, seed: int = 0,
                instrument=None):
    """Exchange via the offload primitives; returns ``(received, cluster)``.

    ``use_group`` records the pattern once and issues ``repeats``
    ``Group_Offload_call``s against it (so repeat runs exercise the
    Section VII-D plan caches); otherwise each repeat posts fresh
    ``Send_Offload``/``Recv_Offload`` pairs.
    """
    cl = Cluster(spec)
    if instrument is not None:
        instrument(cl)
    fw = OffloadFramework(cl, mode=mode, group_caching=True)
    world = spec.world_size
    received: dict[int, bytes] = {}

    def make(rank: int):
        dst, src = peers(pattern, rank, world)
        payload = payload_for(rank, size, seed)

        def prog():
            ep = fw.endpoint(rank)
            sbuf = ep.ctx.space.alloc_like(payload)
            rbuf = ep.ctx.space.alloc(size)
            if use_group:
                greq = ep.group_start()
                ep.group_send(greq, sbuf, size, dst=dst, tag=_TAG)
                ep.group_recv(greq, rbuf, size, src=src, tag=_TAG)
                ep.group_end(greq)
                for _ in range(repeats):
                    yield from ep.group_call(greq)
                    yield from ep.group_wait(greq)
            else:
                for _ in range(repeats):
                    s = yield from ep.send_offload(sbuf, size, dst=dst, tag=_TAG)
                    r = yield from ep.recv_offload(rbuf, size, src=src, tag=_TAG)
                    yield from ep.waitall([s, r])
            received[rank] = bytes(ep.ctx.space.read(rbuf, size))
            return True

        return prog

    procs = [cl.sim.process(make(r)()) for r in range(world)]
    cl.sim.run(until=cl.sim.all_of(procs))
    assert all(p.value for p in procs)
    return received, cl


def run_hostmpi(spec: ClusterSpec, pattern: str, size: int, *, repeats: int = 1,
                seed: int = 0, instrument=None):
    """Exchange via plain MPI_Isend/Irecv; returns ``(received, cluster)``."""
    cl = Cluster(spec)
    if instrument is not None:
        instrument(cl)
    world_obj = MpiWorld(cl)
    world = spec.world_size
    received: dict[int, bytes] = {}

    def make(rank: int):
        dst, src = peers(pattern, rank, world)
        payload = payload_for(rank, size, seed)

        def prog():
            rt = world_obj.runtime(rank)
            comm = world_obj.comm_world
            space = rt.ctx.space
            sbuf = space.alloc_like(payload)
            rbuf = space.alloc(size)
            for _ in range(repeats):
                if dst == rank:
                    # MpiRuntime rejects wire self-sends; the runtime's
                    # own convention (collectives' self-block) is a
                    # local copy.
                    yield from rt.copy_local(sbuf, rbuf, size)
                else:
                    r = yield from rt.irecv(comm, src, rbuf, size, tag=_TAG)
                    s = yield from rt.isend(comm, dst, sbuf, size, tag=_TAG)
                    yield from waitall(rt, [s, r])
            received[rank] = bytes(space.read(rbuf, size))
            return True

        return prog

    procs = [cl.sim.process(make(r)()) for r in range(world)]
    cl.sim.run(until=cl.sim.all_of(procs))
    assert all(p.value for p in procs)
    return received, cl


def run_backend(backend: str, spec: ClusterSpec, pattern: str, size: int, **kw):
    """Dispatch by flavour name (``offload`` / ``bluesmpi`` / ``hostmpi``)."""
    if backend == "offload":
        return run_offload(spec, pattern, size, mode="gvmi", **kw)
    if backend == "bluesmpi":
        return run_offload(spec, pattern, size, mode="staged", **kw)
    if backend == "hostmpi":
        return run_hostmpi(spec, pattern, size, **kw)
    raise ValueError(f"unknown backend {backend!r}")
