"""A broader OSU-micro-benchmark-style suite over the CommBackend API.

Beyond the two measurements the paper's figures need
(:mod:`repro.apps.omb`), this module provides the rest of the familiar
OMB surface so downstream users can characterise a configuration the
way they would a real cluster:

* ``osu_latency``   -- blocking p2p round trip / 2, size sweep
* ``osu_bw``        -- windowed unidirectional bandwidth, size sweep
* ``osu_ibcast``    -- non-blocking broadcast overlap (OMB NBC method)
* ``osu_iallgather``-- non-blocking allgather overlap (host runtime)

All functions return plain dicts/series ready for tabulation.
"""

from __future__ import annotations

from repro.apps.harness import OverlapResult, mean
from repro.baselines.base import make_stack
from repro.hw.params import ClusterSpec
from repro.mpi import collectives as coll

__all__ = ["osu_latency", "osu_bw", "osu_ibcast", "osu_iallgather"]


def osu_latency(flavor: str, spec: ClusterSpec, sizes: list[int],
                iters: int = 10, warmup: int = 3) -> dict[int, float]:
    """Half round-trip latency per size (rank 0 <-> first rank of node 1)."""
    stack = make_stack(flavor, spec)
    peer_of = {0: spec.ppn, spec.ppn: 0}
    out: dict[int, list[float]] = {s: [] for s in sizes}

    def program(be):
        if be.rank not in peer_of:
            return None
        comm = be.stack.comm_world
        peer = peer_of[be.rank]
        lead = be.rank == 0
        for size in sizes:
            sbuf = be.ctx.space.alloc(size, fill=1)
            rbuf = be.ctx.space.alloc(size)
            for it in range(warmup + iters):
                t0 = be.sim.now
                if lead:
                    sreq = yield from be.isend(comm, peer, sbuf, size, tag=1)
                    yield from be.wait(sreq)
                    rreq = yield from be.irecv(comm, peer, rbuf, size, tag=2)
                    yield from be.wait(rreq)
                    if it >= warmup:
                        out[size].append((be.sim.now - t0) / 2)
                else:
                    rreq = yield from be.irecv(comm, peer, rbuf, size, tag=1)
                    yield from be.wait(rreq)
                    sreq = yield from be.isend(comm, peer, sbuf, size, tag=2)
                    yield from be.wait(sreq)
        return None

    stack.run_once(program)
    return {s: mean(v) for s, v in out.items()}


def osu_bw(flavor: str, spec: ClusterSpec, sizes: list[int],
           window: int = 32, iters: int = 4, warmup: int = 1) -> dict[int, float]:
    """Unidirectional bandwidth (bytes/s) per size, OMB window method."""
    stack = make_stack(flavor, spec)
    sender, receiver = 0, spec.ppn
    out: dict[int, list[float]] = {s: [] for s in sizes}

    def program(be):
        comm = be.stack.comm_world
        if be.rank == sender:
            for size in sizes:
                sbuf = be.ctx.space.alloc(size, fill=1)
                ack = be.ctx.space.alloc(4)
                for it in range(warmup + iters):
                    t0 = be.sim.now
                    reqs = []
                    for w in range(window):
                        reqs.append((yield from be.isend(
                            comm, receiver, sbuf, size, tag=3)))
                    yield from be.waitall(reqs)
                    areq = yield from be.irecv(comm, receiver, ack, 4, tag=4)
                    yield from be.wait(areq)
                    if it >= warmup:
                        out[size].append(window * size / (be.sim.now - t0))
        elif be.rank == receiver:
            for size in sizes:
                rbuf = be.ctx.space.alloc(size)
                ack = be.ctx.space.alloc(4, fill=1)
                for _it in range(warmup + iters):
                    reqs = []
                    for w in range(window):
                        reqs.append((yield from be.irecv(
                            comm, sender, rbuf, size, tag=3)))
                    yield from be.waitall(reqs)
                    sreq = yield from be.isend(comm, sender, ack, 4, tag=4)
                    yield from be.wait(sreq)
        return None

    stack.run_once(program)
    return {s: mean(v) for s, v in out.items()}


def osu_ibcast(flavor: str, spec: ClusterSpec, size: int, root: int = 0,
               iters: int = 4, warmup: int = 2) -> OverlapResult:
    """Non-blocking broadcast overlap, OMB NBC methodology."""
    stack = make_stack(flavor, spec)
    pure: list[float] = []
    overall: list[float] = []
    compute_box = [0.0]

    def program(be):
        comm = be.stack.comm_world
        addr = be.ctx.space.alloc(size, fill=1)
        for it in range(warmup + iters):
            yield from be.barrier(comm)
            t0 = be.sim.now
            req = yield from be.ibcast(comm, root, addr, size)
            yield from be.wait(req)
            if it >= warmup and be.rank == 0:
                pure.append(be.sim.now - t0)
        yield from be.barrier(comm)
        if be.rank == 0:
            compute_box[0] = mean(pure)
        yield from be.barrier(comm)
        compute = compute_box[0]
        for it in range(warmup + iters):
            yield from be.barrier(comm)
            t0 = be.sim.now
            req = yield from be.ibcast(comm, root, addr, size)
            yield be.ctx.consume(compute)
            yield from be.wait(req)
            if it >= warmup and be.rank == 0:
                overall.append(be.sim.now - t0)
        return None

    stack.run_once(program)
    return OverlapResult(pure_comm=mean(pure), overall=mean(overall),
                         compute=compute_box[0])


def osu_iallgather(spec: ClusterSpec, block: int, iters: int = 3,
                   warmup: int = 1) -> OverlapResult:
    """Non-blocking allgather overlap on the host runtime."""
    stack = make_stack("intelmpi", spec)
    P = spec.world_size
    pure: list[float] = []
    overall: list[float] = []
    compute_box = [0.0]

    def program(be):
        comm = be.stack.comm_world
        rt = be.rt
        sa = be.ctx.space.alloc(block, fill=1)
        ra = be.ctx.space.alloc(P * block)
        for it in range(warmup + iters):
            yield from be.barrier(comm)
            t0 = be.sim.now
            req = yield from coll.iallgather(rt, comm, sa, ra, block)
            yield from rt.wait(req)
            if it >= warmup and be.rank == 0:
                pure.append(be.sim.now - t0)
        yield from be.barrier(comm)
        if be.rank == 0:
            compute_box[0] = mean(pure)
        yield from be.barrier(comm)
        compute = compute_box[0]
        for it in range(warmup + iters):
            yield from be.barrier(comm)
            t0 = be.sim.now
            req = yield from coll.iallgather(rt, comm, sa, ra, block)
            yield be.ctx.consume(compute)
            yield from rt.wait(req)
            if it >= warmup and be.rank == 0:
                overall.append(be.sim.now - t0)
        return None

    stack.run_once(program)
    return OverlapResult(pure_comm=mean(pure), overall=mean(overall),
                         compute=compute_box[0])
