"""OSU-micro-benchmark-style measurements.

``pingpong_latency`` reproduces the motivation benchmark of Fig 4
(non-blocking sends/receives + waitall, host runtime vs the
staging-based offload) and also runs the proposed GVMI path for the
framework-vs-staging comparison.

``ialltoall_overlap`` reproduces the OMB non-blocking-collective
methodology used for Figs 13/14: measure pure communication time,
size a dummy compute region to it, then measure the overall time of
(post collective, compute, wait) and derive the overlap percentage.
"""

from __future__ import annotations

from repro.apps.harness import OverlapResult, compute_with_tests, mean
from repro.baselines.base import make_stack
from repro.hw.params import ClusterSpec

__all__ = ["pingpong_latency", "ialltoall_overlap", "run_ialltoall_series"]


def pingpong_latency(
    flavor: str,
    spec: ClusterSpec,
    size: int,
    iters: int = 20,
    warmup: int = 4,
) -> float:
    """Average one-iteration latency of a concurrent two-way exchange.

    Ranks 0 and ``ppn`` (first rank of node 1) each post an isend and an
    irecv of ``size`` bytes and wait for both -- the "non-blocking
    pingpong (concurrent two-way isend/irecvs)" of Fig 4.  Returns
    seconds per iteration.
    """
    stack = make_stack(flavor, spec)
    # Timing-only benchmark: nothing reads the buffers, so skip moving
    # real bytes (see Cluster.payloads).
    stack.cluster.payloads = False
    peer_of = {0: spec.ppn, spec.ppn: 0}
    samples: list[float] = []

    def program(be):
        if be.rank not in peer_of:
            return None
        comm = be.stack.comm_world
        peer = peer_of[be.rank]
        sbuf = be.ctx.space.alloc(size)
        rbuf = be.ctx.space.alloc(size)
        for it in range(warmup + iters):
            t0 = be.sim.now
            rreq = yield from be.irecv(comm, peer, rbuf, size, tag=5)
            sreq = yield from be.isend(comm, peer, sbuf, size, tag=5)
            yield from be.waitall([sreq, rreq])
            if it >= warmup and be.rank == 0:
                samples.append(be.sim.now - t0)
        return None

    stack.run_once(program)
    return mean(samples)


def ialltoall_overlap(
    flavor: str,
    spec: ClusterSpec,
    block: int,
    iters: int = 5,
    warmup: int = 2,
    use_warmup: bool = True,
    test_chunk: float = 5e-6,
) -> OverlapResult:
    """One cell of Figs 13/14: Ialltoall + compute on one runtime.

    ``block`` is the per-peer message size.  ``use_warmup=False``
    reproduces the paper's no-warm-up application observation (the
    BluesMPI first-iteration pathology, Section VIII-D).
    """
    stack = make_stack(flavor, spec)
    # Timing-only benchmark: nothing reads the buffers, so skip moving
    # real bytes (see Cluster.payloads).
    stack.cluster.payloads = False
    P = spec.world_size
    pure_samples: list[float] = []
    overall_samples: list[float] = []
    compute_box = [0.0]

    def program(be):
        comm = be.stack.comm_world
        sbuf = be.ctx.space.alloc(P * block)
        rbuf = be.ctx.space.alloc(P * block)
        n_warm = warmup if use_warmup else 0

        # Phase 1: pure communication time.
        for it in range(n_warm + iters):
            t0 = be.sim.now
            req = yield from be.ialltoall(comm, sbuf, rbuf, block)
            yield from be.wait(req)
            if it >= n_warm and be.rank == 0:
                pure_samples.append(be.sim.now - t0)
        yield from be.barrier(comm)

        # Phase 2: overlapped. Compute region sized to the pure time
        # (the OMB methodology).
        if be.rank == 0:
            compute_box[0] = mean(pure_samples)
        yield from be.barrier(comm)
        compute = compute_box[0]
        for it in range(n_warm + iters):
            t0 = be.sim.now
            req = yield from be.ialltoall(comm, sbuf, rbuf, block)
            yield from compute_with_tests(be, req, compute, chunk=test_chunk)
            yield from be.wait(req)
            yield from be.barrier(comm)
            if it >= n_warm and be.rank == 0:
                overall_samples.append(be.sim.now - t0)
        return None

    stack.run_once(program)
    return OverlapResult(
        pure_comm=mean(pure_samples),
        overall=mean(overall_samples),
        compute=compute_box[0],
    )


def run_ialltoall_series(
    flavors: list[str],
    spec: ClusterSpec,
    blocks: list[int],
    **kw,
) -> dict[str, list[OverlapResult]]:
    """Sweep of :func:`ialltoall_overlap` across runtimes and sizes."""
    return {
        flavor: [ialltoall_overlap(flavor, spec, b, **kw) for b in blocks]
        for flavor in flavors
    }
