"""The in-house 3DStencil overlap benchmark (paper Section VIII-A).

Each rank owns a sub-brick of an ``N^3`` double-precision grid on a 3-D
process grid and, per iteration, exchanges halo faces with up to six
neighbours using non-blocking point-to-point operations overlapped with
a dummy compute region, then waits on everything.

The paper's observation reproduced here: with Basic-primitive offload
the inter-node exchanges progress on the DPU, but the *intra-node*
transfers still ride shared memory and block the CPU -- which is why
the Proposed scheme's overlap tops out around ~78% instead of 100%
(Fig 12), while IntelMPI's overlap degrades as faces grow into deep
rendezvous territory.

``halo_exchange_validate`` runs a real-data halo exchange and checks
every received face, giving the pattern end-to-end numerical coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.harness import OverlapResult, compute_with_tests, dims_create, mean
from repro.baselines.base import make_stack
from repro.hw.params import ClusterSpec

__all__ = ["StencilGeometry", "stencil_overlap", "halo_exchange_validate"]

#: Canonical face ids: 0:-x 1:+x 2:-y 3:+y 4:-z 5:+z.  The opposite
#: face (the one the neighbour uses toward us) is ``face ^ 1``.
N_FACES = 6


@dataclass(frozen=True)
class StencilGeometry:
    """Problem geometry: global grid N^3 over a (px, py, pz) grid."""

    n: int
    px: int
    py: int
    pz: int

    @staticmethod
    def for_world(n: int, nprocs: int) -> "StencilGeometry":
        px, py, pz = dims_create(nprocs, 3)
        return StencilGeometry(n=n, px=px, py=py, pz=pz)

    @property
    def local_shape(self) -> tuple[int, int, int]:
        return (self.n // self.px, self.n // self.py, self.n // self.pz)

    def coords_of(self, rank: int) -> tuple[int, int, int]:
        x = rank // (self.py * self.pz)
        y = (rank // self.pz) % self.py
        z = rank % self.pz
        return x, y, z

    def rank_of(self, x: int, y: int, z: int) -> int:
        return (x * self.py + y) * self.pz + z

    def neighbours(self, rank: int) -> list[tuple[int, int, int]]:
        """(face_id, neighbour rank, face bytes) for each existing face."""
        x, y, z = self.coords_of(rank)
        lx, ly, lz = self.local_shape
        candidates = [
            (0, x - 1, y, z, ly * lz), (1, x + 1, y, z, ly * lz),
            (2, x, y - 1, z, lx * lz), (3, x, y + 1, z, lx * lz),
            (4, x, y, z - 1, lx * ly), (5, x, y, z + 1, lx * ly),
        ]
        out = []
        for face, nx, ny, nz, cells in candidates:
            if 0 <= nx < self.px and 0 <= ny < self.py and 0 <= nz < self.pz:
                out.append((face, self.rank_of(nx, ny, nz), cells * 8))
        return out

    def compute_seconds(self, flops_per_core: float, flops_per_cell: float = 8.0) -> float:
        lx, ly, lz = self.local_shape
        return lx * ly * lz * flops_per_cell / flops_per_core


def stencil_overlap(
    flavor: str,
    spec: ClusterSpec,
    n: int,
    iters: int = 4,
    warmup: int = 2,
    test_chunk: float = 5e-6,
    compute_scale: float = 1.0,
) -> OverlapResult:
    """One cell of Figs 11/12 for one runtime and one problem size."""
    stack = make_stack(flavor, spec)
    # Timing-only benchmark: nothing reads the halo buffers, so skip
    # moving real bytes (see Cluster.payloads).
    stack.cluster.payloads = False
    geo = StencilGeometry.for_world(n, spec.world_size)
    compute = geo.compute_seconds(spec.params.host_flops_per_core) * compute_scale
    pure_samples: list[float] = []
    overall_samples: list[float] = []

    def exchange(be, comm, sbufs, rbufs, neighbours):
        reqs = []
        for (face, peer, nbytes), rbuf in zip(neighbours, rbufs):
            reqs.append(
                (yield from be.irecv(comm, peer, rbuf, nbytes, tag=40 + (face ^ 1)))
            )
        for (face, peer, nbytes), sbuf in zip(neighbours, sbufs):
            reqs.append((yield from be.isend(comm, peer, sbuf, nbytes, tag=40 + face)))
        return reqs

    def program(be):
        comm = be.stack.comm_world
        neighbours = geo.neighbours(be.rank)
        sbufs = [be.ctx.space.alloc(nb) for _f, _p, nb in neighbours]
        rbufs = [be.ctx.space.alloc(nb) for _f, _p, nb in neighbours]

        # pure-communication phase
        for it in range(warmup + iters):
            yield from be.barrier(comm)
            t0 = be.sim.now
            reqs = yield from exchange(be, comm, sbufs, rbufs, neighbours)
            yield from be.waitall(reqs)
            if it >= warmup and be.rank == 0:
                pure_samples.append(be.sim.now - t0)

        # overlapped phase
        for it in range(warmup + iters):
            yield from be.barrier(comm)
            t0 = be.sim.now
            reqs = yield from exchange(be, comm, sbufs, rbufs, neighbours)
            yield from compute_with_tests(be, reqs, compute, chunk=test_chunk)
            yield from be.waitall(reqs)
            if it >= warmup and be.rank == 0:
                overall_samples.append(be.sim.now - t0)
        return None

    stack.run_once(program)
    return OverlapResult(
        pure_comm=mean(pure_samples), overall=mean(overall_samples), compute=compute
    )


def halo_exchange_validate(flavor: str, spec: ClusterSpec, n: int = 8) -> bool:
    """Real-data halo exchange: every face must arrive bit-exact.

    Face data is a deterministic function of (owner rank, face id), so a
    receiver knows exactly which bytes its neighbour must have sent to
    the face pointing back at it.
    """
    stack = make_stack(flavor, spec)
    geo = StencilGeometry.for_world(n, spec.world_size)

    def face_pattern(owner: int, face: int, nbytes: int) -> np.ndarray:
        rng = np.random.default_rng(1000 * owner + face)
        return rng.integers(0, 255, size=nbytes, dtype=np.uint8)

    def program(be):
        comm = be.stack.comm_world
        neighbours = geo.neighbours(be.rank)
        sbufs, rbufs = [], []
        for face, _peer, nbytes in neighbours:
            sbufs.append(be.ctx.space.alloc_like(face_pattern(be.rank, face, nbytes)))
            rbufs.append(be.ctx.space.alloc(nbytes))
        reqs = []
        for (face, peer, nbytes), rbuf in zip(neighbours, rbufs):
            reqs.append(
                (yield from be.irecv(comm, peer, rbuf, nbytes, tag=40 + (face ^ 1)))
            )
        for (face, peer, nbytes), sbuf in zip(neighbours, sbufs):
            reqs.append((yield from be.isend(comm, peer, sbuf, nbytes, tag=40 + face)))
        yield from be.waitall(reqs)
        for (face, peer, nbytes), rbuf in zip(neighbours, rbufs):
            got = be.ctx.space.read(rbuf, nbytes)
            want = face_pattern(peer, face ^ 1, nbytes)
            if not (got == want).all():
                raise AssertionError(f"rank {be.rank}: face {face} from {peer} corrupt")
        return True

    return all(stack.run_once(program))
