"""P3DFFT: pencil-decomposed parallel 3-D FFT (paper Section VIII-D).

Two entry points:

* :func:`fft3d_validate` -- a **real** distributed forward FFT on a
  small grid: pack / alltoall / unpack with genuine bytes through the
  chosen runtime, local ``numpy.fft`` stages, final comparison against
  a single-process ``numpy.fft.fftn``.  This validates the transpose
  communication end to end.
* :func:`p3dfft_phase` -- the performance benchmark reproducing the
  paper's measured structure (Fig 16c): each compute loop posts **two**
  Ialltoalls on *different* buffers, computes, waits for one, computes
  more, waits for the other.  Two back-to-back collectives on fresh
  buffers are exactly what exposed BluesMPI's warm-up pathology at the
  application level.

Decomposition: a ``R x C`` processor grid; rank ``r*C + c``.
x-pencils ``(X, Y/R, Z/C)`` --row-alltoall--> y-pencils ``(X/R, Y, Z/C)``
--column-alltoall--> z-pencils ``(X/R, Y/C, Z)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.apps.harness import compute_with_tests, dims_create
from repro.baselines.base import make_stack
from repro.hw.params import ClusterSpec

__all__ = ["PencilGrid", "fft3d_validate", "p3dfft_phase", "P3dfftProfile"]


@dataclass(frozen=True)
class PencilGrid:
    """Processor grid and problem geometry."""

    x: int
    y: int
    z: int
    rows: int  # R
    cols: int  # C

    @staticmethod
    def for_world(x: int, y: int, z: int, nprocs: int) -> "PencilGrid":
        r, c = dims_create(nprocs, 2)
        return PencilGrid(x=x, y=y, z=z, rows=r, cols=c)

    def check(self) -> None:
        if self.x % self.rows or self.y % self.rows:
            raise ValueError("X and Y must divide by the row count")
        if self.y % self.cols or self.z % self.cols:
            raise ValueError("Y and Z must divide by the column count")

    def coords(self, rank: int) -> tuple[int, int]:
        return rank // self.cols, rank % self.cols

    # -- communication volumes (per rank, bytes, complex128) ----------------
    @property
    def row_block_bytes(self) -> int:
        """Per-peer block in the x->y transpose (alltoall over R ranks)."""
        return (self.x // self.rows) * (self.y // self.rows) * (self.z // self.cols) * 16

    @property
    def col_block_bytes(self) -> int:
        """Per-peer block in the y->z transpose (alltoall over C ranks)."""
        return (self.x // self.rows) * (self.y // self.cols) * (self.z // self.cols) * 16

    # -- compute model -------------------------------------------------------
    #: Fraction of peak FLOP/s a strided 1-D FFT sustains (memory-bound;
    #: ~10-20% of peak on Broadwell-class cores).
    FFT_EFFICIENCY = 0.15

    def fft_seconds(self, axis_len: int, n_pencils: int, flops_per_core: float) -> float:
        """Time for ``n_pencils`` complex 1-D FFTs of ``axis_len``."""
        flops = n_pencils * 5.0 * axis_len * max(1.0, math.log2(axis_len))
        return flops / (flops_per_core * self.FFT_EFFICIENCY)


# ---------------------------------------------------------------------------
# validation: a real distributed forward FFT
# ---------------------------------------------------------------------------

def fft3d_validate(flavor: str, spec: ClusterSpec, x: int = 8, y: int = 8, z: int = 8,
                   seed: int = 7) -> bool:
    """Distributed forward FFT == ``numpy.fft.fftn`` (small grids)."""
    grid = PencilGrid.for_world(x, y, z, spec.world_size)
    grid.check()
    stack = make_stack(flavor, spec)

    rng = np.random.default_rng(seed)
    full = (rng.standard_normal((x, y, z)) + 1j * rng.standard_normal((x, y, z))).astype(
        np.complex128
    )
    reference = np.fft.fftn(full)
    R, C = grid.rows, grid.cols

    def program(be):
        comm_world = be.stack.comm_world
        r, c = grid.coords(be.rank)
        # Row communicator: same c, varying r.  Column: same r, varying c.
        colors_row = [grid.coords(w)[1] for w in range(spec.world_size)]
        colors_col = [grid.coords(w)[0] for w in range(spec.world_size)]
        row_comm = comm_world.split(colors_row)[c]
        col_comm = comm_world.split(colors_col)[r]

        # x-pencil: (X, Y/R, Z/C)
        local = full[:, r * (y // R):(r + 1) * (y // R), c * (z // C):(c + 1) * (z // C)].copy()
        local = np.fft.fft(local, axis=0)

        # --- transpose 1: x-pencils -> y-pencils over row_comm (size R) ---
        xs = x // R
        blk1 = grid.row_block_bytes
        sbuf = be.ctx.space.alloc(R * blk1)
        rbuf = be.ctx.space.alloc(R * blk1)
        for rp in range(R):
            block = np.ascontiguousarray(local[rp * xs:(rp + 1) * xs, :, :])
            be.ctx.space.write(sbuf + rp * blk1, block.view(np.uint8).reshape(-1))
        req = yield from be.ialltoall(row_comm, sbuf, rbuf, blk1)
        yield from be.wait(req)
        ypencil = np.empty((xs, y, z // C), dtype=np.complex128)
        for rp in range(R):
            raw = be.ctx.space.read(rbuf + rp * blk1, blk1)
            block = raw.view(np.complex128).reshape(xs, y // R, z // C)
            ypencil[:, rp * (y // R):(rp + 1) * (y // R), :] = block
        ypencil = np.fft.fft(ypencil, axis=1)

        # --- transpose 2: y-pencils -> z-pencils over col_comm (size C) ---
        yc = y // C
        blk2 = grid.col_block_bytes
        sbuf2 = be.ctx.space.alloc(C * blk2)
        rbuf2 = be.ctx.space.alloc(C * blk2)
        for cp in range(C):
            block = np.ascontiguousarray(ypencil[:, cp * yc:(cp + 1) * yc, :])
            be.ctx.space.write(sbuf2 + cp * blk2, block.view(np.uint8).reshape(-1))
        req = yield from be.ialltoall(col_comm, sbuf2, rbuf2, blk2)
        yield from be.wait(req)
        zpencil = np.empty((xs, yc, z), dtype=np.complex128)
        for cp in range(C):
            raw = be.ctx.space.read(rbuf2 + cp * blk2, blk2)
            block = raw.view(np.complex128).reshape(xs, yc, z // C)
            zpencil[:, :, cp * (z // C):(cp + 1) * (z // C)] = block
        zpencil = np.fft.fft(zpencil, axis=2)

        want = reference[r * xs:(r + 1) * xs, c * yc:(c + 1) * yc, :]
        if not np.allclose(zpencil, want, atol=1e-9):
            raise AssertionError(f"rank {be.rank}: FFT mismatch")
        return True

    return all(stack.run_once(program))


# ---------------------------------------------------------------------------
# benchmark: the paper's measured loop structure
# ---------------------------------------------------------------------------

@dataclass
class P3dfftProfile:
    """Per-run timing for Fig 16: overall plus compute/MPI split (16c)."""

    overall: float
    compute_time: float
    mpi_time: float
    iters: int


def p3dfft_phase(
    flavor: str,
    spec: ClusterSpec,
    x: int,
    y: int,
    z: int,
    iters: int = 3,
    test_chunk: float | None = None,
) -> P3dfftProfile:
    """Forward-transform phases with two in-flight Ialltoalls each.

    No warm-up iterations -- deliberately, as in the application-level
    runs of the paper (Section VIII-D explains why this matters).
    Returns aggregate timing from rank 0's perspective.
    """
    grid = PencilGrid.for_world(x, y, z, spec.world_size)
    grid.check()
    stack = make_stack(flavor, spec)
    # Timing-only benchmark (fft3d_validate covers the data path):
    # nothing reads the transpose buffers, so skip moving real bytes.
    stack.cluster.payloads = False
    R, C = grid.rows, grid.cols
    p = spec.params
    result: dict[str, float] = {}

    def program(be):
        comm_world = be.stack.comm_world
        r, c = grid.coords(be.rank)
        colors_row = [grid.coords(w)[1] for w in range(spec.world_size)]
        colors_col = [grid.coords(w)[0] for w in range(spec.world_size)]
        row_comm = comm_world.split(colors_row)[c]
        col_comm = comm_world.split(colors_col)[r]

        blk1, blk2 = grid.row_block_bytes, grid.col_block_bytes
        # Two independent buffer pairs per transpose -- the "two
        # MPI_Ialltoall calls with different buffers" of Fig 16c.
        bufs1 = [(be.ctx.space.alloc(R * blk1), be.ctx.space.alloc(R * blk1))
                 for _ in range(2)]
        bufs2 = [(be.ctx.space.alloc(C * blk2), be.ctx.space.alloc(C * blk2))
                 for _ in range(2)]

        xs, yr, zc = x // R, y // R, z // C
        fft_x = grid.fft_seconds(x, (yr * zc) // 2, p.host_flops_per_core)
        fft_y = grid.fft_seconds(y, (xs * zc) // 2, p.host_flops_per_core)
        fft_z = grid.fft_seconds(z, (xs * (y // C)) // 2, p.host_flops_per_core)

        compute_acc = [0.0]

        def compute(duration, reqs):
            t0 = be.sim.now
            yield from compute_with_tests(be, reqs, duration, chunk=test_chunk)
            compute_acc[0] += duration
            _ = t0

        t_start = be.sim.now
        for _it in range(iters):
            # Stage 1: FFT along X (split in two halves), row transposes.
            ra = yield from be.ialltoall(row_comm, *bufs1[0], blk1)
            rb = yield from be.ialltoall(row_comm, *bufs1[1], blk1)
            yield from compute(fft_x, [ra, rb])
            yield from be.wait(ra)
            yield from compute(fft_x, [rb])
            yield from be.wait(rb)
            # Stage 2: FFT along Y, column transposes.
            ca = yield from be.ialltoall(col_comm, *bufs2[0], blk2)
            cb = yield from be.ialltoall(col_comm, *bufs2[1], blk2)
            yield from compute(fft_y, [ca, cb])
            yield from be.wait(ca)
            yield from compute(fft_y, [cb])
            yield from be.wait(cb)
            # Stage 3: FFT along Z (no further transpose in the forward pass).
            yield from compute(fft_z * 2, [])
        overall = be.sim.now - t_start
        if be.rank == 0:
            result["overall"] = overall
            result["compute"] = compute_acc[0]
            result["comm"] = be.time_in_comm
        return overall

    stack.run_once(program)
    return P3dfftProfile(
        overall=result["overall"],
        compute_time=result["compute"],
        mpi_time=result["comm"],
        iters=iters,
    )
