"""HPL-like LU factorization driver (paper Section VIII-D, Fig 17).

HPL's communication hot spot is the **panel broadcast**: after a block
column is factored, it is forwarded along the process row while the
ranks overlap the trailing-matrix update (the "look-ahead").  Stock HPL
implements this as a *1-ring* pipeline over point-to-point operations
-- precisely Listing 1 of the paper: every hop needs the CPU to notice
the arrival before it can forward, so the pipeline stalls whenever
ranks are inside the update GEMM.

Entry points:

* :func:`lu_validate` -- a **real** right-looking blocked LU (no
  pivoting, diagonally dominant matrix) on a 1-D block-cyclic column
  distribution, with panel broadcasts moving genuine bytes through the
  chosen runtime; the reassembled ``L @ U`` must equal ``A``.
* :func:`hpl_run` -- the performance model on a ``P x Q`` grid:
  per step, panel factorization (compute), panel broadcast along the
  process row (1-ring over p2p, or Ibcast over any runtime), trailing
  update (compute) overlapped with the broadcast.

Problem sizing mirrors the paper: ``n_for_memory_fraction`` converts
"x% of system memory" into a matrix order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.apps.harness import compute_with_tests, dims_create
from repro.baselines.base import make_stack
from repro.hw.params import ClusterSpec
from repro.mpi import schedules

__all__ = ["lu_validate", "hpl_run", "HplResult", "n_for_memory_fraction"]


def n_for_memory_fraction(fraction: float, node_mem_bytes: float, nodes: int,
                          scale: float = 1.0) -> int:
    """Matrix order occupying ``fraction`` of total cluster memory.

    ``scale`` shrinks the problem for simulation (the *shape* of Fig 17
    depends on ratios, not absolute sizes); the returned order is
    rounded to a multiple of 64.
    """
    total = fraction * node_mem_bytes * nodes * scale
    n = int(math.sqrt(total / 8.0))
    return max(64, (n // 64) * 64)


# ---------------------------------------------------------------------------
# numeric validation
# ---------------------------------------------------------------------------

def lu_validate(flavor: str, spec: ClusterSpec, n: int = 32, nb: int = 8,
                seed: int = 3) -> bool:
    """Distributed blocked LU (1-D block-cyclic columns) == numpy.

    Panels are broadcast with real payloads through the runtime's
    ``ibcast``; at the end the factors are reassembled and ``L @ U``
    compared against the original matrix.
    """
    if n % nb:
        raise ValueError("n must be a multiple of nb")
    stack = make_stack(flavor, spec)
    P = spec.world_size
    nblocks = n // nb

    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal((n, n)) + n * np.eye(n)  # diagonally dominant
    finals: dict[int, dict[int, np.ndarray]] = {}

    def program(be):
        comm = be.stack.comm_world
        my_blocks = [j for j in range(nblocks) if j % P == be.rank]
        local = {j: a0[:, j * nb:(j + 1) * nb].copy() for j in my_blocks}
        panel_addr = be.ctx.space.alloc(n * nb * 8)

        for k in range(nblocks):
            owner = k % P
            k0, k1 = k * nb, (k + 1) * nb
            rows = n - k0
            if be.rank == owner:
                # Unblocked LU of the panel (columns k0:k1, rows k0:n).
                panel = local[k][k0:, :]  # (rows, nb) view
                for j in range(nb):
                    piv = panel[j, j]
                    panel[j + 1:, j] /= piv
                    panel[j + 1:, j + 1:] -= np.outer(panel[j + 1:, j], panel[j, j + 1:])
                be.ctx.space.write(panel_addr, np.ascontiguousarray(panel))
            req = yield from be.ibcast(comm, owner, panel_addr, rows * nb * 8)
            yield from be.wait(req)
            panel = be.ctx.space.read(panel_addr, rows * nb * 8).view(np.float64)
            panel = panel.reshape(rows, nb)
            l11 = np.tril(panel[:nb, :], -1) + np.eye(nb)
            l21 = panel[nb:, :]
            # Update my trailing columns.
            for j in my_blocks:
                if j <= k:
                    continue
                block = local[j]
                u12 = np.linalg.solve(l11, block[k0:k1, :])
                block[k0:k1, :] = u12
                block[k1:, :] -= l21 @ u12
        finals[be.rank] = local
        return True

    ok = all(stack.run_once(program))

    # Reassemble and verify L @ U == A.
    full = np.zeros((n, n))
    for rank_blocks in finals.values():
        for j, block in rank_blocks.items():
            full[:, j * nb:(j + 1) * nb] = block
    lower = np.tril(full, -1) + np.eye(n)
    upper = np.triu(full)
    if not np.allclose(lower @ upper, a0, atol=1e-8 * n):
        raise AssertionError("LU factors do not reproduce A")
    return ok


# ---------------------------------------------------------------------------
# performance model
# ---------------------------------------------------------------------------

@dataclass
class HplResult:
    """One HPL run: total wall time and its decomposition (rank 0)."""

    total: float
    n: int
    nb: int
    steps: int
    comm_time: float
    compute_time: float


def hpl_run(
    flavor: str,
    spec: ClusterSpec,
    n: int,
    nb: int = 128,
    bcast: str = "ibcast",
    tests_per_update: int = 8,
    max_steps: int | None = None,
    grid: tuple[int, int] | None = None,
) -> HplResult:
    """LU cost model on a P x Q grid with look-ahead panel broadcast.

    Per step *k* (look-ahead depth 1, as in stock HPL):

    1. the column owning panel *k+1* applies the urgent slice of the
       update to its own panel and factors it (critical path);
    2. panel *k+1* is broadcast along the process rows;
    3. everyone computes the trailing update of step *k*, probing the
       broadcast between GEMM blocks (``tests_per_update`` probes --
       HPL tests at this coarse, per-block granularity, which is
       exactly why the 1-ring pipeline stalls: a middle rank forwards
       the panel only when a probe notices it arrived);
    4. wait for the broadcast (look-ahead window closed).

    ``bcast``:
      * ``"1ring"`` -- stock HPL's p2p ring with CPU-driven forwarding
        (Listing 1 / IntelMPI-HPL-1ring);
      * ``"ibcast"`` -- the runtime's non-blocking broadcast (IntelMPI
        binomial, BluesMPI staged offload, Proposed group-offload ring).

    ``max_steps`` truncates the factorization (per-step cost decays, so
    a prefix dominates; keeps simulation cost bounded at large n/nb).
    """
    if bcast not in ("1ring", "ibcast"):
        raise ValueError(f"unknown bcast variant {bcast!r}")
    stack = make_stack(flavor, spec)
    # Timing-only cost model (lu_validate covers the data path):
    # nothing reads the panel bytes, so skip moving them.
    stack.cluster.payloads = False
    if grid is not None:
        grid_p, grid_q = grid
        if grid_p * grid_q != spec.world_size:
            raise ValueError(f"grid {grid} does not tile {spec.world_size} ranks")
    else:
        # HPL practice: P <= Q (a flatter grid keeps the row broadcast long).
        grid_p, grid_q = sorted(dims_create(spec.world_size, 2))
    steps = n // nb
    if max_steps is not None:
        steps = min(steps, max_steps)
    flops = spec.params.host_flops_per_core
    out: dict[str, float] = {}

    def program(be):
        comm_world = be.stack.comm_world
        my_p = be.rank // grid_q
        my_q = be.rank % grid_q
        # Process-row communicator: same p, all q (panel travels along it).
        colors = [w // grid_q for w in range(spec.world_size)]
        row_comm = comm_world.split(colors)[my_p]

        max_panel = (n // grid_p + nb) * nb * 8
        panel_addr = be.ctx.space.alloc(max(64, max_panel))
        t_start = be.sim.now
        compute_acc = 0.0

        for k in range(steps):
            rows_rem = n - k * nb
            owner_q = (k + 1) % grid_q  # owner of the *next* panel
            # --- look-ahead: urgent update + factorization of panel k+1 ---
            if my_q == owner_q:
                urgent = 2.0 * rows_rem * nb * nb / (flops * grid_p)
                fact = rows_rem * nb * nb / (flops * grid_p)
                yield be.ctx.consume(urgent + fact)
                compute_acc += urgent + fact
            # --- panel broadcast along the process row ---
            panel_bytes = max(64, (rows_rem // grid_p) * nb * 8)
            if bcast == "1ring":
                reqs = yield from _ring_bcast_p2p(be, row_comm, owner_q,
                                                  panel_addr, panel_bytes)
            else:
                req = yield from be.ibcast(row_comm, owner_q, panel_addr, panel_bytes)
                reqs = [req]
            # --- trailing update of step k, overlapped with the bcast ---
            cols_rem = n - (k + 1) * nb
            update = 2.0 * cols_rem * rows_rem * nb / (flops * grid_p * grid_q)
            chunk = max(1e-6, update / max(1, tests_per_update))
            yield from compute_with_tests(be, reqs, update, chunk=chunk)
            compute_acc += update
            yield from be.waitall(reqs)
        total = be.sim.now - t_start
        if be.rank == 0:
            out["total"] = total
            out["comm"] = be.time_in_comm
            out["compute"] = compute_acc
        return total

    stack.run_once(program)
    return HplResult(
        total=out["total"], n=n, nb=nb, steps=steps,
        comm_time=out["comm"], compute_time=out["compute"],
    )


def _ring_bcast_p2p(be, comm, root: int, addr: int, size: int):
    """Stock HPL's 1-ring forward over plain point-to-point.

    Returns the request list this rank must still wait on.  A middle
    rank has a data dependency: it cannot post its forward send until
    its receive completes -- handled by the caller's test-driven compute
    loop via a :class:`_RingForwardState` shim that mimics a request.
    """
    ops = [op for ops in schedules.bcast_ring(
        comm.rank_of(be.rank), comm.size, root, size).rounds for op in ops]
    if not ops:
        return []
    if ops[0].kind == "send":
        req = yield from be.isend(comm, ops[0].peer, addr, size, tag=53)
        return [req]
    recv = yield from be.irecv(comm, ops[0].peer, addr, size, tag=53)
    if len(ops) == 1:  # the ring's tail
        return [recv]
    return [_RingForward(be, comm, recv, ops[1].peer, addr, size)]


class _RingForward:
    """Request shim: receive, then forward -- Listing 1's shape.

    ``complete`` only turns true after the receive has finished *and*
    the forward send has been posted and completed; the forward can only
    be posted from inside a ``test``/``wait`` (CPU intervention), which
    is exactly the delay the paper's Fig 1 case (1) illustrates.
    """

    def __init__(self, be, comm, recv_req, right, addr, size):
        self.be = be
        self.comm = comm
        self.recv_req = recv_req
        self.right = right
        self.addr = addr
        self.size = size
        self.send_req = None

    @property
    def complete(self) -> bool:
        return bool(
            self.recv_req.complete and self.send_req is not None and self.send_req.complete
        )

    def advance(self):
        """Called from test/wait: post the forward once the recv landed."""
        if self.recv_req.complete and self.send_req is None:
            self.send_req = yield from self.be._isend(
                self.comm, self.right, self.addr, self.size, tag=53
            )

    def blocking_events(self) -> list:
        """Events a waiter may sleep on (offload-style requests only;
        host-MPI requests complete via the runtime's incoming queue)."""
        events = []
        for req in (self.recv_req, self.send_req):
            if req is not None and not req.complete:
                ev = getattr(req, "event", None)
                if ev is not None:
                    events.append(ev)
        return events
