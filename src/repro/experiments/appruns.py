"""The application sweeps of Figs 11-17, declared as data.

Each ``*_sweeps(scale)`` is the ``sweeps`` its figures declare: one
:class:`~repro.experiments.parallel.Sweep`, an ordered list of
independent points -- each point builds its own cluster and simulator
-- and the module-level function that runs one.  Figures 11/12 (and
13/14) are two views of the same runs and declare the same sweep; a
``runall`` campaign runs each declared sweep once, its points spread
over ``--jobs`` workers, and hands the point-ordered results to every
figure that declared it.

Scales:

* ``quick``  -- shrunk clusters (the default everywhere; seconds).
* ``paper``  -- the paper's configurations (16/8/4 nodes x 32 PPN);
  minutes+ of simulation, meant for offline regeneration.
"""

from __future__ import annotations

from repro.apps.omb import ialltoall_overlap
from repro.apps.p3dfft import p3dfft_phase
from repro.apps.hpl import hpl_run, n_for_memory_fraction
from repro.apps.stencil3d import stencil_overlap
from repro.experiments.common import Sweep
from repro.hw.params import ClusterSpec

__all__ = [
    "FLAVORS",
    "stencil_spec",
    "stencil_sizes",
    "stencil_sweeps",
    "ialltoall_spec",
    "ialltoall_blocks",
    "ialltoall_nodes",
    "ialltoall_sweeps",
    "p3dfft_configs",
    "p3dfft_sweeps",
    "hpl_fractions",
    "hpl_sweeps",
]

FLAVORS = ("intelmpi", "bluesmpi", "proposed")


# ---------------------------------------------------------------------------
# Figs 11/12: 3DStencil (paper: 16 nodes x 32 PPN; 512^3..2048^3)
# ---------------------------------------------------------------------------

def stencil_spec(scale: str) -> ClusterSpec:
    if scale == "paper":
        return ClusterSpec(nodes=16, ppn=32, proxies_per_dpu=8)
    return ClusterSpec(nodes=4, ppn=8, proxies_per_dpu=4)


def stencil_sizes(scale: str) -> list[int]:
    return [512, 1024, 2048] if scale == "paper" else [192, 256, 512]


def _stencil_point(scale: str, flavor: str, n: int):
    """One (flavor, grid-size) cell of the stencil sweep.

    OMB-style methodology: one uninterrupted dummy-compute block
    (``test_chunk=None``) between posting the exchange and the waitall.
    ``compute_scale`` balances compute against halo traffic the way the
    paper's testbed does (its >20% overall gains imply communication is
    a 25-35% slice of the iteration).
    """
    return stencil_overlap(
        flavor, stencil_spec(scale), n, iters=3, warmup=1,
        test_chunk=None, compute_scale=0.6,
    )


def stencil_sweeps(scale: str) -> list[Sweep]:
    """Points ``(scale, flavor, n)`` -> OverlapResult, Proposed vs IntelMPI."""
    return [Sweep("stencil", _stencil_point, [
        (scale, flavor, n)
        for flavor in ("intelmpi", "proposed")
        for n in stencil_sizes(scale)
    ])]


# ---------------------------------------------------------------------------
# Figs 13/14: Ialltoall overall time + overlap (4/8/16 nodes x 32 PPN)
# ---------------------------------------------------------------------------

def ialltoall_spec(scale: str, nodes: int) -> ClusterSpec:
    if scale == "paper":
        return ClusterSpec(nodes=nodes, ppn=32, proxies_per_dpu=8)
    return ClusterSpec(nodes=nodes, ppn=4, proxies_per_dpu=4)


def ialltoall_nodes(scale: str) -> list[int]:
    return [4, 8, 16] if scale == "paper" else [2, 4, 8]


def ialltoall_blocks(scale: str) -> list[int]:
    return [16384, 65536, 262144] if scale == "paper" else [16384, 65536, 262144]


def _ialltoall_point(scale: str, nodes: int, flavor: str, block: int):
    """One (nodes, flavor, block) cell.  OMB NBC methodology: one
    dummy-compute block between the collective and its wait, no
    intermediate tests."""
    return ialltoall_overlap(
        flavor, ialltoall_spec(scale, nodes), block,
        iters=3, warmup=2, test_chunk=None,
    )


def ialltoall_sweeps(scale: str) -> list[Sweep]:
    """Points ``(scale, nodes, flavor, block)`` -> OverlapResult."""
    return [Sweep("ialltoall", _ialltoall_point, [
        (scale, nodes, flavor, block)
        for nodes in ialltoall_nodes(scale)
        for flavor in FLAVORS
        for block in ialltoall_blocks(scale)
    ])]


# ---------------------------------------------------------------------------
# Fig 16: P3DFFT (8 nodes: 256x256xZ; 16 nodes: 512x512xZ)
# ---------------------------------------------------------------------------

def p3dfft_configs(scale: str) -> list[dict]:
    if scale == "paper":
        return [
            {"label": "8 nodes", "spec": ClusterSpec(nodes=8, ppn=32, proxies_per_dpu=8),
             "x": 256, "y": 256, "zs": [512, 1024, 2048]},
            {"label": "16 nodes", "spec": ClusterSpec(nodes=16, ppn=32, proxies_per_dpu=8),
             "x": 512, "y": 512, "zs": [1024, 2048, 4096]},
        ]
    return [
        {"label": "2 nodes", "spec": ClusterSpec(nodes=2, ppn=8, proxies_per_dpu=4),
         "x": 64, "y": 64, "zs": [128, 256, 512]},
        {"label": "4 nodes", "spec": ClusterSpec(nodes=4, ppn=8, proxies_per_dpu=4),
         "x": 128, "y": 128, "zs": [256, 512, 1024]},
    ]


def _p3dfft_point(scale: str, cfg_index: int, flavor: str, z: int):
    """One (config, flavor, Z) cell.  No warm-up (the application-level
    condition that exposes BluesMPI); several iterations, as the real
    test_sine.x performs forward+backward transforms repeatedly."""
    cfg = p3dfft_configs(scale)[cfg_index]
    return p3dfft_phase(flavor, cfg["spec"], cfg["x"], cfg["y"], z, iters=6)


def p3dfft_sweeps(scale: str) -> list[Sweep]:
    """Points ``(scale, config_index, flavor, z)`` -> P3dfftProfile."""
    return [Sweep("p3dfft", _p3dfft_point, [
        (scale, i, flavor, z)
        for i, cfg in enumerate(p3dfft_configs(scale))
        for flavor in FLAVORS
        for z in cfg["zs"]
    ])]


# ---------------------------------------------------------------------------
# Fig 17: HPL (16 nodes x 32 PPN; 5%..75% of 256 GB/node)
# ---------------------------------------------------------------------------

def hpl_fractions() -> list[float]:
    return [0.05, 0.10, 0.25, 0.50, 0.75]


def hpl_spec(scale: str) -> ClusterSpec:
    if scale == "paper":
        return ClusterSpec(nodes=16, ppn=32, proxies_per_dpu=8)
    return ClusterSpec(nodes=4, ppn=16, proxies_per_dpu=4)


def hpl_variants() -> list[tuple[str, str, str]]:
    """(label, flavor, bcast algorithm)."""
    return [
        ("IntelMPI-1ring", "intelmpi", "1ring"),
        ("IntelMPI-Ibcast", "intelmpi", "ibcast"),
        ("BluesMPI", "bluesmpi", "ibcast"),
        ("Proposed", "proposed", "ibcast"),
    ]


def _hpl_point(scale: str, fraction: float, label: str):
    """One (memory-fraction, variant) cell of the HPL sweep.

    The quick scale shrinks node memory so matrix orders stay simulable
    (N = 4k..16k instead of 160k..620k) and truncates the factorization
    to a prefix of steps (per-step cost decays quadratically).  The
    comm/compute balance per step is governed by Q and the polling
    granularity (``tests_per_update``), which is what the paper's HPL
    deltas hinge on.
    """
    spec = hpl_spec(scale)
    node_mem = 256e9 * (1.0 if scale == "paper" else 2.0e-3)
    grid = (16, 32) if scale == "paper" else (4, 16)
    flavor, bc = next(
        (f, b) for lab, f, b in hpl_variants() if lab == label)
    n = n_for_memory_fraction(fraction, node_mem, spec.nodes)
    return hpl_run(
        flavor, spec, n=n, nb=128, bcast=bc,
        tests_per_update=3, grid=grid,
        max_steps=40 if scale != "paper" else None,
    )


def hpl_sweeps(scale: str) -> list[Sweep]:
    """Points ``(scale, fraction, variant label)`` -> HplResult."""
    return [Sweep("hpl", _hpl_point, [
        (scale, fraction, label)
        for fraction in hpl_fractions()
        for label, _flavor, _bc in hpl_variants()
    ])]
