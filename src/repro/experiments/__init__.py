"""Experiment harness: one module per data figure in the paper.

Each ``figXX_*`` module declares its sweeps, ``sweeps(scale) ->
list[Sweep]``, and a pure ``build(scale, *results) -> FigureResult``
over one point-ordered result list per sweep; ``run(scale="quick")``
does both, serially.  Two scales:

* ``"quick"`` -- shrunk node/PPN counts and message sweeps that run in
  seconds; the qualitative *shape* (who wins, roughly by how much,
  where crossovers fall) is asserted by each figure's checks.
* ``"paper"`` -- the paper's full configurations (16 nodes x 32 PPN
  etc.); minutes to hours of simulation, for offline regeneration.

``python -m repro.experiments.runall [figNN ...] [--scale quick|paper]``
regenerates everything and prints the tables recorded in
EXPERIMENTS.md.
"""

from repro.experiments.common import FigureResult, Series, ShapeCheck

ALL_FIGURES = [
    "fig01_timeline",
    "fig02_rdma_latency",
    "fig03_rdma_bw",
    "fig04_pingpong_staging",
    "fig05_registration",
    "fig11_stencil_time",
    "fig12_stencil_overlap",
    "fig13_ialltoall",
    "fig14_ialltoall_overlap",
    "fig15_group_vs_simple",
    "fig16_p3dfft",
    "fig17_hpl",
    "fig18_collective_scaling",
    "fig19_congestion",
]

__all__ = ["ALL_FIGURES", "FigureResult", "Series", "ShapeCheck"]
