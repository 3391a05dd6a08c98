"""Fig 14: MPI_Ialltoall overlap percentage.

Paper: both DPU-offloaded runtimes (BluesMPI and Proposed) reach close
to 100% overlap at every node count -- the offload works for both; the
Proposed scheme wins Fig 13 on *communication latency*, not overlap.
IntelMPI's host-progressed collective overlaps far less.
"""

from __future__ import annotations

from repro.experiments.appruns import (
    FLAVORS,
    ialltoall_blocks,
    ialltoall_nodes,
    ialltoall_sweeps,
)
from repro.experiments.common import FigureResult, Series, figure_runner, fmt_size

__all__ = ["run", "sweeps", "build"]

sweeps = ialltoall_sweeps

_LABELS = {"intelmpi": "IntelMPI", "bluesmpi": "BluesMPI", "proposed": "Proposed"}


def build(scale: str, results: list) -> FigureResult:
    data = {(f, n, b): r for (_, n, f, b), r
            in zip(sweeps(scale)[0].points, results)}
    nodes_list = ialltoall_nodes(scale)
    blocks = ialltoall_blocks(scale)
    xs = [f"{n}n/{fmt_size(b)}" for n in nodes_list for b in blocks]
    series = []
    for flavor in FLAVORS:
        ys = [
            data[(flavor, n, b)].overlap_pct for n in nodes_list for b in blocks
        ]
        series.append(Series(_LABELS[flavor], xs, ys, unit="%"))
    fig = FigureResult(
        fig_id="fig14",
        title="Ialltoall overlap percentage",
        series=series,
        config={"scale": scale, "nodes": nodes_list},
    )
    prop = [data[("proposed", n, b)].overlap_pct for n in nodes_list for b in blocks]
    blues = [data[("bluesmpi", n, b)].overlap_pct for n in nodes_list for b in blocks]
    intel = [data[("intelmpi", n, b)].overlap_pct for n in nodes_list for b in blocks]
    big = blocks[-1]
    prop_big = [data[("proposed", n, big)].overlap_pct for n in nodes_list]
    fig.check(
        "Proposed overlap close to 100% (paper: ~100%); >=75% even at the "
        "smallest blocks where the call overhead itself shows",
        all(p >= 75.0 for p in prop) and all(p >= 88.0 for p in prop_big),
        f"min {min(prop):.0f}%, min at largest block {min(prop_big):.0f}%",
    )
    fig.check(
        "BluesMPI overlap also close to 100% (offload works for both)",
        all(b >= 85.0 for b in blues),
        f"min {min(blues):.0f}%",
    )
    fig.check(
        "IntelMPI overlaps much less than the offloaded runtimes",
        max(intel) < min(min(prop), min(blues)),
        f"IntelMPI max {max(intel):.0f}% vs offload min "
        f"{min(min(prop), min(blues)):.0f}%",
    )
    return fig


run = figure_runner(sweeps, build)
