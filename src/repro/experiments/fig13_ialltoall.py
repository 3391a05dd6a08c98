"""Fig 13: MPI_Ialltoall overall (communication + compute) time.

Paper, 32 PPN: Proposed beats BluesMPI by up to 25% (4 nodes), 30%
(8 nodes) and 47% (16 nodes), and IntelMPI by 35/40/58% -- the win over
BluesMPI comes from removing the staging hop, the win over IntelMPI
from overlap, and the margins grow with scale.
"""

from __future__ import annotations

from repro.experiments.appruns import (
    FLAVORS,
    ialltoall_blocks,
    ialltoall_nodes,
    ialltoall_spec,
    ialltoall_sweeps,
)
from repro.experiments.common import FigureResult, Series, figure_runner, fmt_size, improvement_pct

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
            data[(flavor, n, b)].overall * 1e6
            for n in nodes_list
            for b in blocks
        ]
        series.append(Series(_LABELS[flavor], xs, ys, unit="us"))
    fig = FigureResult(
        fig_id="fig13",
        title="Ialltoall overall time (communication + compute)",
        series=series,
        config={
            "scale": scale,
            "nodes": nodes_list,
            "ppn": ialltoall_spec(scale, nodes_list[0]).ppn,
        },
    )

    largest = nodes_list[-1]
    big_block = blocks[-1]

    def overall(flavor, n=largest, b=big_block):
        return data[(flavor, n, b)].overall

    imp_blues = improvement_pct(overall("bluesmpi"), overall("proposed"))
    imp_intel = improvement_pct(overall("intelmpi"), overall("proposed"))
    fig.check(
        "at the largest scale, Proposed beats BluesMPI substantially "
        "(paper: 47% at 16 nodes)",
        imp_blues >= 20.0,
        f"{imp_blues:.1f}% at {largest} nodes / {fmt_size(big_block)}",
    )
    fig.check(
        "at the largest scale, Proposed beats IntelMPI substantially "
        "(paper: 58% at 16 nodes)",
        imp_intel >= 25.0,
        f"{imp_intel:.1f}%",
    )
    # Margin over BluesMPI grows with node count (25% -> 47% in the paper).
    margins = [
        improvement_pct(
            data[("bluesmpi", n, big_block)].overall,
            data[("proposed", n, big_block)].overall,
        )
        for n in nodes_list
    ]
    fig.check(
        "Proposed's margin over BluesMPI grows with scale",
        margins[-1] > margins[0],
        " -> ".join(f"{m:.0f}%" for m in margins),
    )
    fig.check(
        "Proposed wins everywhere at rendezvous sizes",
        all(
            data[("proposed", n, b)].overall
            <= min(data[("bluesmpi", n, b)].overall, data[("intelmpi", n, b)].overall)
            for n in nodes_list
            for b in blocks
            if b > 16384
        ),
    )
    return fig


run = figure_runner(sweeps, build)
