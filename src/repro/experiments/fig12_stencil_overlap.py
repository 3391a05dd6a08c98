"""Fig 12: 3DStencil communication/compute overlap percentage.

Paper: the Proposed scheme holds roughly constant ~78% overlap (the
remainder is intra-node shared-memory traffic, which is not offloaded),
while IntelMPI's overlap drops at the largest problem size, dragging
its overall time with it.
"""

from __future__ import annotations

from repro.experiments.appruns import stencil_sizes, stencil_spec, stencil_sweep
from repro.experiments.common import FigureResult, Series

__all__ = ["run"]


def run(scale: str = "quick") -> FigureResult:
    data = stencil_sweep(scale)
    sizes = stencil_sizes(scale)
    spec = stencil_spec(scale)
    intel = [data[("intelmpi", n)].overlap_pct for n in sizes]
    prop = [data[("proposed", n)].overlap_pct for n in sizes]
    fig = FigureResult(
        fig_id="fig12",
        title="3DStencil overlap percentage",
        series=[
            Series("IntelMPI", [f"{n}^3" for n in sizes], intel, unit="%"),
            Series("Proposed", [f"{n}^3" for n in sizes], prop, unit="%"),
        ],
        config={"scale": scale, "nodes": spec.nodes, "ppn": spec.ppn},
    )
    fig.check(
        "Proposed overlap is high but below 100% (intra-node not offloaded)",
        all(55.0 <= p <= 99.5 for p in prop),
        f"proposed overlap {[f'{p:.0f}' for p in prop]}",
    )
    spread = max(prop) - min(prop)
    fig.check(
        "Proposed overlap roughly constant across sizes (spread <= 25pp)",
        spread <= 25.0,
        f"spread {spread:.1f}pp",
    )
    fig.check(
        "Proposed overlap exceeds IntelMPI's at the largest size",
        prop[-1] > intel[-1],
        f"{prop[-1]:.0f}% vs {intel[-1]:.0f}%",
    )
    return fig
