"""Fig 11: 3DStencil normalised overall time, Proposed vs IntelMPI.

Paper: 16 nodes x 32 PPN, problem sizes 512^3/1024^3/2048^3; the
Proposed Basic-primitive offload gives >20% lower overall (overlapped)
time than IntelMPI.
"""

from __future__ import annotations

from repro.experiments.appruns import stencil_sizes, stencil_spec, stencil_sweeps
from repro.experiments.common import FigureResult, Series, figure_runner, improvement_pct

__all__ = ["run", "sweeps", "build"]

sweeps = stencil_sweeps


def build(scale: str, results: list) -> FigureResult:
    data = {(f, n): r for (_, f, n), r
            in zip(sweeps(scale)[0].points, results)}
    sizes = stencil_sizes(scale)
    spec = stencil_spec(scale)
    intel = [data[("intelmpi", n)].overall for n in sizes]
    prop = [data[("proposed", n)].overall for n in sizes]
    fig = FigureResult(
        fig_id="fig11",
        title="3DStencil overall time (normalised to IntelMPI)",
        series=[
            Series("IntelMPI", [f"{n}^3" for n in sizes], [1.0] * len(sizes), unit="x"),
            Series("Proposed", [f"{n}^3" for n in sizes],
                   [p / i for p, i in zip(prop, intel)], unit="x"),
            Series("Proposed-improvement", [f"{n}^3" for n in sizes],
                   [improvement_pct(i, p) for p, i in zip(prop, intel)], unit="%"),
        ],
        config={"scale": scale, "nodes": spec.nodes, "ppn": spec.ppn},
    )
    worst = min(improvement_pct(i, p) for p, i in zip(prop, intel))
    fig.check(
        "Proposed beats IntelMPI at every size",
        all(p < i for p, i in zip(prop, intel)),
        f"min improvement {worst:.1f}%",
    )
    best = max(improvement_pct(i, p) for p, i in zip(prop, intel))
    fig.check(
        "benefit is substantial (>=15% at some size; paper: >20%)",
        best >= 15.0,
        f"best improvement {best:.1f}%",
    )
    return fig


run = figure_runner(sweeps, build)
