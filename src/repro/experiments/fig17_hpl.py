"""Fig 17: HPL total runtime across problem sizes (% of system memory).

Paper, 16 nodes x 32 PPN, normalised to IntelMPI-HPL-1ring: the
Proposed group-offloaded ring broadcast runs ~15-18% faster than the
best host alternatives at small memory fractions (5-10%); its advantage
shrinks at 50-75% (large panels pay GVMI registration on every new
panel size) but it still wins by at least ~8.5%.  IntelMPI's 1-ring and
BluesMPI track each other.
"""

from __future__ import annotations

from repro.experiments.appruns import hpl_fractions, hpl_spec, hpl_sweeps, hpl_variants
from repro.experiments.common import FigureResult, Series, figure_runner

__all__ = ["run", "sweeps", "build"]

sweeps = hpl_sweeps


def build(scale: str, results: list) -> FigureResult:
    data = {(lab, f): r for (_, f, lab), r
            in zip(sweeps(scale)[0].points, results)}
    fractions = hpl_fractions()
    xs = [f"{int(f * 100)}%" for f in fractions]
    base = {f: data[("IntelMPI-1ring", f)].total for f in fractions}
    series = []
    for label, _flavor, _bc in hpl_variants():
        series.append(Series(
            label, xs, [data[(label, f)].total / base[f] for f in fractions], unit="x",
        ))
    fig = FigureResult(
        fig_id="fig17",
        title="HPL total runtime (normalised to IntelMPI-HPL-1ring)",
        series=series,
        config={"scale": scale, "nodes": hpl_spec(scale).nodes,
                "ppn": hpl_spec(scale).ppn,
                "n": {f: data[("IntelMPI-1ring", f)].n for f in fractions}},
    )
    prop = fig.series_by("Proposed").y
    ibc = fig.series_by("IntelMPI-Ibcast").y
    fig.check(
        "Proposed wins over IntelMPI-1ring at every memory fraction "
        "(paper: always >=8.5%)",
        all(p <= 0.99 for p in prop),
        " / ".join(f"{p:.3f}" for p in prop),
    )
    fig.check(
        "Proposed's edge is largest at small fractions and shrinks at "
        "50-75% (large-transfer GVMI overheads; paper: 15-18% -> 8.5%)",
        prop[0] < prop[-1] <= 0.99,
        f"{prop[0]:.3f} at {xs[0]} vs {prop[-1]:.3f} at {xs[-1]}",
    )
    fig.check(
        "IntelMPI's Ibcast never beats the 1-ring (CPU-progressed "
        "scatter-allgather has the most intervention points)",
        all(v >= 0.99 for v in ibc),
        " / ".join(f"{v:.3f}" for v in ibc),
    )
    fig.check(
        "Proposed beats IntelMPI-Ibcast decisively at small fractions "
        "(paper: ~18%)",
        prop[0] <= ibc[0] * 0.85,
        f"{(1 - prop[0] / ibc[0]) * 100:.1f}%",
    )
    return fig


run = figure_runner(sweeps, build)
