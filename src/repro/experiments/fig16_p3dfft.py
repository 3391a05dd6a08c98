"""Fig 16: P3DFFT application runtime and its compute/MPI profile.

Paper: on 8 nodes (256x256xZ) the Proposed runtime beats IntelMPI by up
to 16% and BluesMPI by up to 55%; on 16 nodes (512x512xZ) by up to 20%
and 60%.  Fig 16c's profile of one forward phase shows all three spend
identical compute time, BluesMPI spends by far the most in MPI_Wait --
the warm-up pathology of two back-to-back Ialltoalls on fresh buffers
(staging-buffer and host registrations that micro-benchmarks hide
behind warm-up iterations).
"""

from __future__ import annotations

from repro.experiments.appruns import FLAVORS, p3dfft_configs, p3dfft_sweeps
from repro.experiments.common import FigureResult, Series, figure_runner, improvement_pct

__all__ = ["run", "sweeps", "build"]

sweeps = p3dfft_sweeps

_LABELS = {"intelmpi": "IntelMPI", "bluesmpi": "BluesMPI", "proposed": "Proposed"}


def build(scale: str, results: list) -> FigureResult:
    cfgs = p3dfft_configs(scale)
    data = {(f, cfgs[i]["label"], z): r for (_, i, f, z), r
            in zip(sweeps(scale)[0].points, results)}
    xs, intel, blues, prop = [], [], [], []
    for cfg in cfgs:
        for z in cfg["zs"]:
            xs.append(f"{cfg['label']}/Z={z}")
            intel.append(data[("intelmpi", cfg["label"], z)].overall)
            blues.append(data[("bluesmpi", cfg["label"], z)].overall)
            prop.append(data[("proposed", cfg["label"], z)].overall)
    series = [
        Series("IntelMPI", xs, [1.0] * len(xs), unit="x"),
        Series("BluesMPI", xs, [b / i for b, i in zip(blues, intel)], unit="x"),
        Series("Proposed", xs, [p / i for p, i in zip(prop, intel)], unit="x"),
    ]
    # Fig 16c: the compute/MPI profile of the first configuration's
    # smallest run (the paper's "problem P1").
    cfg0 = cfgs[0]
    z0 = cfg0["zs"][0]
    profile_txt = "; ".join(
        f"{_LABELS[f]}: compute={data[(f, cfg0['label'], z0)].compute_time * 1e3:.2f}ms "
        f"mpi={data[(f, cfg0['label'], z0)].mpi_time * 1e3:.2f}ms"
        for f in FLAVORS
    )
    fig = FigureResult(
        fig_id="fig16",
        title="P3DFFT runtime (normalised to IntelMPI) + MPI-time profile",
        series=series,
        config={"scale": scale,
                "configs": [f"{c['label']}:{c['x']}x{c['y']}xZ" for c in cfgs]},
        notes=f"Fig 16c profile ({cfg0['label']}, Z={z0}): {profile_txt}",
    )
    best_vs_intel = max(improvement_pct(i, p) for i, p in zip(intel, prop))
    best_vs_blues = max(improvement_pct(b, p) for b, p in zip(blues, prop))
    fig.check(
        "Proposed beats IntelMPI (paper: up to 16-20%)",
        all(p < i for p, i in zip(prop, intel)) and best_vs_intel >= 8.0,
        f"best {best_vs_intel:.1f}%",
    )
    fig.check(
        "Proposed beats BluesMPI by a wide margin (paper: up to 55-60%)",
        best_vs_blues >= 35.0,
        f"best {best_vs_blues:.1f}%",
    )
    fig.check(
        "BluesMPI is the worst at the application level (no-warm-up "
        "pathology) despite beating IntelMPI in micro-benchmarks",
        all(b > i for b, i in zip(blues, intel)),
    )
    mpi_times = {f: data[(f, cfg0["label"], z0)].mpi_time for f in FLAVORS}
    compute_times = {f: data[(f, cfg0["label"], z0)].compute_time for f in FLAVORS}
    fig.check(
        "profile: compute identical across runtimes, BluesMPI spends the "
        "most time in MPI (Fig 16c)",
        max(compute_times.values()) - min(compute_times.values())
        < 0.01 * max(compute_times.values())
        and mpi_times["bluesmpi"] == max(mpi_times.values()),
        "mpi: " + ", ".join(f"{k}={v * 1e3:.2f}ms" for k, v in mpi_times.items()),
    )
    return fig


run = figure_runner(sweeps, build)
