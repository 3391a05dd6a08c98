"""Series containers, table rendering and shape checks for experiments,
and the figure protocol: declared sweeps plus a pure build."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.experiments.parallel import Sweep, run_sweeps

__all__ = [
    "Series",
    "ShapeCheck",
    "FigureResult",
    "Sweep",
    "figure_runner",
    "SimBarrier",
    "fmt_size",
    "improvement_pct",
    "canonical_json",
]


class SimBarrier:
    """Zero-cost, out-of-band rank synchronisation for measurement.

    Unlike a protocol barrier this consumes no simulated resources --
    it exists purely to align measurement windows across ranks (the
    role wall-clock synchronisation plays in real benchmark harnesses).
    """

    def __init__(self, sim, n: int):
        from repro.sim import Event

        self.sim = sim
        self.n = n
        self._count = 0
        self._event = Event(sim)

    def arrive(self):
        """A generator: suspends until all ``n`` parties have arrived."""
        from repro.sim import Event

        self._count += 1
        ev = self._event
        if self._count == self.n:
            self._count = 0
            self._event = Event(self.sim)
            ev.succeed(None)
        if not ev.processed:
            yield ev


def fmt_size(nbytes: float) -> str:
    n = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if n >= 10 or unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.0f}GiB"  # pragma: no cover


def improvement_pct(baseline: float, ours: float) -> float:
    """How much lower ``ours`` is than ``baseline`` (paper's convention)."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - ours) / baseline


@dataclass
class Series:
    """One curve/bar group of a figure."""

    label: str
    x: list[Any]
    y: list[float]
    #: Unit of y (for table rendering), e.g. "us", "ms", "%", "x".
    unit: str = ""


@dataclass
class ShapeCheck:
    """A qualitative assertion about a reproduced figure."""

    name: str
    passed: bool
    detail: str = ""


def canonical_json(fig_dict: dict, ignore_config: tuple = ("wall_seconds",)) -> str:
    """Stable byte-form of a figure payload for determinism comparisons.

    Sorted keys, no whitespace variance; ``ignore_config`` drops the
    config entries that legitimately vary between otherwise identical
    runs (wall clock).  The parallel determinism harness asserts these
    strings are byte-identical across job counts.
    """
    d = dict(fig_dict)
    if "config" in d:
        d["config"] = {
            k: v for k, v in d["config"].items() if k not in ignore_config
        }
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


@dataclass
class FigureResult:
    """Everything a figure reproduction produced."""

    fig_id: str
    title: str
    series: list[Series] = field(default_factory=list)
    checks: list[ShapeCheck] = field(default_factory=list)
    notes: str = ""
    #: Config used (scale, nodes, ppn, ...), recorded for EXPERIMENTS.md.
    config: dict = field(default_factory=dict)
    #: Counter/histogram snapshots captured by the figure module
    #: (JSON-ready; lands in runall's figNN.json next to the tables).
    metrics: dict = field(default_factory=dict)

    def series_by(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"{self.fig_id}: no series {label!r}")

    def check(self, name: str, condition: bool, detail: str = "") -> None:
        self.checks.append(ShapeCheck(name=name, passed=bool(condition), detail=detail))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """JSON-ready form (runall's figNN.json snapshot)."""
        return {
            "fig_id": self.fig_id,
            "title": self.title,
            "config": dict(self.config),
            "series": [
                {"label": s.label, "unit": s.unit,
                 "x": list(s.x), "y": list(s.y)}
                for s in self.series
            ],
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "notes": self.notes,
            "metrics": self.metrics,
        }

    def render(self) -> str:
        """Aligned text table: x down the rows, one column per series."""
        lines = [f"== {self.fig_id}: {self.title} =="]
        if self.config:
            cfg = ", ".join(f"{k}={v}" for k, v in self.config.items())
            lines.append(f"   [{cfg}]")
        if self.series:
            xs = self.series[0].x
            head = f"{'x':>14s}" + "".join(
                f"{s.label + ('(' + s.unit + ')' if s.unit else ''):>22s}"
                for s in self.series
            )
            lines.append(head)
            for i, xv in enumerate(xs):
                row = f"{str(xv):>14s}"
                for s in self.series:
                    v = s.y[i] if i < len(s.y) else float("nan")
                    row += f"{v:>22.3f}"
                lines.append(row)
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}" + (f" -- {c.detail}" if c.detail else ""))
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


def figure_runner(sweeps: Callable, build: Callable) -> Callable:
    """A figure module's public ``run(scale)``: its ``sweeps(scale)`` run
    serially in this process, then ``build(scale, *results)`` with one
    point-ordered result list per sweep."""

    def run(scale: str = "quick") -> FigureResult:
        return build(scale, *([r.value for r in results]
                              for results in run_sweeps(sweeps(scale))))

    return run
