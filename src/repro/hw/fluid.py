"""Ambient fluid-mode selection (the ``--fluid`` switch's plumbing).

The hybrid engine is selected per cluster (``ClusterSpec.fluid``), but
most figure code builds its specs from committed config dicts that must
stay byte-identical between modes.  Those specs leave ``fluid=None``
and inherit the *ambient* default set here.

The ambient default lives in ``os.environ`` (``REPRO_FLUID`` /
``REPRO_FLUID_THRESHOLD``) rather than a module global, mirroring
``REPRO_JOBS``: the parallel sweep engine spawns workers with the
``spawn`` start method, and a fresh interpreter only inherits the
environment.  Setting the mode in the parent therefore flips every
worker of the campaign too.

Fluid mode composes with fault injection: an armed
:class:`~repro.hw.faults.FaultPlan` rides the flow path (error CQEs,
extra delay, and -- fluid-only -- flow drop/retransmit fates), and a
:class:`~repro.hw.faults.LinkDegradePlan` drives the FlowEngine's
endpoint capacities.  See docs/FAULTS.md and docs/PERFORMANCE.md.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

__all__ = [
    "DEFAULT_FLUID_THRESHOLD",
    "default_fluid",
    "default_fluid_threshold",
    "engine_mode",
    "resolve_fluid",
    "set_default_fluid",
    "using_fluid",
]

#: Bulk/control split.  Below it, messages are latency-bound, cheap to
#: price exactly, and -- critically -- still *contend* with control
#: traffic for the tx/rx ports, an effect the decoupled FlowEngine
#: cannot see (flows only rate-share with other flows).  Measured on
#: the figure suite (docs/PERFORMANCE.md): a 64 KiB threshold lets
#: fig15's contention-coupled 64 KiB exchanges ride flows and distorts
#: them by up to 10%; at 256 KiB every quick-scale figure matches the
#: event engine to < 1e-9 relative.  16x the eager threshold also
#: matches where serialization (not port arbitration) dominates the
#: exact engine's timing.
DEFAULT_FLUID_THRESHOLD = 256 * 1024

_ENV_FLUID = "REPRO_FLUID"
_ENV_THRESHOLD = "REPRO_FLUID_THRESHOLD"


def default_fluid() -> bool:
    """Ambient engine mode: True when ``REPRO_FLUID`` is a truthy flag."""
    return os.environ.get(_ENV_FLUID, "0") not in ("0", "", "false", "False")


def default_fluid_threshold() -> int:
    """Ambient byte threshold for routing transfers into flows."""
    raw = os.environ.get(_ENV_THRESHOLD)
    if not raw:
        return DEFAULT_FLUID_THRESHOLD
    value = int(raw)
    if value < 1:
        raise ValueError(f"REPRO_FLUID_THRESHOLD must be >= 1, got {value}")
    return value


def set_default_fluid(enabled: bool, threshold: Optional[int] = None) -> None:
    """Set the ambient mode (inherited by spawned sweep workers)."""
    os.environ[_ENV_FLUID] = "1" if enabled else "0"
    if threshold is not None:
        if threshold < 1:
            raise ValueError(f"fluid threshold must be >= 1, got {threshold}")
        os.environ[_ENV_THRESHOLD] = str(threshold)


@contextmanager
def using_fluid(enabled: bool = True, threshold: Optional[int] = None):
    """Scoped ambient mode (tests / library callers); restores on exit."""
    saved = {k: os.environ.get(k) for k in (_ENV_FLUID, _ENV_THRESHOLD)}
    try:
        set_default_fluid(enabled, threshold)
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def engine_mode() -> str:
    """``"exact"`` or ``"fluid"`` -- the ambient mode as a label.

    Campaign journals fold this into their content keys so fluid and
    exact records of the same sweep point never collide.
    """
    return "fluid" if default_fluid() else "exact"


def resolve_fluid(spec) -> tuple[bool, int]:
    """Resolve a :class:`~repro.hw.params.ClusterSpec`'s engine choice.

    Explicit spec fields win; ``None`` fields inherit the ambient
    default.  Returns ``(enabled, threshold_bytes)``.
    """
    enabled = spec.fluid if spec.fluid is not None else default_fluid()
    threshold = (
        spec.fluid_threshold
        if spec.fluid_threshold is not None
        else default_fluid_threshold()
    )
    return bool(enabled), int(threshold)
