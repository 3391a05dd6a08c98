"""How one command runs the simulator: :class:`RunConfig`, resolved once.

Engine mode, job count and the worker stall window are choices about
*running* the simulator, not about the machine or the protocol, so they
are not :class:`~repro.hw.params.ClusterSpec` fields.  Each CLI entry
point (``runall``, ``soak``) resolves one config from its flags and
installs it; sweep workers receive the parent's config as an argument
and install it with ``jobs=1`` (a nested sweep never spawns a pool).

:class:`~repro.hw.cluster.Cluster` reads the installed config only for
a spec that left ``fluid`` / ``fluid_threshold`` as ``None``: explicit
spec fields win, so committed figure configs stay byte-identical while
``runall --fluid`` flips a whole campaign's engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "DEFAULT_FLUID_THRESHOLD",
    "DEFAULT_STALL_TIMEOUT",
    "RunConfig",
    "current",
    "install",
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

#: Seconds of silence after a worker death before a pool sweep fails
#: its lost points (``runall --scale paper`` uses four times this).
DEFAULT_STALL_TIMEOUT = 30.0


@dataclass(frozen=True)
class RunConfig:
    """One command's run choices.  The defaults are a plain serial,
    exact-engine run -- what a library caller gets without installing
    anything."""

    #: Worker processes for sweeps called without ``jobs=``.
    jobs: int = 1
    #: Fluid-flow hybrid engine for specs that leave ``fluid=None``.
    fluid: bool = False
    #: Flow/event byte split for specs that leave ``fluid_threshold=None``.
    fluid_threshold: int = DEFAULT_FLUID_THRESHOLD
    #: Pool sweeps' worker-death stall window, in seconds.
    stall_timeout: float = DEFAULT_STALL_TIMEOUT

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.fluid_threshold < 1:
            raise ValueError(
                f"fluid threshold must be >= 1, got {self.fluid_threshold}")
        if self.stall_timeout < 1.0:
            raise ValueError(
                f"stall timeout must be >= 1 s, got {self.stall_timeout}")

    @classmethod
    def resolve(cls, *, jobs: Optional[int] = None, fluid: bool = False,
                fluid_threshold: Optional[int] = None,
                stall_timeout: Optional[float] = None) -> "RunConfig":
        """The config a command line asks for: unset flags take their
        defaults, and an unset job count falls back to ``$REPRO_JOBS``."""
        if jobs is None:
            try:
                jobs = int(os.environ.get("REPRO_JOBS", "1"))
            except ValueError:
                jobs = 1
        return cls(
            jobs=max(1, jobs),
            fluid=bool(fluid),
            fluid_threshold=(DEFAULT_FLUID_THRESHOLD if fluid_threshold is None
                             else fluid_threshold),
            stall_timeout=(DEFAULT_STALL_TIMEOUT if stall_timeout is None
                           else max(1.0, float(stall_timeout))),
        )

    @property
    def journal_extra(self):
        """Engine discriminator folded into campaign journal keys.

        Fluid and exact runs of the same point produce different
        results, so their records must never collide; exact runs return
        ``None``, the key every pre-fluid journal was written under.
        """
        if not self.fluid:
            return None
        return ("engine", "fluid", self.fluid_threshold)


_current = RunConfig()


def current() -> RunConfig:
    """The installed config."""
    return _current


def install(config: RunConfig) -> None:
    """Make ``config`` the one every later cluster and sweep reads."""
    global _current
    _current = config
