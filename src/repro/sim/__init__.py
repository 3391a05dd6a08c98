"""Discrete-event simulation kernel.

A small, dependency-free, SimPy-flavoured event engine.  Every moving
part of the reproduced system -- host ranks, DPU proxy processes, NIC
engines, the fabric -- is a :class:`~repro.sim.process.Process`
(a Python generator) running on a shared :class:`~repro.sim.core.Simulator`
clock.  Time is measured in **seconds** throughout the code base.

The kernel is deliberately deterministic: the events of one instant
fire in the order they were scheduled, and all randomness flows through the named,
seeded streams of :mod:`repro.sim.rng`, so a given configuration always
produces the identical event trace.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    DeadlockError,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.flows import Flow, FlowEngine, fair_shares, fair_shares_links
from repro.sim.process import Process
from repro.sim.resources import Store
from repro.sim.rng import RngRegistry, spawn_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "DeadlockError",
    "Event",
    "fair_shares",
    "fair_shares_links",
    "Flow",
    "FlowEngine",
    "Interrupt",
    "Process",
    "RngRegistry",
    "spawn_seed",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
