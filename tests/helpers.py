"""Plain-function helpers shared across test modules."""

from __future__ import annotations

import numpy as np


def run_proc(cluster, gen):
    """Run one generator to completion on the cluster's simulator."""
    proc = cluster.sim.process(gen)
    cluster.sim.run(until=proc)
    return proc.value


def run_procs(cluster, gens):
    """Run several generators; returns their values in order."""
    procs = [cluster.sim.process(g) for g in gens]
    cluster.sim.run(until=cluster.sim.all_of(procs))
    return [p.value for p in procs]


def pattern(n: int, seed: int = 0) -> np.ndarray:
    """Deterministic uint8 payload."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 255, size=n, dtype=np.uint8)


def blocking(rt, start):
    """Run a host-MPI start (``rt.isend(...)``, ``coll.ibcast(...)``, ...)
    and wait on its request: the blocking form of the call."""
    req = yield from start
    yield from rt.wait(req)
    return req


def waitall(rt, reqs):
    """``MPI_Waitall`` on a host runtime: wait on each request in order."""
    for req in list(reqs):
        yield from rt.wait(req)


def proxy_engine_of(fw, rank: int):
    """The proxy engine serving ``rank`` in framework ``fw``."""
    return fw.proxy_engine(fw.cluster.proxy_for_rank(rank))
