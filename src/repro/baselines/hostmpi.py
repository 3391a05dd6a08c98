"""The "IntelMPI" baseline: a pure host-progressed MPI.

This backend is the thinnest possible adapter over :mod:`repro.mpi`:
non-blocking operations only advance while the CPU is inside an MPI
call, collectives are round-scheduled point-to-point -- the exact
behaviour whose overlap limitations motivate the paper (and which its
3DStencil/Ialltoall/HPL experiments measure as the IntelMPI curves).

``ibcast`` uses the binomial tree (the stand-in for "Intel-MPI's best
Ibcast algorithm", Section VIII-D); the HPL harness separately drives
the 1-ring algorithm over plain p2p, as HPL itself does.
"""

from __future__ import annotations

from repro.baselines.base import CommBackend

__all__ = ["HostMpiBackend"]


class HostMpiBackend(CommBackend):
    name = "intelmpi"
