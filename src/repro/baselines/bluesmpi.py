"""The "BluesMPI" baseline: staging-based DPU offload [8, 9].

BluesMPI offloads ``MPI_Ialltoall``/``MPI_Ibcast`` to BlueField worker
processes but (a) moves every byte through a **staging** buffer in DPU
DRAM -- an extra hop, both hops capped by the DPU's DRAM bandwidth --
and (b) re-ships the collective's metadata to the proxy **on every
call** (it has no Section VII-D request caches; its offload is
algorithm-specific rather than a generic recorded pattern).

Point-to-point operations are *not* offloaded ("BluesMPI does not
support point-to-point offload", Section VIII-D) -- they fall through
to the host runtime, identical to IntelMPI.

The warm-up pathology the paper diagnoses in P3DFFT emerges naturally:
the first call on a given buffer set pays host-side registrations and
ARM-speed staging-buffer registrations on the proxies; micro-benchmarks
hide this behind warm-up iterations, applications do not.
"""

from __future__ import annotations

from repro.baselines.base import GroupBackend

__all__ = ["BluesMpiBackend"]


class BluesMpiBackend(GroupBackend):
    name = "bluesmpi"
    mode = "staged"
    keeps_patterns = False
    a2a_tag = 17
    bcast_tag = 19
