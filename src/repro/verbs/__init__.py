"""RDMA verbs and the GVMI / cross-GVMI extension.

This layer reproduces the InfiniBand semantics the paper builds on
(Section IV) plus the BlueField cross-GVMI feature (Section V):

* :func:`~repro.verbs.mr.reg_mr` -- ``ibv_reg_mr``: registering a memory
  region returns an ``lkey``/``rkey`` pair; any RDMA op on a local
  buffer needs the lkey, any op targeting a remote buffer needs that
  buffer's rkey.
* :func:`~repro.verbs.gvmi.host_gvmi_register` /
  :func:`~repro.verbs.gvmi.cross_register` -- the two-step cross-GVMI
  registration: the host registers a buffer under a proxy's GVMI-ID
  (producing ``mkey``), then the DPU proxy cross-registers
  ``(addr, size, gvmi_id, mkey)`` producing ``mkey2``, which it then
  uses *as the lkey* of RDMA writes issued on behalf of the host.
* :func:`~repro.verbs.rdma.rdma_write` / :func:`~repro.verbs.rdma.rdma_read`
  -- one-sided data movement with key checking and optional real-byte
  payload copies.

All key checking is enforced: using a stale, foreign, or mismatched key
raises :class:`~repro.verbs.mr.ProtectionError` exactly where real
hardware would produce a protection fault.
"""

from repro.verbs.mr import (KeyTable, MemoryRegionHandle, Mkey, Mkey2, ProtectionError, dereg_mr,
                            reg_mr)
from repro.verbs.gvmi import GvmiError, cross_register, gvmi_id_of, host_gvmi_register
from repro.verbs.rdma import post_control, rdma_read, rdma_write, verbs_state

__all__ = [
    "GvmiError",
    "KeyTable",
    "MemoryRegionHandle",
    "Mkey",
    "Mkey2",
    "ProtectionError",
    "cross_register",
    "dereg_mr",
    "gvmi_id_of",
    "host_gvmi_register",
    "post_control",
    "rdma_read",
    "rdma_write",
    "reg_mr",
    "verbs_state",
]
