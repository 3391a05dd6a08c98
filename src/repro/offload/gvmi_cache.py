"""The two GVMI registration caches (paper Section VII-B).

Both are :class:`~repro.mpi.regcache.RegistrationCache` instances -- an
array indexed by remote rank whose slots hold registrations by ``(addr,
size)``; this module is their register and revoke glue.

* The **host-side** cache memoises ``host_gvmi_register`` results
  (mkeys).  Its array is indexed by the *mapped DPU proxy's* global
  rank, because the GVMI-ID -- an input to the registration -- is a
  function of which proxy will move the data (the slot is that proxy,
  so a slot's entries all carry its GVMI-ID).  Covering hits.
* The **DPU-side** cache memoises ``cross_register`` results (mkey2s).
  Its array is indexed by the *host source rank*.  The paper's key
  observation makes this sound: for a given host rank, the mkey is a
  pure function of ``(addr, size, gvmi_id)``, so ``(rank, addr, size)``
  uniquely identifies the cross-registration.  We *verify* that
  observation instead of assuming it: an exact entry whose stored mkey
  disagrees with the one presented is stale and re-registered (and
  counted, so tests can assert it never happens in normal runs; it fires
  legitimately when the host re-registers after an eviction or a free).

An evicted entry's key is revoked.  A proxy still holding an mkey2
derived from an evicted host mkey keeps working until the host's *next*
registration of that range mints a fresh mkey, which the DPU's check
then catches.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from repro.hw.node import ProcessContext
from repro.mpi.regcache import RegistrationCache
from repro.verbs.gvmi import cross_register, gvmi_id_of, host_gvmi_register

__all__ = ["host_gvmi_cache", "dpu_gvmi_cache"]


#: The host cache's slot: the mapped proxy's global index.
_PROXY_SLOT = attrgetter("global_id")


def _revoke(ctx: ProcessContext, info) -> None:
    from repro.verbs.rdma import verbs_state

    keys = verbs_state(ctx.cluster).keys
    if keys.is_live(info.key):
        keys.revoke(info.key)


def _register_mkey(host: ProcessContext, addr: int, size: int, proxy: ProcessContext):
    return host_gvmi_register(host, addr, size, gvmi_id_of(proxy))


def _register_mkey2(proxy: ProcessContext, addr: int, size: int, _host_rank: int,
                    gvmi_id: int, mkey: int):
    return cross_register(proxy, addr, size, gvmi_id, mkey)


def _same_mkey(info, _host_rank: int, _gvmi_id: int, mkey: int) -> bool:
    return info.parent_mkey == mkey


def host_gvmi_cache(ctx: ProcessContext, enabled: bool = True,
                    capacity: Optional[int] = None) -> RegistrationCache:
    """One host rank's mkey cache: ``get(addr, size, proxy)``."""
    if ctx.kind != "host":
        raise ValueError("the host GVMI cache lives on host processes")
    return RegistrationCache(
        ctx, capacity=capacity, capacity_param="gvmi_cache_capacity",
        metric="gvmi_cache.host", label="gvmi.host", enabled=enabled,
        register=_register_mkey, revoke=_revoke, slot_of=_PROXY_SLOT,
    )


def dpu_gvmi_cache(ctx: ProcessContext, enabled: bool = True,
                   capacity: Optional[int] = None) -> RegistrationCache:
    """One proxy's mkey2 cache: ``get(addr, size, host_rank, gvmi_id, mkey)``."""
    if ctx.kind != "dpu":
        raise ValueError("the DPU GVMI cache lives on DPU proxy processes")
    return RegistrationCache(
        ctx, capacity=capacity, capacity_param="gvmi_cache_capacity",
        metric="gvmi_cache.dpu", label="gvmi.dpu", enabled=enabled,
        register=_register_mkey2, revoke=_revoke, valid=_same_mkey,
    )
