"""GVMI / cross-GVMI registration (paper Section V).

The flow the paper describes, reproduced step for step:

1. A DPU proxy generates a **GVMI-ID** once per protection domain
   (:func:`gvmi_id_of`) and shares it with host processes during
   ``Init_Offload``.
2. A host process registers its source buffer *under that GVMI-ID*
   (:func:`host_gvmi_register`), obtaining an **mkey**, and ships
   ``(addr, size, mkey)`` to the proxy.
3. The proxy **cross-registers** ``(addr, size, gvmi_id, mkey)``
   (:func:`cross_register`), obtaining **mkey2**, which it then uses as
   the *lkey* of RDMA writes that move the host's bytes directly --
   no staging through DPU DRAM.

The mkey is a pure function of ``(addr, size, gvmi_id)`` for a given
host process -- the property the paper leans on to justify keying both
registration caches by ``(remote rank, addr, size)`` alone.  We enforce
consistency: cross-registering with an mkey that does not match the
host-side registration raises :class:`GvmiError`.
"""

from __future__ import annotations


from repro.hw.memory import pages_spanned
from repro.hw.node import ProcessContext
from repro.verbs.mr import Mkey, Mkey2, ProtectionError, key_kind

__all__ = ["GvmiError", "gvmi_id_of", "host_gvmi_register", "cross_register"]


class GvmiError(ProtectionError):
    """Cross-GVMI misuse (wrong GVMI-ID, mismatched mkey, ...)."""


#: GVMI-IDs are small integers derived from the proxy's global index;
#: offset so they can never collide with ranks in tests.
_GVMI_BASE = 0x5000


def gvmi_id_of(proxy: ProcessContext) -> int:
    """The GVMI-ID of a proxy's protection domain: minted on first use and
    kept on the context, so every mkey of the domain shares one object."""
    gvmi = getattr(proxy, "gvmi_id", None)
    if gvmi is None:
        if proxy.kind != "dpu":
            raise GvmiError(f"{proxy!r} is not a DPU process; only proxies own GVMIs")
        gvmi = proxy.gvmi_id = _GVMI_BASE + proxy.global_id
    return gvmi


def _gvmi_reg_cost(ctx: ProcessContext, addr: int, size: int) -> float:
    p = ctx.cluster.params
    return p.gvmi_reg_base + pages_spanned(addr, size) * p.gvmi_reg_per_page


def _xreg_cost(ctx: ProcessContext, addr: int, size: int) -> float:
    p = ctx.cluster.params
    return p.xreg_base + pages_spanned(addr, size) * p.xreg_per_page


def host_gvmi_register(host: ProcessContext, addr: int, size: int, gvmi_id: int):
    """First registration: host buffer under a proxy's GVMI-ID -> mkey.

    Use as ``mkey_info = yield from host_gvmi_register(...)``.
    """
    if host.kind != "host":
        raise GvmiError(f"GVMI host registration must run on a host process, not {host!r}")
    if not host.space.contains(addr, size):
        raise ProtectionError(
            f"{host!r}: GVMI-registering unmapped range [{addr:#x}, +{size})"
        )
    from repro.verbs.rdma import verbs_state

    state = verbs_state(host.cluster)
    yield host.consume(_gvmi_reg_cost(host, addr, size))
    info = Mkey(state.keys, host, addr, size, host.space.epoch, gvmi_id)
    host.cluster.metrics.add("gvmi.host_registrations")
    bus = host.cluster.bus
    if bus is not None:
        bus.emit("reg", "mkey", host.trace_name, size=size, gvmi=gvmi_id)
    return info


def cross_register(
    proxy: ProcessContext, addr: int, size: int, gvmi_id: int, mkey: int
):
    """Second registration: proxy turns the host's mkey into mkey2.

    Validates the whole chain: the mkey must exist, must carry this
    GVMI-ID, must cover exactly the advertised range, and the GVMI-ID
    must be this proxy's own.  Use as
    ``mkey2_info = yield from cross_register(...)``.
    """
    if proxy.kind != "dpu":
        raise GvmiError(f"cross-registration must run on a DPU process, not {proxy!r}")
    if gvmi_id != gvmi_id_of(proxy):
        raise GvmiError(
            f"{proxy!r}: GVMI-ID {gvmi_id:#x} belongs to a different protection domain"
        )
    from repro.verbs.rdma import verbs_state

    state = verbs_state(proxy.cluster)
    parent = state.keys.lookup(mkey)
    if not isinstance(parent, Mkey):
        raise GvmiError(f"key {mkey:#x} is a {key_kind(parent, mkey)}, not a host GVMI mkey")
    if parent.gvmi_id != gvmi_id:
        raise GvmiError(
            f"mkey {mkey:#x} was registered under GVMI-ID {parent.gvmi_id:#x}, "
            f"not {gvmi_id:#x}"
        )
    if parent.addr != addr or parent.size != size:
        raise GvmiError(
            f"cross-registration range [{addr:#x}, +{size}) does not match the "
            f"host registration [{parent.addr:#x}, +{parent.size})"
        )
    yield proxy.consume(_xreg_cost(proxy, addr, size))
    info = Mkey2(state.keys, parent)
    proxy.cluster.metrics.add("gvmi.cross_registrations")
    bus = proxy.cluster.bus
    if bus is not None:
        bus.emit("reg", "mkey2", proxy.trace_name, size=size, gvmi=gvmi_id)
    return info
