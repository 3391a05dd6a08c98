"""Unit tests for GVMI / cross-GVMI registration semantics (Section V)."""

import pytest

from tests.helpers import run_proc
from repro.verbs import (
    GvmiError,
    ProtectionError,
    cross_register,
    gvmi_id_of,
    host_gvmi_register,
)
from repro.verbs.mr import key_kind


class TestGvmiId:
    def test_stable_per_proxy(self, small_cluster):
        p = small_cluster.proxy_ctx(0, 0)
        assert gvmi_id_of(p) == gvmi_id_of(p)

    def test_distinct_across_proxies(self, small_cluster):
        ids = {gvmi_id_of(ctx) for ctx in small_cluster.proxies}
        assert len(ids) == len(small_cluster.proxies)

    def test_host_processes_have_no_gvmi(self, small_cluster):
        with pytest.raises(GvmiError):
            gvmi_id_of(small_cluster.rank_ctx(0))


def _do_host_reg(cluster, host, proxy, size=4096):
    addr = host.space.alloc(size)

    def prog(sim):
        return (yield from host_gvmi_register(host, addr, size, gvmi_id_of(proxy)))

    return addr, run_proc(cluster, prog(cluster.sim))


class TestHostRegistration:
    def test_produces_mkey_bound_to_gvmi(self, tiny_cluster):
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxy_ctx(0, 0)
        _, info = _do_host_reg(tiny_cluster, host, proxy)
        assert key_kind(info, info.key) == "mkey"
        assert info.gvmi_id == gvmi_id_of(proxy)
        assert info.owner is host

    def test_rejected_on_dpu_process(self, tiny_cluster):
        proxy = tiny_cluster.proxy_ctx(0, 0)
        addr = proxy.space.alloc(64)

        def prog(sim):
            yield from host_gvmi_register(proxy, addr, 64, gvmi_id_of(proxy))

        with pytest.raises(GvmiError):
            run_proc(tiny_cluster, prog(tiny_cluster.sim))

    def test_unmapped_buffer_rejected(self, tiny_cluster):
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxy_ctx(0, 0)

        def prog(sim):
            yield from host_gvmi_register(host, 0xBEEF00, 64, gvmi_id_of(proxy))

        with pytest.raises(ProtectionError):
            run_proc(tiny_cluster, prog(tiny_cluster.sim))


class TestCrossRegistration:
    def test_produces_mkey2_over_host_memory(self, tiny_cluster):
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxy_ctx(0, 0)
        addr, mkey = _do_host_reg(tiny_cluster, host, proxy)

        def prog(sim):
            return (yield from cross_register(
                proxy, addr, 4096, gvmi_id_of(proxy), mkey.key))

        info = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert key_kind(info, info.key) == "mkey2"
        assert info.owner is host  # grants access to *host* memory
        assert info.parent_mkey == mkey.key

    def test_foreign_gvmi_rejected(self, small_cluster):
        host = small_cluster.rank_ctx(0)
        proxy_a = small_cluster.proxy_ctx(0, 0)
        proxy_b = small_cluster.proxy_ctx(0, 1)
        addr, mkey = _do_host_reg(small_cluster, host, proxy_a)

        def prog(sim):
            yield from cross_register(
                proxy_b, addr, 4096, gvmi_id_of(proxy_a), mkey.key)

        with pytest.raises(GvmiError, match="different protection domain"):
            run_proc(small_cluster, prog(small_cluster.sim))

    def test_mismatched_range_rejected(self, tiny_cluster):
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxy_ctx(0, 0)
        addr, mkey = _do_host_reg(tiny_cluster, host, proxy)

        def prog(sim):
            yield from cross_register(
                proxy, addr, 2048, gvmi_id_of(proxy), mkey.key)

        with pytest.raises(GvmiError, match="does not match"):
            run_proc(tiny_cluster, prog(tiny_cluster.sim))

    def test_non_mkey_parent_rejected(self, tiny_cluster):
        from repro.verbs import reg_mr

        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxy_ctx(0, 0)
        addr = host.space.alloc(64)

        def prog(sim):
            h = yield from reg_mr(host, addr, 64)
            yield from cross_register(proxy, addr, 64, gvmi_id_of(proxy), h.lkey)

        with pytest.raises(GvmiError, match="not a host GVMI mkey"):
            run_proc(tiny_cluster, prog(tiny_cluster.sim))

    def test_host_process_cannot_cross_register(self, tiny_cluster):
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxy_ctx(0, 0)
        addr, mkey = _do_host_reg(tiny_cluster, host, proxy)

        def prog(sim):
            yield from cross_register(host, addr, 4096, gvmi_id_of(proxy), mkey.key)

        with pytest.raises(GvmiError):
            run_proc(tiny_cluster, prog(tiny_cluster.sim))

    def test_cross_registration_slower_than_host_registration(self, tiny_cluster):
        host = tiny_cluster.rank_ctx(0)
        proxy = tiny_cluster.proxy_ctx(0, 0)
        size = 256 * 1024
        addr = host.space.alloc(size)
        times = {}

        def prog(sim):
            t0 = sim.now
            mkey = yield from host_gvmi_register(host, addr, size, gvmi_id_of(proxy))
            times["host"] = sim.now - t0
            t1 = sim.now
            yield from cross_register(proxy, addr, size, gvmi_id_of(proxy), mkey.key)
            times["dpu"] = sim.now - t1

        run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert times["dpu"] > times["host"]
