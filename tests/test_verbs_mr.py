"""Unit tests for memory registration and key checking."""

import pytest

from tests.helpers import run_proc
from repro.verbs import (
    MemoryRegionHandle,
    ProtectionError,
    dereg_mr,
    reg_mr,
    verbs_state,
)
from repro.verbs.mr import registration_cost
from repro.verbs.rdma import work_request


class TestRegMr:
    def test_returns_distinct_keys(self, tiny_cluster):
        ctx = tiny_cluster.rank_ctx(0)
        addr = ctx.space.alloc(4096)

        def prog(sim):
            return (yield from reg_mr(ctx, addr, 4096))

        handle = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert isinstance(handle, MemoryRegionHandle)
        assert handle.lkey != handle.rkey

    def test_costs_simulated_time(self, tiny_cluster):
        ctx = tiny_cluster.rank_ctx(0)
        addr = ctx.space.alloc(1 << 20)

        def prog(sim):
            t0 = sim.now
            yield from reg_mr(ctx, addr, 1 << 20)
            return sim.now - t0

        elapsed = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert elapsed == pytest.approx(registration_cost(ctx, addr, 1 << 20))
        assert elapsed > 10e-6  # page pinning dominates at 1 MiB

    def test_dpu_registration_costs_more(self, tiny_cluster):
        host = tiny_cluster.rank_ctx(0)
        dpu = tiny_cluster.proxy_ctx(0, 0)
        ha = host.space.alloc(65536)
        da = dpu.space.alloc(65536)
        assert registration_cost(dpu, da, 65536) > registration_cost(host, ha, 65536)

    def test_unmapped_range_rejected(self, tiny_cluster):
        ctx = tiny_cluster.rank_ctx(0)

        def prog(sim):
            yield from reg_mr(ctx, 0xBAD000, 64)

        with pytest.raises(ProtectionError):
            run_proc(tiny_cluster, prog(tiny_cluster.sim))

    def test_dereg_revokes_both_keys(self, tiny_cluster):
        ctx = tiny_cluster.rank_ctx(0)
        addr = ctx.space.alloc(64)

        def prog(sim):
            h = yield from reg_mr(ctx, addr, 64)
            dereg_mr(ctx, h)
            return h

        handle = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        table = verbs_state(tiny_cluster).keys
        with pytest.raises(ProtectionError):
            table.lookup(handle.lkey)
        with pytest.raises(ProtectionError):
            table.lookup(handle.rkey)


class TestKeyTable:
    def _handle(self, cluster, size=4096):
        ctx = cluster.rank_ctx(0)
        addr = ctx.space.alloc(size)

        def prog(sim):
            return (yield from reg_mr(ctx, addr, size))

        return ctx, addr, run_proc(cluster, prog(cluster.sim))

    def test_check_happy_path(self, tiny_cluster):
        ctx, addr, h = self._handle(tiny_cluster)
        state = verbs_state(tiny_cluster)
        local, remote, _ser = work_request(state, ctx, h.lkey, addr, h.rkey, addr + 8, 64)
        assert local is h and remote is h  # the registration, filed under both keys

    def test_check_wrong_kind(self, tiny_cluster):
        ctx, addr, h = self._handle(tiny_cluster)
        state = verbs_state(tiny_cluster)
        with pytest.raises(ProtectionError, match="is a lkey; remote access needs an rkey"):
            work_request(state, ctx, h.lkey, addr, h.lkey, addr, 8)
        with pytest.raises(ProtectionError, match="is a rkey; RDMA local access needs"):
            work_request(state, ctx, h.rkey, addr, h.rkey, addr, 8)

    def test_check_wrong_owner(self, tiny_cluster):
        ctx, addr, h = self._handle(tiny_cluster)
        other = tiny_cluster.rank_ctx(1)
        state = verbs_state(tiny_cluster)
        with pytest.raises(ProtectionError, match="belongs to"):
            work_request(state, other, h.lkey, addr, h.rkey, addr, 8)

    def test_check_out_of_range(self, tiny_cluster):
        ctx, addr, h = self._handle(tiny_cluster, size=64)
        state = verbs_state(tiny_cluster)
        with pytest.raises(ProtectionError, match="covers"):
            work_request(state, ctx, h.lkey, addr, h.rkey, addr + 32, 64)

    def test_unknown_key(self, tiny_cluster):
        table = verbs_state(tiny_cluster).keys
        with pytest.raises(ProtectionError, match="not registered"):
            table.lookup(0xFFFF)

    def test_revoke_unknown(self, tiny_cluster):
        table = verbs_state(tiny_cluster).keys
        with pytest.raises(ProtectionError):
            table.revoke(0x1)
