"""Unit tests for RDMA operations: data movement, keys, completion."""

import pytest

from tests.helpers import pattern, run_proc
from repro.sim import Store
from repro.verbs import (
    ProtectionError,
    cross_register,
    gvmi_id_of,
    host_gvmi_register,
    post_control,
    rdma_read,
    rdma_write,
    reg_mr,
)


def _regd_pair(cluster, size):
    src = cluster.rank_ctx(0)
    dst = cluster.rank_ctx(1)
    data = pattern(size, seed=1)
    s_addr = src.space.alloc_like(data)
    d_addr = dst.space.alloc(size)
    box = {}

    def prog(sim):
        box["s"] = yield from reg_mr(src, s_addr, size)
        box["d"] = yield from reg_mr(dst, d_addr, size)

    run_proc(cluster, prog(cluster.sim))
    return src, dst, s_addr, d_addr, box["s"], box["d"], data


class TestWrite:
    def test_moves_real_bytes(self, tiny_cluster):
        src, dst, sa, da, hs, hd, data = _regd_pair(tiny_cluster, 8192)

        def prog(sim):
            t = yield from rdma_write(
                src, lkey=hs.lkey, src_addr=sa, rkey=hd.rkey, dst_addr=da, size=8192)
            yield t.completed

        run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert (dst.space.read(da, 8192) == data).all()

    def test_partial_range_write(self, tiny_cluster):
        src, dst, sa, da, hs, hd, data = _regd_pair(tiny_cluster, 4096)

        def prog(sim):
            t = yield from rdma_write(
                src, lkey=hs.lkey, src_addr=sa + 100, rkey=hd.rkey,
                dst_addr=da + 200, size=50)
            yield t.completed

        run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert (dst.space.read(da + 200, 50) == data[100:150]).all()

    def test_foreign_lkey_rejected(self, tiny_cluster):
        src, dst, sa, da, hs, hd, _ = _regd_pair(tiny_cluster, 64)

        def prog(sim):
            yield from rdma_write(
                dst, lkey=hs.lkey, src_addr=sa, rkey=hd.rkey, dst_addr=da, size=64)

        with pytest.raises(ProtectionError, match="cannot use it"):
            run_proc(tiny_cluster, prog(tiny_cluster.sim))

    def test_rkey_as_lkey_rejected(self, tiny_cluster):
        src, dst, sa, da, hs, hd, _ = _regd_pair(tiny_cluster, 64)

        def prog(sim):
            yield from rdma_write(
                src, lkey=hs.rkey, src_addr=sa, rkey=hd.rkey, dst_addr=da, size=64)

        with pytest.raises(ProtectionError, match="needs an lkey"):
            run_proc(tiny_cluster, prog(tiny_cluster.sim))

    def test_lkey_range_overflow_rejected(self, tiny_cluster):
        src, dst, sa, da, hs, hd, _ = _regd_pair(tiny_cluster, 64)

        def prog(sim):
            yield from rdma_write(
                src, lkey=hs.lkey, src_addr=sa + 32, rkey=hd.rkey,
                dst_addr=da, size=64)

        with pytest.raises(ProtectionError):
            run_proc(tiny_cluster, prog(tiny_cluster.sim))

    def test_delivered_precedes_completed(self, tiny_cluster):
        src, dst, sa, da, hs, hd, _ = _regd_pair(tiny_cluster, 1024)
        times = {}

        def prog(sim):
            t = yield from rdma_write(
                src, lkey=hs.lkey, src_addr=sa, rkey=hd.rkey, dst_addr=da, size=1024)
            dv = yield t.completed
            times["d"] = dv.time
            times["c"] = sim.now

        run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert times["d"] < times["c"]


class TestMkey2Write:
    def test_proxy_moves_host_bytes_directly(self, tiny_cluster):
        src, dst, sa, da, hs, hd, data = _regd_pair(tiny_cluster, 4096)
        proxy = tiny_cluster.proxy_for_rank(0)

        def prog(sim):
            gid = gvmi_id_of(proxy)
            mkey = yield from host_gvmi_register(src, sa, 4096, gid)
            mk2 = yield from cross_register(proxy, sa, 4096, gid, mkey.key)
            t = yield from rdma_write(
                proxy, lkey=mk2.key, src_addr=sa, rkey=hd.rkey, dst_addr=da, size=4096)
            yield t.completed

        run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert (dst.space.read(da, 4096) == data).all()
        # Data came straight from host memory, posted by the DPU.
        assert tiny_cluster.metrics.get("rdma.write.dpu") == 1

    def test_mkey2_unusable_by_other_proxy(self, small_cluster):
        src = small_cluster.rank_ctx(0)
        dst = small_cluster.rank_ctx(2)
        sa = src.space.alloc(64)
        da = dst.space.alloc(64)
        proxy_a = small_cluster.proxy_ctx(0, 0)
        proxy_b = small_cluster.proxy_ctx(0, 1)

        def prog(sim):
            hd = yield from reg_mr(dst, da, 64)
            gid = gvmi_id_of(proxy_a)
            mkey = yield from host_gvmi_register(src, sa, 64, gid)
            mk2 = yield from cross_register(proxy_a, sa, 64, gid, mkey.key)
            yield from rdma_write(
                proxy_b, lkey=mk2.key, src_addr=sa, rkey=hd.rkey, dst_addr=da, size=64)

        with pytest.raises(ProtectionError, match="not usable"):
            run_proc(small_cluster, prog(small_cluster.sim))


class TestRead:
    def test_pulls_remote_bytes(self, tiny_cluster):
        src, dst, sa, da, hs, hd, data = _regd_pair(tiny_cluster, 2048)

        # dst reads from src: dst needs a local lkey, src's rkey.
        def prog(sim):
            t = yield from rdma_read(
                dst, lkey=hd.lkey, local_addr=da, rkey=hs.rkey,
                remote_addr=sa, size=2048)
            yield t.completed

        run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert (dst.space.read(da, 2048) == data).all()

    def test_read_counts_initiator_kind(self, tiny_cluster):
        src, dst, sa, da, hs, hd, _ = _regd_pair(tiny_cluster, 128)

        def prog(sim):
            t = yield from rdma_read(
                dst, lkey=hd.lkey, local_addr=da, rkey=hs.rkey,
                remote_addr=sa, size=128)
            yield t.completed

        run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert tiny_cluster.metrics.get("rdma.read.host") == 1


class TestControl:
    def test_default_inbox_is_target_ctx(self, tiny_cluster):
        a = tiny_cluster.rank_ctx(0)
        b = tiny_cluster.rank_ctx(1)

        def prog(sim):
            posted = yield from post_control(a, b, ("ping", 1))
            assert posted is None  # fire-and-forget: nothing to wait on
            return (yield b.inbox.get())

        assert run_proc(tiny_cluster, prog(tiny_cluster.sim)) == ("ping", 1)

    def test_explicit_inbox(self, tiny_cluster):
        a = tiny_cluster.rank_ctx(0)
        b = tiny_cluster.rank_ctx(1)
        side = Store(tiny_cluster.sim)

        def prog(sim):
            yield from post_control(a, b, "x", inbox=side)
            return (yield side.get())

        assert run_proc(tiny_cluster, prog(tiny_cluster.sim)) == "x"
        assert len(side) == 0 and len(b.inbox) == 0
