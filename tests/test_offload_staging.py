"""Unit tests for the staging-buffer pool."""

import pytest

from tests.helpers import run_proc
from repro.offload import OffloadError, StagingChannel
from repro.offload.staging import size_class_of


class TestSizeClasses:
    def test_minimum_bucket(self):
        assert size_class_of(1) == 4096
        assert size_class_of(4096) == 4096

    def test_power_of_two_rounding(self):
        assert size_class_of(4097) == 8192
        assert size_class_of(100_000) == 131072

    def test_invalid_size(self):
        with pytest.raises(OffloadError):
            size_class_of(0)


class TestPool:
    def test_host_context_rejected(self, tiny_cluster):
        with pytest.raises(OffloadError):
            StagingChannel(tiny_cluster.rank_ctx(0))

    def test_first_acquire_registers(self, tiny_cluster):
        ch = StagingChannel(tiny_cluster.proxy_ctx(0, 0))

        def prog(sim):
            t0 = sim.now
            buf = yield from ch.acquire(10_000)
            first = sim.now - t0
            ch.release(buf)
            t1 = sim.now
            buf2 = yield from ch.acquire(10_000)
            second = sim.now - t1
            ch.release(buf2)
            return first, second, buf, buf2

        first, second, buf, buf2 = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert first > 0 and second == 0.0  # reuse is free
        assert buf is buf2
        assert ch.created == 1 and ch.reused == 1

    def test_distinct_size_classes_distinct_buffers(self, tiny_cluster):
        ch = StagingChannel(tiny_cluster.proxy_ctx(0, 0))

        def prog(sim):
            a = yield from ch.acquire(1000)
            b = yield from ch.acquire(100_000)
            ch.release(a)
            ch.release(b)
            return a, b

        a, b = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert a.size != b.size
        assert ch.created == 2

    def test_concurrent_acquires_get_distinct_buffers(self, tiny_cluster):
        ch = StagingChannel(tiny_cluster.proxy_ctx(0, 0))

        def prog(sim):
            a = yield from ch.acquire(4096)
            b = yield from ch.acquire(4096)
            assert a.addr != b.addr
            assert ch.outstanding == 2
            ch.release(a)
            ch.release(b)
            assert ch.outstanding == 0
            assert ch.pooled == 2

        run_proc(tiny_cluster, prog(tiny_cluster.sim))

    def test_buffer_is_registered_dpu_memory(self, tiny_cluster):
        proxy = tiny_cluster.proxy_ctx(0, 0)
        ch = StagingChannel(proxy)

        def prog(sim):
            buf = yield from ch.acquire(4096)
            return buf

        buf = run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert proxy.space.contains(buf.addr, buf.size)
        assert buf.owner is proxy
