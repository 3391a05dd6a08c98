"""Staging-based transfers through DPU DRAM (paper Section V, Fig 6).

This is the mechanism state-of-the-art solutions (BluesMPI [8,9]) use:
the proxy RDMA-READs the source host's buffer into a staging buffer in
the BlueField's own DRAM, then RDMA-WRITEs it to the destination host.
Compared with a cross-GVMI transfer this costs an extra hop, and both
hops are capped by the DPU's DRAM bandwidth -- the degradation Figure 4
measures.

:class:`StagingChannel` manages a proxy's staging buffers: a pool of
size-class buckets whose buffers are registered (from the slow ARM
cores) on first use and reused afterwards.  That first-use registration
is exactly the warm-up sensitivity the paper observed in BluesMPI at
the application level (Section VIII-D): benchmarks hide it behind
warm-up iterations; P3DFFT's two back-to-back alltoalls on fresh
buffers do not.
"""

from __future__ import annotations

from repro.hw.memory import OutOfMemoryError
from repro.hw.node import ProcessContext
from repro.offload.requests import OffloadError
from repro.sim import Interrupt
from repro.verbs.mr import MemoryRegionHandle, dereg_mr, reg_mr

__all__ = ["StagingChannel"]


def size_class_of(size: int) -> int:
    """Round a request up to its power-of-two pool bucket (min 4 KiB)."""
    if size <= 0:
        raise OffloadError("staging buffer size must be positive")
    c = 4096
    while c < size:
        c <<= 1
    return c


class StagingChannel:
    """Per-proxy staging-buffer pool."""

    def __init__(self, ctx: ProcessContext):
        if ctx.kind != "dpu":
            raise OffloadError("staging buffers live in DPU DRAM")
        self.ctx = ctx
        #: Pooled buffers by size class; a staging buffer is its own
        #: registration (its ``size`` is the class).
        self._free: dict[int, list[MemoryRegionHandle]] = {}
        #: Buffers created so far (diagnostics; also the warm-up signal).
        self.created = 0
        self.reused = 0
        #: Pooled buffers torn down to make room under a DPU byte budget.
        self.evictions = 0
        self._outstanding = 0

    def acquire(self, size: int):
        """Get a registered staging buffer covering ``size`` bytes.

        A generator: on a pool miss it allocates and registers a new
        buffer (ARM-speed registration -- the warm-up cost); on a hit it
        is effectively free.
        """
        sc = size_class_of(size)
        self._outstanding += 1
        bucket = self._free.get(sc)
        if bucket:
            self.reused += 1
            self.ctx.cluster.metrics.add("staging.reuse")
            return bucket.pop()
        self.created += 1
        self.ctx.cluster.metrics.add("staging.create")
        try:
            addr = self.ctx.space.alloc(sc)
        except OutOfMemoryError:
            self._reclaim(sc)
            try:
                addr = self.ctx.space.alloc(sc)
            except OutOfMemoryError:
                self._outstanding -= 1
                cluster = self.ctx.cluster
                cluster.metrics.add("staging.oom")
                if cluster.bus is not None:
                    cluster.bus.emit("mem", "oom", self.ctx.trace_name,
                                     size=sc, pooled=self.pooled)
                raise
        try:
            return (yield from reg_mr(self.ctx, addr, sc))
        except (Interrupt, GeneratorExit):
            # The proxy was killed or closed inside the registration:
            # nobody will ever hold this buffer.
            self.ctx.space.free(addr)
            self._outstanding -= 1
            raise

    def _reclaim(self, needed: int) -> None:
        """Tear down pooled (idle) buffers until ``needed`` bytes fit.

        Deterministic order: smallest size class first, newest pooled
        buffer first within a class.  Each teardown deregisters the
        buffer and returns its DPU DRAM to the budget.
        """
        cluster = self.ctx.cluster
        freed = 0
        for sc in sorted(self._free):
            bucket = self._free[sc]
            while bucket and freed < needed:
                buf = bucket.pop()
                dereg_mr(self.ctx, buf)
                self.ctx.space.free(buf.addr)
                freed += buf.size
                self.evictions += 1
                cluster.metrics.add("staging.evictions")
                if cluster.bus is not None:
                    cluster.bus.emit("cache", "evict", self.ctx.trace_name,
                                     cache="staging", size=buf.size)
            if freed >= needed:
                break

    def release(self, buf: MemoryRegionHandle) -> None:
        self._outstanding -= 1
        self._free.setdefault(buf.size, []).append(buf)

    @property
    def outstanding(self) -> int:
        return self._outstanding

    @property
    def pooled(self) -> int:
        return sum(len(v) for v in self._free.values())
