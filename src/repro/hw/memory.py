"""Per-process address spaces and byte-accurate buffers.

Every simulated process (host rank or DPU proxy) owns an
:class:`AddressSpace`: a bump allocator handing out integer virtual
addresses backed by NumPy byte arrays.  Transfers can optionally carry
real bytes, which is how the applications (stencil halo exchange, FFT
transpose, LU panels) are validated numerically.

Addresses are plain integers so they can serve directly as the
registration-cache keys the paper describes (`(address, size)` within a
per-rank array slot).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "PAGE_SIZE",
    "pages_spanned",
    "AddressSpace",
    "OutOfMemoryError",
    "reset_peak_stats",
    "peak_stats",
]

#: Virtual-memory page size assumed by the registration cost model.
PAGE_SIZE = 4096

#: Peak resident bytes observed per process kind since the last
#: :func:`reset_peak_stats` (experiments record this per sweep point).
_PEAK_RESIDENT: dict[str, int] = {"host": 0, "dpu": 0}


def reset_peak_stats() -> None:
    """Zero the module-wide peak-resident-bytes tracker."""
    _PEAK_RESIDENT["host"] = 0
    _PEAK_RESIDENT["dpu"] = 0


def peak_stats() -> dict[str, int]:
    """Peak resident bytes per process kind since the last reset."""
    return dict(_PEAK_RESIDENT)


class OutOfMemoryError(MemoryError):
    """An allocation would exceed the address space's byte budget.

    Carries enough context for graceful degradation decisions (the
    proxy falls back to the host path when DPU DRAM is exhausted).
    """

    def __init__(self, owner: str, requested: int, resident: int, budget: int):
        self.owner = owner
        self.requested = requested
        self.resident = resident
        self.budget = budget
        super().__init__(
            f"{owner}: allocation of {requested} bytes exceeds budget "
            f"({resident}/{budget} bytes resident)"
        )


_UINT8 = np.dtype(np.uint8)


def _as_raw_bytes(data: np.ndarray) -> np.ndarray:
    """``data`` as a flat, contiguous uint8 array -- without copying when
    it already is one (the dominant data-plane case: views handed out by
    :meth:`AddressSpace.read`)."""
    if (
        type(data) is np.ndarray
        and data.dtype == _UINT8
        and data.ndim == 1
        and data.flags.c_contiguous
    ):
        return data
    return np.ascontiguousarray(data).view(_UINT8).reshape(-1)


def pages_spanned(addr: int, size: int) -> int:
    """Number of pages the byte range [addr, addr+size) touches."""
    if size <= 0:
        return 0
    first = addr // PAGE_SIZE
    last = (addr + size - 1) // PAGE_SIZE
    return last - first + 1


class AddressSpace:
    """A bump-allocated virtual address space with NumPy-backed buffers.

    ``alloc`` returns an integer address; ``read``/``write`` move real
    bytes.  Freeing is supported but by default the allocator never
    reuses addresses -- exactly what a registration cache wants (a given
    ``(addr, size)`` always refers to the same logical buffer for the
    lifetime of the run).  With ``reuse=True`` freed blocks are recycled
    LIFO per size class, so free + same-size alloc hands back the *same*
    address -- the buffer-reuse pattern that makes stale-mkey
    invalidation observable.

    With ``budget`` set, ``alloc`` raises :class:`OutOfMemoryError`
    once resident bytes would exceed it.  ``epoch`` is bumped on every
    ``free``; registrations stamp the epoch they were minted under so
    stale keys are detectable after the range is recycled.
    """

    #: Allocations are aligned to this many bytes (page-aligned keeps the
    #: page math honest).
    ALIGN = 64

    def __init__(
        self,
        owner: str = "?",
        kind: Optional[str] = None,
        budget: Optional[int] = None,
        reuse: bool = False,
    ):
        self.owner = owner
        #: "host" / "dpu" (feeds the peak-resident tracker); None for
        #: standalone spaces built in unit tests.
        self.kind = kind
        #: Byte budget; None = unbounded.
        self.budget = budget
        self.reuse = reuse
        self._next = PAGE_SIZE  # never hand out address 0
        #: Base address -> its size until first touched, then its
        #: backing array (see :meth:`_materialize`).
        self._buffers: dict[int, int | np.ndarray] = {}
        #: Freed blocks by aligned step size, popped LIFO when
        #: ``reuse`` is on.
        self._free_blocks: dict[int, list[int]] = {}
        #: Total bytes currently allocated (diagnostics).
        self.allocated_bytes = 0
        #: High-water mark of ``allocated_bytes``.
        self.peak_bytes = 0
        #: Bumped on every ``free``: registrations minted before the
        #: bump are suspect once their range is recycled.
        self.epoch = 0

    def alloc(self, size: int, fill: Optional[int] = None) -> int:
        """Allocate ``size`` bytes, returning the base address."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if self.budget is not None and self.allocated_bytes + size > self.budget:
            raise OutOfMemoryError(
                self.owner, size, self.allocated_bytes, self.budget
            )
        step = (size + self.ALIGN - 1) // self.ALIGN * self.ALIGN
        bucket = self._free_blocks.get(step)
        if self.reuse and bucket:
            addr = bucket.pop()
        else:
            addr = self._next
            self._next += step
        if fill is not None:
            buf = np.zeros(size, dtype=np.uint8)
            buf[:] = fill
        else:
            # Lazy backing: the array is materialised (zero-filled) on
            # first access (see _materialize).  Timing-only runs allocate
            # thousands of buffers nobody ever reads or writes.
            buf = size
        self._buffers[addr] = buf
        self.allocated_bytes += size
        if self.allocated_bytes > self.peak_bytes:
            self.peak_bytes = self.allocated_bytes
            if self.kind in _PEAK_RESIDENT:
                if self.peak_bytes > _PEAK_RESIDENT[self.kind]:
                    _PEAK_RESIDENT[self.kind] = self.peak_bytes
        return addr

    def alloc_like(self, array: np.ndarray) -> int:
        """Allocate a buffer holding a copy of ``array``'s bytes."""
        raw = _as_raw_bytes(array)
        addr = self.alloc(raw.nbytes)
        self._materialize(addr)[:] = raw
        return addr

    def free(self, addr: int) -> None:
        buf = self._buffers.pop(addr, None)
        if buf is None:
            raise KeyError(f"{self.owner}: free of unknown address {addr:#x}")
        size = buf.size if isinstance(buf, np.ndarray) else buf
        self.allocated_bytes -= size
        self.epoch += 1
        if self.reuse:
            step = (size + self.ALIGN - 1) // self.ALIGN * self.ALIGN
            self._free_blocks.setdefault(step, []).append(addr)

    def size_of(self, addr: int) -> int:
        buf = self._buffers[addr]
        return buf.size if isinstance(buf, np.ndarray) else buf

    def contains(self, addr: int, size: int = 1) -> bool:
        """True if [addr, addr+size) falls inside one allocation."""
        base = self._find_base(addr)
        if base is None:
            return False
        buf = self._buffers[base]
        return addr - base + size <= (buf.size if isinstance(buf, np.ndarray) else buf)

    def _find_base(self, addr: int) -> Optional[int]:
        if addr in self._buffers:
            return addr
        # Interior pointer: scan (allocations are few per process).
        for base, buf in self._buffers.items():
            if base <= addr < base + (buf.size if isinstance(buf, np.ndarray) else buf):
                return base
        return None

    def _materialize(self, base: int) -> np.ndarray:
        """The backing array for ``base``, creating it on first access."""
        buf = self._buffers[base]
        if not isinstance(buf, np.ndarray):
            buf = self._buffers[base] = np.zeros(buf, dtype=np.uint8)
        return buf

    def view(self, addr: int, size: int) -> np.ndarray:
        """A mutable uint8 view of [addr, addr+size)."""
        base = self._find_base(addr)
        if base is None:
            raise KeyError(f"{self.owner}: no buffer covering address {addr:#x}")
        buf = self._materialize(base)
        off = addr - base
        if off + size > buf.size:
            raise ValueError(
                f"{self.owner}: range [{addr:#x}, +{size}) overruns allocation "
                f"of {buf.size} bytes at {base:#x}"
            )
        return buf[off : off + size]

    def write(self, addr: int, data: np.ndarray) -> None:
        """Copy ``data``'s bytes into [addr, addr+len).

        Safe against overlap: when ``data`` is a view of this same
        buffer range (``read`` returns zero-copy views), the source is
        snapshotted first, so ``write(dst, read(src, n))`` behaves like
        ``memmove`` even for overlapping local copies.
        """
        raw = _as_raw_bytes(data)
        dst = self.view(addr, raw.nbytes)
        if np.may_share_memory(dst, raw):
            raw = raw.copy()
        dst[:] = raw

    def read(self, addr: int, size: int) -> np.ndarray:
        """A read-only, zero-copy view of [addr, addr+size).

        The view aliases the live buffer: it observes later writes to
        the range.  Callers that need snapshot semantics (e.g. an eager
        send capturing bytes while the app may overwrite the buffer)
        must use :meth:`read_copy` (see docs/PERFORMANCE.md for the
        aliasing rules).
        """
        v = self.view(addr, size)
        v.flags.writeable = False
        return v

    def read_copy(self, addr: int, size: int) -> np.ndarray:
        """A mutable *copy* of [addr, addr+size) (snapshot semantics)."""
        return self.view(addr, size).copy()

    def read_as(self, addr: int, dtype, count: int) -> np.ndarray:
        """A read-only, zero-copy ``dtype`` view of ``count`` items."""
        nbytes = np.dtype(dtype).itemsize * count
        v = self.view(addr, nbytes).view(dtype)
        v.flags.writeable = False
        return v
