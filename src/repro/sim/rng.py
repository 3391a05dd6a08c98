"""Named, seeded random streams.

All stochastic behaviour in the simulator (compute-time jitter, workload
generation) draws from a named stream so that (a) runs are reproducible
from a single root seed and (b) adding a new consumer of randomness does
not perturb the draws seen by existing consumers.

Spawn-keys extend the same idea across *processes*: the parallel sweep
engine derives one child seed per sweep point from the parent's root
seed and the point's stable key (figure label + point index), so a
point's randomness never depends on which worker runs it, on how many
workers there are, or on wall clock.  ``spawn_seed`` is the pure
derivation; ``RngRegistry(spawn_seed(root, *key))`` is the point's
registry.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RngRegistry", "spawn_seed"]


def _key_digest(parts: tuple) -> int:
    """Stable 32-bit digest of a heterogeneous key tuple."""
    text = "\x1f".join(repr(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


def spawn_seed(root_seed: int, *parts) -> int:
    """Derive a child root seed from ``(root_seed, *parts)``.

    Pure and platform-stable: the same root and key always produce the
    same child seed, regardless of process, job count, or call order.
    Never derives from wall clock or object identity.
    """
    seq = np.random.SeedSequence([int(root_seed), _key_digest(parts)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


class RngRegistry:
    """Hands out independent ``numpy.random.Generator`` streams by name."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the stream for ``name``, creating it deterministically."""
        gen = self._streams.get(name)
        if gen is None:
            # Derive a child seed from (root, name) in a stable way.
            digest = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence([self.root_seed, digest])
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen
