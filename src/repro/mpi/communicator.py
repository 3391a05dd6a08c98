"""Communicators: ordered groups of world ranks."""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.mpi.datatypes import MpiError

__all__ = ["Communicator"]

_comm_ids = itertools.count()


class Communicator:
    """An ordered subset of world ranks with its own rank numbering.

    All runtime APIs take *communicator-local* ranks and translate to
    world ranks internally, as a real MPI does.  ``Communicator.world``
    builds COMM_WORLD; ``split`` mirrors ``MPI_Comm_split`` (used by the
    P3DFFT pencil decomposition to build row/column communicators).
    """

    def __init__(self, world_ranks: Sequence[int], name: str = ""):
        ranks = list(world_ranks)
        if len(set(ranks)) != len(ranks):
            raise MpiError(f"duplicate ranks in communicator: {ranks}")
        if not ranks:
            raise MpiError("empty communicator")
        self.comm_id = next(_comm_ids)
        self.world_ranks = ranks
        self._index = {w: i for i, w in enumerate(ranks)}
        self.name = name or f"comm{self.comm_id}"
        #: Memoised split results, so every rank calling ``split`` with
        #: the same arguments receives the *same* Communicator objects
        #: (the stand-in for MPI's collectively-agreed context ids).
        self._split_cache: dict = {}

    @staticmethod
    def world(size: int) -> "Communicator":
        return Communicator(range(size), name="COMM_WORLD")

    @property
    def size(self) -> int:
        return len(self.world_ranks)

    def rank_of(self, world_rank: int) -> int:
        """Communicator-local rank of a world rank."""
        try:
            return self._index[world_rank]
        except KeyError:
            raise MpiError(
                f"world rank {world_rank} is not in {self.name}"
            ) from None

    def world_rank(self, local_rank: int) -> int:
        if not 0 <= local_rank < self.size:
            raise MpiError(f"rank {local_rank} out of range for {self.name} (size {self.size})")
        return self.world_ranks[local_rank]

    def split(self, colors: Sequence[int], keys: Optional[Sequence[int]] = None) -> dict[int, "Communicator"]:
        """Split into sub-communicators by color (one entry per color).

        ``colors``/``keys`` are indexed by communicator-local rank.
        Returns ``{color: Communicator}``; members are ordered by key
        then by original rank, like ``MPI_Comm_split``.
        """
        if len(colors) != self.size:
            raise MpiError("colors must have one entry per rank")
        if keys is None:
            keys = list(range(self.size))
        cache_key = (tuple(colors), tuple(keys))
        cached = self._split_cache.get(cache_key)
        if cached is not None:
            return cached
        groups: dict[int, list[tuple[int, int]]] = {}
        for local, (color, key) in enumerate(zip(colors, keys)):
            groups.setdefault(color, []).append((key, self.world_ranks[local]))
        out = {}
        for color, members in groups.items():
            members.sort()
            out[color] = Communicator(
                [w for _, w in members], name=f"{self.name}.split{color}"
            )
        self._split_cache[cache_key] = out
        return out
