"""Host collectives at awkward communicator sizes, against numpy.

The algorithm unit tests elsewhere pin tree shapes and message counts;
here every host collective runs end-to-end on *non-power-of-two* and
*single-rank* communicators -- the sizes where vrank rotation,
incomplete binomial trees, and ring wrap-around actually bite -- and
the resulting payload bytes are checked against the straightforward
numpy rendition of the same collective.

Reductions use integer-valued float64 payloads so the sum is exact in
any association order: "matches numpy" then means *byte-identical*,
not merely close.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld
from repro.mpi import collectives as coll
from tests.helpers import blocking

#: (nodes, ppn) per communicator size: 1 rank, and the non-powers-of-two
#: 3, 5, and 6 (6 split across multi-rank nodes so intra-node paths run).
WORLD_SHAPES = {1: (1, 1), 3: (3, 1), 5: (5, 1), 6: (3, 2)}

NON_POW2 = [3, 5, 6]
ALL_SIZES = [1, 3, 5, 6]


def _world(p: int) -> MpiWorld:
    nodes, ppn = WORLD_SHAPES[p]
    return MpiWorld(Cluster(ClusterSpec(nodes=nodes, ppn=ppn)))


def _values(p: int, count: int) -> list[np.ndarray]:
    """Integer-valued float64 contribution of each rank."""
    return [np.arange(count, dtype=np.float64) * (r + 1) + r
            for r in range(p)]


class TestBcast:
    def _check(self, p, words):
        world = _world(p)
        root = p // 2
        data = np.arange(words, dtype=np.float64) * 3 + 1
        out = {}

        def prog(rt):
            if rt.rank == root:
                addr = rt.ctx.space.alloc_like(data)
            else:
                addr = rt.ctx.space.alloc(data.nbytes)
            yield from blocking(rt, coll.ibcast(rt, world.comm_world, root, addr,
                                                data.nbytes))
            out[rt.rank] = rt.ctx.space.read_as(
                addr, np.float64, words).copy()

        world.run(prog)
        for r in range(p):
            assert out[r].tobytes() == data.tobytes(), f"rank {r}"

    @pytest.mark.parametrize("p", ALL_SIZES)
    def test_matches_source(self, p):
        self._check(p, words=512)

    @pytest.mark.parametrize("p", NON_POW2)
    def test_scag_above_threshold(self, p):
        # Ibcast switches to scatter+allgather past SCAG_THRESHOLD when
        # the communicator has more than 2 ranks; non-pow2 sizes
        # exercise its uneven segment bounds.
        words = (coll.SCAG_THRESHOLD + 32 * 1024) // 8
        self._check(p, words=words)


class TestBarrier:
    @pytest.mark.parametrize("p", ALL_SIZES)
    def test_completes(self, p):
        world = _world(p)
        done = []

        def prog(rt):
            yield from blocking(rt, coll.ibarrier(rt, world.comm_world))
            done.append(rt.rank)

        world.run(prog)
        assert sorted(done) == list(range(p))


class TestReduce:
    @pytest.mark.parametrize("p", ALL_SIZES)
    def test_matches_sum_at_root(self, p):
        world = _world(p)
        count = 96
        vals = _values(p, count)
        ref = np.sum(vals, axis=0)
        root = p - 1
        out = {}

        def prog(rt):
            addr = rt.ctx.space.alloc_like(vals[rt.rank])
            req = yield from coll.ireduce(rt, world.comm_world, root, addr,
                                          count * 8)
            yield from rt.wait(req)
            out[rt.rank] = rt.ctx.space.read_as(
                addr, np.float64, count).copy()

        world.run(prog)
        assert out[root].tobytes() == ref.tobytes()


class TestAllreduce:
    @pytest.mark.parametrize("p", ALL_SIZES)
    def test_matches_sum_everywhere(self, p):
        world = _world(p)
        count = 80
        vals = _values(p, count)
        ref = np.sum(vals, axis=0)
        out = {}

        def prog(rt):
            addr = rt.ctx.space.alloc_like(vals[rt.rank])
            yield from coll.allreduce(rt, world.comm_world, addr, count * 8)
            out[rt.rank] = rt.ctx.space.read_as(
                addr, np.float64, count).copy()

        world.run(prog)
        for r in range(p):
            assert out[r].tobytes() == ref.tobytes(), f"rank {r}"
