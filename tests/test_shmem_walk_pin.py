"""The SHMEM front-end, pinned instant by instant.

One seeded program on four PEs (two nodes, one proxy each, so two PEs
share every proxy and every put has an on-node and an off-node
target) drives every SHMEM call: ``symmetric_alloc``, several puts and
gets in flight before a ``quiet``, flag puts awaited with
``wait_until``, ``barrier_init`` and two ``barrier_all``.

The record is what a SHMEM program can observe: the instant each
``quiet`` and each ``wait_until`` returned, each PE's finish time and
the final bytes of every symmetric block and get buffer.  Event counts
are deliberately not in it: how the proxy reports a completion may
cost more or fewer kernel events, never a different instant.

``shmem_record()`` returns the rows themselves, for a diff when the
digest moves.
"""

from __future__ import annotations

import hashlib

from repro.hw import Cluster, ClusterSpec
from repro.offload.shmem import ShmemWorld
from tests.helpers import pattern, run_procs

N_PES = 4
BLOCK = 96 * 1024
SIZES = (64, 4096, BLOCK)

#: (rows, sha256 of the record)
PIN = (52, "3dcf8f81066dc0a9cfdf0c0120dbe6a3a8f56575b486f9e1a8c382a09bac958a")


def shmem_record() -> list:
    """Rows of the pinned program: (what, pe, instant or bytes digest)."""
    cl = Cluster(ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=1, seed=11))
    world = ShmemWorld(cl)
    rows: list = []

    def prog(pe):
        def body(sim):
            ep = world.endpoint(pe)
            space = ep.ctx.space
            heap = yield from ep.symmetric_alloc(N_PES * BLOCK, fill=0)
            flags = yield from ep.symmetric_alloc(N_PES, fill=0)
            yield from ep.barrier_init()
            src = space.alloc_like(pattern(BLOCK, seed=pe))
            yield ep.ctx.consume(pe * 3e-6)
            # My block into slot ``pe`` of every other PE: three puts of
            # mixed sizes in flight before one quiet.
            for k in range(1, N_PES):
                peer = (pe + k) % N_PES
                yield from ep.put(heap + pe * BLOCK, src, SIZES[(pe + k) % 3], peer)
            yield from ep.quiet()
            rows.append(("quiet", pe, repr(sim.now)))
            # Then a one-byte flag, so a waiter wakes after the data.
            one = space.alloc(1, fill=pe + 1)
            for k in range(1, N_PES):
                yield from ep.put(flags + pe, one, 1, (pe + k) % N_PES)
            yield from ep.quiet()
            rows.append(("quiet", pe, repr(sim.now)))
            for k in range(1, N_PES):
                peer = (pe + k) % N_PES
                yield from ep.wait_until(flags + peer, lambda v, want=peer + 1: v == want)
                rows.append(("woke", pe, repr(sim.now)))
            # Two gets in flight: read back what two peers received.
            back = [space.alloc(BLOCK, fill=0) for _ in range(2)]
            for j, k in enumerate((1, 2)):
                peer = (pe + k) % N_PES
                yield from ep.get(back[j], heap + pe * BLOCK, SIZES[(pe + k) % 3], peer)
            yield from ep.quiet()
            rows.append(("quiet", pe, repr(sim.now)))
            for _ in range(2):
                yield from ep.barrier_all()
                rows.append(("barrier", pe, repr(sim.now)))
            return sim.now, heap, flags, back
        return body

    done = run_procs(cl, [prog(pe)(cl.sim) for pe in range(N_PES)])
    for pe, (finish, heap, flags, back) in enumerate(done):
        space = cl.rank_ctx(pe).space
        rows.append(("finish", pe, repr(finish)))
        for addr, size in ((heap, N_PES * BLOCK), (flags, N_PES),
                           (back[0], BLOCK), (back[1], BLOCK)):
            rows.append(("bytes", pe, hashlib.sha256(
                space.read(addr, size).tobytes()).hexdigest()))
    return rows


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_every_shmem_call_returns_where_it_did():
    rows = shmem_record()
    assert (len(rows), _digest(rows)) == PIN


def test_the_record_repeats():
    assert shmem_record() == shmem_record()
