"""Every algorithm x every runtime against one reference, from one generator.

:mod:`repro.mpi.schedules` spells each communication pattern once;
three interpreters execute it.  For every algorithm in ``ALGORITHMS``,
Hypothesis draws a communicator size 1..9 (non-powers-of-two included),
a root, and a size that need not divide by p (word counts below p for
the ring allreduce), and then

1. the simulator-free reference interpreter
   (``tests/harness/schedule_reference.py``) runs the schedule and its
   result must be what the collective *means* (``expect``), with every
   send consumed by exactly one receive of equal size and tag;
2. each runtime that implements the algorithm -- host MPI, Group_Offload
   in ``gvmi`` and in ``staged`` mode -- must leave exactly the
   reference's bytes in every rank's receive buffer, payloads on;
3. a Group lowering must have the same number of rounds (hence
   barriers) on every rank.

Reductions use integer-valued float64 payloads, so sums are exact in
any association order and "same result" means byte-identical.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.harness.schedule_reference import run_reference
from tests.helpers import blocking, run_procs
from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld, schedules
from repro.mpi import collectives as coll
from repro.mpi.schedules import RECV, SEND
from repro.offload import OffloadFramework, build_ialltoall
from repro.offload.collectives import TAG_ALLREDUCE, record_schedule

MAX_P = 9


class Algorithm(NamedTuple):
    #: ``(me, p, root, n) -> Schedule``.
    schedule: Callable
    #: ``(p, root, n, send, recv) -> {rank: expected recv bytes}`` for the
    #: ranks whose result the collective defines (``send`` / ``recv`` are
    #: the initial ``[rank] -> uint8 array`` contents).
    expect: Callable
    #: ``(rt, comm, root, send_addr, recv_addr, n)`` generator, or None.
    host: Optional[Callable] = None
    #: ``(ep, p, root, send_addr, recv_addr, n) -> group request``, or None.
    group: Optional[Callable] = None
    #: ``n`` is a count of float64 words (the payload is summed).
    words: bool = False
    #: Communicator sizes the algorithm is defined for.
    sizes: tuple = tuple(range(1, MAX_P + 1))


def _blocks(arrays, n):
    return np.concatenate([a[:n] for a in arrays])


def _total(recv, n):
    return sum(a[:8 * n].view(np.float64) for a in recv).view(np.uint8)


def _everyone(p, value):
    return {r: value for r in range(p)}


ALGORITHMS = {
    "alltoall": Algorithm(
        schedule=lambda me, p, root, n: schedules.alltoall(me, p, n),
        expect=lambda p, root, n, send, recv: {
            r: _blocks([s[r * n:] for s in send], n) for r in range(p)},
        host=lambda rt, c, root, s, r, n: blocking(rt, coll.ialltoall(rt, c, s, r, n)),
        group=lambda ep, p, root, s, r, n: build_ialltoall(
            ep, s, r, n, comm_size=p, base_tag=77),
    ),
    "bcast_binomial": Algorithm(
        schedule=schedules.bcast_binomial,
        expect=lambda p, root, n, send, recv: _everyone(p, recv[root][:n]),
        host=lambda rt, c, root, s, r, n: blocking(rt, coll.ibcast(rt, c, root, r, n)),
    ),
    "bcast_ring": Algorithm(
        schedule=schedules.bcast_ring,
        expect=lambda p, root, n, send, recv: _everyone(p, recv[root][:n]),
        group=lambda ep, p, root, s, r, n: record_schedule(
            ep, schedules.bcast_ring(ep.rank, p, root, n),
            base_tag=29, recv_addr=r)[0],
    ),
    "bcast_scag": Algorithm(
        schedule=schedules.bcast_scag,
        expect=lambda p, root, n, send, recv: _everyone(p, recv[root][:n]),
        # With SCAG_THRESHOLD patched to 0 (below) the host Ibcast is scag
        # wherever it ever picks it: on more than two ranks.
        host=lambda rt, c, root, s, r, n: blocking(rt, coll.ibcast(rt, c, root, r, n)),
        sizes=tuple(range(3, MAX_P + 1)),
    ),
    "barrier": Algorithm(
        schedule=lambda me, p, root, n: schedules.barrier(me, p),
        expect=lambda p, root, n, send, recv: {},
        host=lambda rt, c, root, s, r, n: blocking(rt, coll.ibarrier(rt, c)),
    ),
    "reduce": Algorithm(
        schedule=lambda me, p, root, n: schedules.reduce(me, p, root, 8 * n),
        expect=lambda p, root, n, send, recv: {root: _total(recv, n)},
        host=lambda rt, c, root, s, r, n: blocking(rt, coll.ireduce(rt, c, root, r, 8 * n)),
        words=True,
    ),
    "allreduce_rd": Algorithm(
        schedule=lambda me, p, root, n: schedules.allreduce_rd(me, p, 8 * n),
        expect=lambda p, root, n, send, recv: _everyone(p, _total(recv, n)),
        group=lambda ep, p, root, s, r, n: record_schedule(
            ep, schedules.allreduce_rd(ep.rank, p, 8 * n),
            base_tag=TAG_ALLREDUCE, recv_addr=r)[0],
        words=True,
        sizes=(1, 2, 4, 8),
    ),
    "allreduce_ring": Algorithm(
        schedule=lambda me, p, root, n: schedules.allreduce_ring(me, p, 8 * n),
        expect=lambda p, root, n, send, recv: _everyone(p, _total(recv, n)),
        group=lambda ep, p, root, s, r, n: record_schedule(
            ep, schedules.allreduce_ring(ep.rank, p, 8 * n),
            base_tag=TAG_ALLREDUCE, recv_addr=r)[0],
        words=True,
    ),
}


def _spec(p: int) -> ClusterSpec:
    """Two ranks per node where p allows: shared-memory and wire hops mix."""
    ppn = 2 if p % 2 == 0 else 1
    return ClusterSpec(nodes=p // ppn, ppn=ppn, proxies_per_dpu=1)


def _payloads(p: int, nbytes: int, words: bool, seed: int):
    """``(send, recv)``: per-rank initial contents, ``nbytes`` each."""
    rng = np.random.default_rng(seed)
    if words:
        draw = lambda: rng.integers(-999, 999, nbytes // 8).astype(np.float64).view(np.uint8)
    else:
        draw = lambda: rng.integers(0, 255, nbytes, dtype=np.uint8)
    return [draw() for _ in range(p)], [draw() for _ in range(p)]


def _run_host(alg: Algorithm, p, root, n, send, recv) -> list[bytes]:
    cl = Cluster(_spec(p))
    world = MpiWorld(cl)

    def program(rt):
        space = rt.ctx.space
        s, r = space.alloc_like(send[rt.rank]), space.alloc_like(recv[rt.rank])
        yield from alg.host(rt, world.comm_world, root, s, r, n)
        return bytes(space.read(r, len(recv[rt.rank])))

    out = world.run(program)
    world.assert_quiescent()
    return out


def _run_group(alg: Algorithm, mode, p, root, n, send, recv) -> list[bytes]:
    cl = Cluster(_spec(p))
    fw = OffloadFramework(cl, mode=mode)

    def program(rank):
        ep = fw.endpoint(rank)
        space = ep.ctx.space
        s, r = space.alloc_like(send[rank]), space.alloc_like(recv[rank])
        greq = alg.group(ep, p, root, s, r, n)
        # A Group pattern has no local-copy entry: copies are the caller's.
        bufs = {SEND: s, RECV: r}
        for ops in alg.schedule(rank, p, root, n).rounds:
            for op in ops:
                if op.kind == "copy":
                    space.write(bufs[op.buf] + op.off,
                                space.read(bufs[op.src] + op.src_off, op.nbytes))
        yield from ep.group_call(greq)
        yield from ep.group_wait(greq)
        return bytes(space.read(r, len(recv[rank])))

    out = run_procs(cl, [program(rank) for rank in range(p)])
    fw.assert_quiescent()
    return out


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_runtime_delivers_the_reference_bytes(name, data):
    alg = ALGORITHMS[name]
    p = data.draw(st.sampled_from(alg.sizes), label="p")
    root = data.draw(st.integers(0, p - 1), label="root")
    n = data.draw(st.integers(1, 40) if alg.words else st.integers(1, 300), label="n")
    seed = data.draw(st.integers(0, 1 << 16), label="seed")
    nbytes = (8 if alg.words else 1) * n
    send, recv = _payloads(p, max(p * nbytes, 8), alg.words, seed)

    scheds = [alg.schedule(rank, p, root, n) for rank in range(p)]
    if alg.group is not None:
        assert len({len(s.rounds) for s in scheds}) == 1, "barrier counts differ"
    ref = run_reference(p, scheds.__getitem__, {
        rank: {SEND: send[rank].copy(), RECV: recv[rank].copy()}
        for rank in range(p)})
    for rank, want in alg.expect(p, root, n, send, recv).items():
        assert ref[rank][RECV][:len(want)].tobytes() == want.tobytes(), (
            f"reference: rank {rank} holds the wrong result")
    want = [ref[rank][RECV].tobytes() for rank in range(p)]

    if alg.host is not None:
        with pytest.MonkeyPatch.context() as patch:
            if name == "bcast_scag":
                patch.setattr(coll, "SCAG_THRESHOLD", 0)
            assert _run_host(alg, p, root, n, send, recv) == want, "host MPI"
    if alg.group is not None:
        for mode in ("gvmi", "staged"):
            assert _run_group(alg, mode, p, root, n, send, recv) == want, mode
