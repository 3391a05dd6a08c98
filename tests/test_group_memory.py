"""Byte budget of recorded Group state: ratchets that can only shrink.

``tracemalloc`` counts, so the numbers repeat exactly.  What a
thousand-rank job keeps after its collectives is mostly the recorded
patterns and the caches built over them (docs/PERFORMANCE.md, 'Memory
lifetime'): each ``GroupOp`` is stored once and is its own signature,
plan entries are slotted records, and an array-of-BST first level holds
only the ranks it has seen.
"""

import gc
import tracemalloc

import pytest

from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld
from repro.offload import OffloadFramework, build_iallreduce

#: Resident bytes per rank of an idle, fully wired machine, at 1024 and at
#: 4096 ranks: flat in the rank count.  Measured 1 086 / 1 073 (with a
#: world-sized array per proxy: 3 122 / 9 253).
IDLE_BYTES_PER_RANK_BUDGET = 1300
#: Bytes per rank still allocated after a 256-rank (16 x 16, 4 proxies per
#: DPU) exact Iallreduce of 2 KiB was built and then called twice from the
#: caches, the cluster left open.  Measured 21 322 (with a second copy of
#: every op and dict plan entries: 34 046).
RETAINED_BYTES_PER_RANK_BUDGET = 30_000


def _idle_bytes_per_rank(ranks: int, ppn: int = 16) -> float:
    """Settled bytes per rank of an idle, fully wired machine.

    Prices ``Cluster + OffloadFramework + MpiWorld`` before any rank
    runs: nodes, fabric, and every proxy engine ``Init_Offload`` starts.
    No rank context, runtime or endpoint is counted; those are built on
    first touch (priced by the ``retained`` fixture below).
    """
    gc.collect()
    tracemalloc.start()
    try:
        cl = Cluster(ClusterSpec(nodes=ranks // ppn, ppn=ppn,
                                 proxies_per_dpu=4))
        fw = OffloadFramework(cl)
        world = MpiWorld(cl)
        gc.collect()
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del cl, fw, world
    return current / ranks


def _iallreduce(nodes: int, calls: int = 3):
    """``calls`` Group_Offload_calls of one recorded 2 KiB Iallreduce on
    every rank of a ``nodes`` x 16 machine; returns the open framework."""
    cl = Cluster(ClusterSpec(nodes=nodes, ppn=16, proxies_per_dpu=4))
    cl.payloads = False
    fw = OffloadFramework(cl)
    P = cl.world_size

    def prog(rank):
        ep = fw.endpoint(rank)
        greq, _scratch = build_iallreduce(ep, ep.ctx.space.alloc(2048), 2048,
                                          comm_size=P)
        for _ in range(calls):
            yield from ep.group_call(greq)
            yield from ep.group_wait(greq)

    procs = [cl.sim.process(prog(r)) for r in range(P)]
    cl.sim.run(until=cl.sim.all_of(procs))
    return fw


@pytest.fixture(scope="module")
def retained():
    """``(framework, bytes per rank)`` after the 256-rank run."""
    _iallreduce(nodes=1)  # warm imports and caches out of the count
    gc.collect()
    tracemalloc.start()
    try:
        fw = _iallreduce(nodes=16)
        gc.collect()
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return fw, current / fw.cluster.world_size


@pytest.mark.parametrize("ranks", [1024, 4096])
def test_idle_machine_bytes_per_rank_are_flat(ranks):
    assert _idle_bytes_per_rank(ranks) <= IDLE_BYTES_PER_RANK_BUDGET


def test_bytes_retained_per_rank_after_cached_calls(retained):
    _fw, per_rank = retained
    assert per_rank <= RETAINED_BYTES_PER_RANK_BUDGET


def test_consumed_descriptor_buckets_are_deleted(retained):
    fw, _ = retained
    fw.assert_quiescent()
    assert fw._endpoints
    assert all(ep._recv_descs == {} for ep in fw._endpoints.values())


def test_sealed_signature_is_the_recorded_ops(retained):
    fw, _ = retained
    for ep in fw._endpoints.values():
        (sig, plan), = ep.group_cache._by_sig.items()
        rank, ops = sig
        assert rank == ep.rank and plan.signature is sig
        # Recv / reduce / barrier entries are the recorded ops themselves.
        assert all(e is op for e, op in zip(plan.entries, ops) if e.kind != "send")
