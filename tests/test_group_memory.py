"""Byte budget of recorded Group state: ratchets that can only shrink.

``tracemalloc`` counts, so the numbers repeat exactly.  What a
thousand-rank job keeps after its collectives is mostly the recorded
patterns and the caches built over them (docs/PERFORMANCE.md, 'Memory
lifetime'): each ``GroupOp`` is stored once and is its own signature,
plan entries are slotted records, an array-of-BST first level holds
only the ranks it has seen, and a registration is one slotted record.
``python -m tests.test_group_memory [N]`` prints the retained bytes per
rank by structure (:data:`STRUCTURES`) and by allocation site (the top
N), the deterministic twin of the benchmark's ``peak_rss_mb``.
"""

import ast
import gc
import os
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache

import pytest

import repro
from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld
from repro.offload import OffloadFramework, build_iallreduce
from repro.verbs import reg_mr

#: Resident bytes per rank of an idle, fully wired machine, at 1024 and at
#: 4096 ranks: flat in the rank count.  Measured 882 / 880 on CPython 3.11
#: (1 086 / 1 073 with a route tuple per proxy and unslotted inbox
#: adapters; with a world-sized array per proxy: 3 122 / 9 253).
IDLE_BYTES_PER_RANK_BUDGET = 1300
#: Bytes per rank still allocated after a 256-rank (16 x 16, 4 proxies per
#: DPU) exact Iallreduce of 2 KiB was built and then called twice from the
#: caches, the cluster left open.  Measured 11 480 on CPython 3.11 (14 028
#: with a reduce op per rank, two sequence maps per host, a route tuple
#: per proxy, LRU dicts in caches that never evict and emptied maps that
#: kept their grown tables; 16 326 with a key tuple and a tree node beside
#: each cached registration, six fields in every recorded op, operand ints
#: minted per rank and send fields copied out of their ops; 21 442 with
#: two dataclass key records
#: and a handle per registration, a fresh int per recorded operand and
#: tuple-keyed sequence maps; 34 046 with a second copy of every op and
#: dict plan entries).  What ``tracemalloc`` counts depends on the
#: interpreter (3.11 keeps an instance's attributes without a dict and
#: packs str-keyed dicts tighter than 3.10), so the budget is the
#: measurement + 1 % on the version it was measured on, and keeps 25 %
#: headroom on the others until it is measured there.
MEASURED_ON = (3, 11)
RETAINED_BYTES_PER_RANK_BUDGET = (11_600 if sys.version_info[:2] == MEASURED_ON
                                  else 14_350)
#: Bytes one ``reg_mr`` keeps, its two ``KeyTable`` slots included, over
#: 1 000 registrations on one host context: the 112 B slotted record (80 B
#: of registration, 32 B of the cache-tree slots it is filed by), its two
#: key ints (56 B) and two list slots.  Measured 185.7 (153.7 without the
#: tree slots; 544.8 with two frozen-dataclass records, a handle and a
#: dict slot per key).  No dict or instance dict is involved, so the
#: budget, the target it was set to meet, holds on every interpreter
#: version.
REGISTRATION_BYTES_BUDGET = 200
#: The structures the per-structure rows price, each the functions under
#: ``src/repro`` whose allocations it owns: ``(row, module, functions)``,
#: an empty tuple meaning every function of the module.  A block is
#: charged to the innermost ``src/repro`` frame that allocated it, so a
#: recorded op built by a generated ``NamedTuple.__new__`` counts for the
#: ``group_*`` call that recorded it, and a request's completion event
#: (built in ``_register_pending``) for the endpoint maps.
STRUCTURES = (
    ("recorded ops", "offload/api.py",
     ("group_send", "group_recv", "group_reduce", "group_barrier")),
    ("recorded ops", "offload/collectives.py", ("record_schedule",)),
    ("recorded ops", "offload/requests.py", ("record", "seal")),
    ("regcache bookkeeping", "mpi/regcache.py", ()),
    ("SendEntry", "offload/api.py", ("_build_plan",)),
    ("mkey GVMI-IDs", "verbs/gvmi.py", ("gvmi_id_of",)),
    ("sequence maps", "offload/proxy.py", ("_launch",)),
    ("endpoint maps", "offload/api.py", ("_register_pending", "_handle_inbox_item")),
    ("address-space maps", "hw/memory.py", ("alloc",)),
    ("control routes", "hw/fabric.py", ("control_route",)),
    ("control routes", "offload/proxy.py", ("_host_write", "counter_route")),
)
#: Bytes per rank of each row after the run of
#: :func:`test_bytes_retained_per_rank_after_cached_calls`, measured on
#: :data:`MEASURED_ON`; budgets there are the measurement + 1 %, and carry
#: 25 % headroom on other versions.  Before the last lowering they read
#: 2 374.2, 1 709.2, 1 080, 8, 784, 662, 416 and 400 (first: 3 200, 3 181,
#: 1 272 and 32).
STRUCTURE_BYTES_MEASURED = {
    "recorded ops": 1_800.5,
    "regcache bookkeeping": 1_013.2,
    "SendEntry": 1_080,
    "mkey GVMI-IDs": 8,
    "sequence maps": 393.3,
    "control routes": 373.1,
    "address-space maps": 256,
    "endpoint maps": 80,
}
STRUCTURE_BYTES_BUDGET = {
    row: (measured * 1.01 if sys.version_info[:2] == MEASURED_ON else measured * 1.25)
    for row, measured in STRUCTURE_BYTES_MEASURED.items()
}


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


def _retained():
    """``(framework, bytes per rank, snapshot)`` after the 256-rank run;
    the snapshot's tracebacks reach the allocating ``src/repro`` frame."""
    _iallreduce(nodes=1)  # warm imports and caches out of the count
    gc.collect()
    tracemalloc.start(8)
    try:
        fw = _iallreduce(nodes=16)
        gc.collect()
        current, _peak = tracemalloc.get_traced_memory()
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return fw, current / fw.cluster.world_size, snap


@pytest.fixture(scope="module")
def retained():
    """``(framework, bytes per rank, snapshot)`` after the 256-rank run."""
    return _retained()


_ROOT = os.path.dirname(os.path.dirname(repro.__file__)) + os.sep


@lru_cache(maxsize=None)
def _functions(path: str) -> tuple:
    """``(first line, last line, name)`` of every function in ``path``."""
    with open(path) as f:
        tree = ast.parse(f.read())
    return tuple((node.lineno, node.end_lineno, node.name) for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _site(traceback) -> tuple:
    """``(module, innermost function)`` of the newest ``src/repro`` frame."""
    for frame in reversed(traceback):
        if frame.filename.startswith(_ROOT):
            spans = [span for span in _functions(frame.filename)
                     if span[0] <= frame.lineno <= span[1]]
            name = min(spans, key=lambda span: span[1] - span[0])[2] if spans else ""
            return frame.filename[len(_ROOT) + len("repro/"):], name
    return "", ""


def _structure_bytes(snap, ranks: int) -> Counter:
    """Bytes per rank of each :data:`STRUCTURES` row, and of the rest."""
    rows: Counter = Counter()
    for stat in snap.statistics("traceback"):
        module, function = _site(stat.traceback)
        row = next((row for row, mod, functions in STRUCTURES
                    if module == mod and (not functions or function in functions)),
                   "everything else")
        rows[row] += stat.size / ranks
    return rows


@pytest.mark.parametrize("ranks", [1024, 4096])
def test_idle_machine_bytes_per_rank_are_flat(ranks):
    assert _idle_bytes_per_rank(ranks) <= IDLE_BYTES_PER_RANK_BUDGET


def test_bytes_retained_per_rank_after_cached_calls(retained):
    _fw, per_rank, _snap = retained
    assert per_rank <= RETAINED_BYTES_PER_RANK_BUDGET


@pytest.mark.parametrize("row", STRUCTURE_BYTES_BUDGET)
def test_bytes_retained_per_structure(retained, row):
    fw, _per_rank, snap = retained
    assert _structure_bytes(snap, fw.cluster.world_size)[row] <= STRUCTURE_BYTES_BUDGET[row]


def test_bytes_retained_per_registration():
    cl = Cluster(ClusterSpec(nodes=1, ppn=1, proxies_per_dpu=1))
    ctx, n = cl.rank_ctx(0), 1000
    addrs = [ctx.space.alloc(64) for _ in range(n)]

    def prog():
        for addr in addrs:
            yield from reg_mr(ctx, addr, 64)

    run = cl.sim.process(prog())
    gc.collect()
    tracemalloc.start()
    try:
        cl.sim.run(until=run)
        gc.collect()
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cl.metrics.get("verbs.reg_mr.host") == n
    assert current / n <= REGISTRATION_BYTES_BUDGET


def test_consumed_descriptor_buckets_are_deleted(retained):
    fw, _, _ = retained
    fw.assert_quiescent()
    assert fw._endpoints
    assert all(ep._recv_descs == {} for ep in fw._endpoints.values())
    # Emptied, neither map keeps the table it grew to.
    fresh = sys.getsizeof({})
    for ep in fw._endpoints.values():
        assert sys.getsizeof(ep._pending) == sys.getsizeof(ep._recv_descs) == fresh


def test_sealed_signature_is_the_recorded_ops(retained):
    fw, _, _ = retained
    for ep in fw._endpoints.values():
        (sig, plan), = ep.group_cache._by_sig.items()
        rank, ops = sig
        assert rank == ep.rank and plan.signature is sig
        # Recv / reduce / barrier entries are the recorded ops themselves.
        assert all(e is op for e, op in zip(plan.entries, ops) if e.kind != "send")


def _report(top: int = 25) -> str:
    """Bytes per rank the 256-rank run retains, by structure and by
    allocation site."""
    fw, per_rank, snap = _retained()
    ranks = fw.cluster.world_size
    stats = snap.statistics("lineno")
    lines = [f"retained: {per_rank:,.0f} B/rank at {ranks} ranks "
             f"(budget {RETAINED_BYTES_PER_RANK_BUDGET:,})"]
    for row, size in sorted(_structure_bytes(snap, ranks).items(), key=lambda kv: -kv[1]):
        budget = STRUCTURE_BYTES_BUDGET.get(row)
        lines.append(f"{size:9,.0f} B/rank  {row}"
                     + (f" (budget {budget:,.0f})" if budget is not None else ""))
    lines.append("by allocation site:")
    for st in stats[:top]:
        frame = st.traceback[-1]
        where = frame.filename.removeprefix(_ROOT)
        lines.append(f"{st.size / ranks:9,.0f} B/rank {st.count / ranks:7.1f} "
                     f"blocks/rank  {where}:{frame.lineno}")
    rest = sum(st.size for st in stats[top:]) / ranks
    lines.append(f"{rest:9,.0f} B/rank in {max(0, len(stats) - top)} other sites")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - a reporting aid
    print(_report(int(sys.argv[1]) if len(sys.argv) > 1 else 25))
