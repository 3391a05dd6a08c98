"""Golden-trace regression tests: the event stream IS the spec.

Two fixed-seed scenarios -- a ring broadcast over Basic primitives and
a two-call group ialltoall -- serialise their full observability event
streams and must match the checked-in files under ``tests/golden/``
byte for byte.  Any protocol change (an extra control message, a
reordered registration, a lost cache hit) shows up as a readable diff
of tagged events rather than a silent behaviour drift.

Regenerate after an *intentional* protocol change with::

    pytest tests/test_golden_traces.py --regen-golden

Request/plan identifiers come from module-global counters, so their
absolute values depend on what ran earlier in the process; the
serialiser renames them to dense first-appearance indices (``r0``,
``r1``, ... / ``p0``, ...) to keep the files stable.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.helpers import pattern
from repro.hw import Cluster, ClusterSpec
from repro.obs import observe_cluster
from repro.offload import OffloadFramework
from repro.util import atomic_write

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Event args that carry values from module-global counters: normalised
#: per key to dense first-appearance indices.
_COUNTER_KEYS = {"rid": "r", "call": "r", "plan": "p", "sig": "p"}


def counter_renamer():
    """``norm(key, value)``: counter-valued args -> first-appearance index."""
    renames: dict[str, dict] = {"r": {}, "p": {}}

    def norm(key, value):
        prefix = _COUNTER_KEYS.get(key)
        if prefix is None:
            return value
        table = renames[prefix]
        if value not in table:
            table[value] = f"{prefix}{len(table)}"
        return table[value]

    return norm


def serialize_events(bus) -> str:
    """Deterministic text form of a bus stream (one line per event)."""
    norm = counter_renamer()
    lines = []
    for ev in bus.events:
        kv = " ".join(f"{k}={norm(k, v)}" for k, v in ev.args)
        lines.append(
            f"{ev.time * 1e9:12.3f} {ev.cat + '.' + ev.name:<16s} "
            f"{ev.entity:<8s} {kv}".rstrip()
        )
    return "\n".join(lines) + "\n"


def _ring_broadcast() -> "object":
    """Rank 0's payload travels the whole ring via Basic primitives."""
    cl = Cluster(ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=2))
    obs = observe_cluster(cl)
    fw = OffloadFramework(cl, mode="gvmi")
    size = 1024
    data = pattern(size, seed=21)
    P = cl.spec.world_size
    received = {}

    def make(rank):
        def prog():
            ep = fw.endpoint(rank)
            if rank == 0:
                buf = ep.ctx.space.alloc_like(data)
            else:
                buf = ep.ctx.space.alloc(size)
                r = yield from ep.recv_offload(buf, size, src=rank - 1, tag=3)
                yield from ep.wait(r)
            if rank != P - 1:
                s = yield from ep.send_offload(buf, size, dst=rank + 1, tag=3)
                yield from ep.wait(s)
            received[rank] = bytes(ep.ctx.space.read(buf, size))
            return True

        return prog

    procs = [cl.sim.process(make(r)()) for r in range(P)]
    cl.sim.run(until=cl.sim.all_of(procs))
    assert all(received[r] == data.tobytes() for r in range(P))
    obs.check()
    return obs


def _group_ialltoall() -> "object":
    """Two Group_Offload_calls of a full alltoall (2nd replays cached)."""
    cl = Cluster(ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=2))
    obs = observe_cluster(cl)
    fw = OffloadFramework(cl, mode="gvmi", group_caching=True)
    block = 512
    P = cl.spec.world_size

    def make(rank):
        def prog():
            ep = fw.endpoint(rank)
            sbuf = ep.ctx.space.alloc(P * block, fill=rank + 1)
            rbuf = ep.ctx.space.alloc(P * block)
            greq = ep.group_start()
            for dist in range(1, P):
                dst = (rank + dist) % P
                src = (rank - dist) % P
                ep.group_send(greq, sbuf + dst * block, block, dst=dst, tag=4)
                ep.group_recv(greq, rbuf + src * block, block, src=src, tag=4)
            ep.group_end(greq)
            for _ in range(2):
                yield from ep.group_call(greq)
                yield from ep.group_wait(greq)
            return True

        return prog

    procs = [cl.sim.process(make(r)()) for r in range(P)]
    cl.sim.run(until=cl.sim.all_of(procs))
    assert all(p.value for p in procs)
    obs.check()
    return obs


SCENARIOS = {
    "ring_broadcast": _ring_broadcast,
    "group_ialltoall": _group_ialltoall,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_stream_matches_golden(name, regen_golden):
    obs = SCENARIOS[name]()
    got = serialize_events(obs.bus)
    path = GOLDEN_DIR / f"{name}.events"
    if regen_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        # Atomic per-process write: safe under pytest-xdist, where
        # another worker may be reading the file for its own scenario.
        atomic_write(path, got)
        pytest.skip(f"regenerated {path.name} ({len(got.splitlines())} events)")
    assert path.exists(), (
        f"{path} missing -- run pytest with --regen-golden to create it"
    )
    want = path.read_text()
    assert got == want, (
        f"{name}: event stream drifted from {path.name} -- if the "
        f"protocol change is intentional, rerun with --regen-golden"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_are_deterministic_within_process(name):
    """Two fresh runs in one process serialise identically (the property
    the golden files rely on)."""
    first = serialize_events(SCENARIOS[name]().bus)
    second = serialize_events(SCENARIOS[name]().bus)
    assert first == second
