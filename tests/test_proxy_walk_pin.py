"""The proxy's ARM core and the Group executor, pinned event by event.

Seeded offload programs drive the proxy through every kind of work it
serializes on its core:

* ``crossing`` -- three host ranks per proxy whose basic sends and
  receives cross (an RTS may find its RTR queued, or queue for it);
* ``ring_bcast_twice`` -- a Group ring broadcast called twice, so the
  second call replays the cached plan (Algorithm 1's return to the
  progress engine on every hop);
* ``counter_barrier`` -- Group exchanges split by barriers, with a
  DPU-side reduce: barrier counters written and awaited per epoch;
* ``batch_drain`` -- the same, four ranks per proxy, with
  ``proxy_batch_drain``: one ARM wakeup serves several queued items;
* ``staged`` -- the bounce-buffer (BluesMPI-style) path, basic and Group;
* ``chaos_group_kill`` -- ``chaos_pins.json``'s scenario that kills a
  proxy mid-exchange and restarts it under control-message drops.

The record of a program is, for every event the kernel processed, its
instant -- and for a fabric message also which hop of which message it
was -- followed by each rank's finish time and the cluster's
``Metrics.snapshot_full()``.  The digests were taken on the proxy built
as one generator process per worker, so any change to how the proxy
serializes its work must file every calendar entry at the same instant,
in the same order, with the same side effects.

``proxy_record(name)`` returns the rows themselves, for a diff when a
digest moves.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager

import numpy as np
import pytest

import repro.hw.cluster as cluster_mod
from repro.hw import Cluster, ClusterSpec, MachineParams
from repro.hw.fabric import _Message
from repro.offload import OffloadFramework
from tests.harness.step_kernel import StepLoopSimulator
from tests.helpers import pattern, run_procs


class _Recorder(StepLoopSimulator):
    """The one-event loop, logging each event as it fires."""

    log: list

    def step(self) -> None:
        cur = self._cur
        if not cur and self._times:
            # Make the next instant current, so the head is visible.
            from heapq import heappop

            self.now = when = heappop(self._times)
            due = self._buckets.pop(when)
            cur.extend(due if type(due) is list else (due,))
        event = cur[0]
        if isinstance(event, _Message):
            step = event.callbacks[0].__name__
            self.log.append((repr(self.now), step, event.kind, event.xid,
                             event.src_node, event.dst_node, event.size))
        else:
            self.log.append(repr(self.now))
        super().step()


@contextmanager
def _recording():
    log: list = []
    made: list = []

    class Sim(_Recorder):
        def __init__(self):
            super().__init__()
            self.log = log
            made.append(self)

    saved = cluster_mod.Simulator
    cluster_mod.Simulator = Sim
    try:
        yield log
    finally:
        cluster_mod.Simulator = saved


def _crossing():
    """Six ranks on two nodes, three per proxy; rounds of crossing
    basic sends and receives with mixed sizes and post orders."""
    cl = Cluster(ClusterSpec(nodes=2, ppn=3, proxies_per_dpu=1, seed=3))
    fw = OffloadFramework(cl)
    n = cl.world_size
    sizes = (64, 8192, 256 * 1024)

    def prog(rank):
        def body(sim):
            ep = fw.endpoint(rank)
            for k in range(3):
                size = sizes[(rank + k) % 3]
                dst, src = (rank + 1 + k) % n, (rank - 1 - k) % n
                data = pattern(size, seed=7 * rank + k)
                sbuf = ep.ctx.space.alloc_like(data)
                rbuf = ep.ctx.space.alloc(sizes[(src + k) % 3])
                if (rank + k) % 2:
                    rreq = yield from ep.recv_offload(rbuf, sizes[(src + k) % 3],
                                                      src=src, tag=k)
                    sreq = yield from ep.send_offload(sbuf, size, dst=dst, tag=k)
                else:
                    sreq = yield from ep.send_offload(sbuf, size, dst=dst, tag=k)
                    yield sim.timeout(1e-6 * rank)
                    rreq = yield from ep.recv_offload(rbuf, sizes[(src + k) % 3],
                                                      src=src, tag=k)
                yield from ep.waitall([sreq, rreq])
                want = pattern(sizes[(src + k) % 3], seed=7 * src + k)
                assert (ep.ctx.space.read(rbuf, want.size) == want).all()
            return sim.now
        return body

    finish = run_procs(cl, [prog(r)(cl.sim) for r in range(n)])
    fw.assert_quiescent()
    return cl, finish


def _ring(cl, fw, size, calls):
    """A Group ring broadcast from rank 0: recv, barrier, send."""
    n = cl.world_size
    data = pattern(size, seed=5)

    def prog(rank):
        def body(sim):
            ep = fw.endpoint(rank)
            buf = (ep.ctx.space.alloc_like(data) if rank == 0
                   else ep.ctx.space.alloc(size))
            g = ep.group_start()
            if rank > 0:
                ep.group_recv(g, buf, size, src=rank - 1, tag=1)
                ep.group_barrier(g)
            if rank < n - 1:
                ep.group_send(g, buf, size, dst=rank + 1, tag=1)
            ep.group_end(g)
            for _ in range(calls):
                yield from ep.group_call(g)
                yield from ep.group_wait(g)
            assert (ep.ctx.space.read(buf, size) == data).all()
            return sim.now
        return body

    return run_procs(cl, [prog(r)(cl.sim) for r in range(n)])


def _ring_bcast_twice():
    cl = Cluster(ClusterSpec(nodes=4, ppn=2, proxies_per_dpu=1, seed=5))
    fw = OffloadFramework(cl)
    finish = _ring(cl, fw, 32 * 1024, calls=2)
    fw.assert_quiescent()
    return cl, finish


def _counter_barrier(ppn=2, params=None):
    """Two nodes: a pairwise exchange, a barrier, a second exchange
    with a partner on the other node, a barrier, then two local
    reduces -- called three times."""
    cl = Cluster(ClusterSpec(nodes=2, ppn=ppn, proxies_per_dpu=1, seed=9,
                             params=params or MachineParams()))
    fw = OffloadFramework(cl)
    n = cl.world_size
    size = 4096

    def prog(rank):
        def body(sim):
            ep = fw.endpoint(rank)
            send = ep.ctx.space.alloc_like(
                np.full(size // 8, rank + 1.0).view(np.uint8))
            got = [ep.ctx.space.alloc(size) for _ in range(2)]
            acc = ep.ctx.space.alloc_like(np.zeros(size // 8).view(np.uint8))
            g = ep.group_start()
            for phase, peer in enumerate((rank ^ 1, rank ^ ppn)):
                ep.group_send(g, send, size, dst=peer, tag=phase)
                ep.group_recv(g, got[phase], size, src=peer, tag=phase)
                ep.group_barrier(g)
            ep.group_reduce(g, got[0], acc, size)
            ep.group_reduce(g, got[1], acc, size)
            ep.group_end(g)
            for _ in range(3):
                yield from ep.group_call(g)
                yield from ep.group_wait(g)
            total = ep.ctx.space.read_as(acc, np.float64, size // 8)
            assert (total == 3 * ((rank ^ 1) + (rank ^ ppn) + 2.0)).all()
            return sim.now
        return body

    finish = run_procs(cl, [prog(r)(cl.sim) for r in range(n)])
    fw.assert_quiescent()
    return cl, finish


def _staged():
    """Staged mode: a basic exchange, then a cached Group ring."""
    cl = Cluster(ClusterSpec(nodes=3, ppn=1, proxies_per_dpu=1, seed=13))
    fw = OffloadFramework(cl, mode="staged")
    size = 64 * 1024

    def pair(rank):
        def body(sim):
            ep = fw.endpoint(rank)
            peer = (rank + 1) % 3
            src = (rank - 1) % 3
            data = pattern(size, seed=rank)
            sbuf = ep.ctx.space.alloc_like(data)
            rbuf = ep.ctx.space.alloc(size)
            rreq = yield from ep.recv_offload(rbuf, size, src=src, tag=3)
            sreq = yield from ep.send_offload(sbuf, size, dst=peer, tag=3)
            yield from ep.waitall([sreq, rreq])
            assert (ep.ctx.space.read(rbuf, size) == pattern(size, seed=src)).all()
            return sim.now
        return body

    first = run_procs(cl, [pair(r)(cl.sim) for r in range(3)])
    finish = first + _ring(cl, fw, size, calls=2)
    fw.assert_quiescent()
    return cl, finish


def _chaos_group_kill():
    from tests.test_faults_pins import _chaos_group_kill as scenario

    made: list = []
    build = Cluster.__init__

    def keep(self, *args, **kwargs):
        build(self, *args, **kwargs)
        made.append(self)

    Cluster.__init__ = keep
    try:
        pin = scenario()
    finally:
        Cluster.__init__ = build
    return made[-1], pin["finish"]


PROGRAMS = {
    "crossing": _crossing,
    "ring_bcast_twice": _ring_bcast_twice,
    "counter_barrier": _counter_barrier,
    "batch_drain": lambda: _counter_barrier(
        ppn=4, params=MachineParams(proxy_batch_drain=4)),
    "staged": _staged,
    "chaos_group_kill": _chaos_group_kill,
}

#: name -> (events, sha256 of the record)
PINS = {
    "crossing": (979, "1981ae4f0b9e3e48a2b48b1e47fe5c7e11988e9a3a9a9d7f35b9ee5ed2f39903"),
    "ring_bcast_twice": (751, "517d522c7c84e5af9e8b651395aab7b3c4509a4bfca2512532ffe90d47764ebb"),
    "counter_barrier": (936, "beaa27356f99426a9d96b4148056f416c6fd2b8538b223b97fa674f97db9a368"),
    "batch_drain": (1764, "f617650be13ce455b7106c9cc865ada3e2137fa5562fa321b66d9877dd3511c5"),
    "staged": (487, "81e2309f849deafe71493878832cb443a683630af516caa1398513d1f2f10f83"),
    "chaos_group_kill": (191, "31f2caa4cab06a0a0016625ae4bf7494b92ce4b05e557a1aba8bf0fa288c9e18"),
}


def proxy_record(name: str) -> list:
    """The event log of program ``name``, its finish times and its
    counters and histogram summaries."""
    with _recording() as log:
        cl, finish = PROGRAMS[name]()
    rows = list(log)
    rows.append(("finish", [repr(t) for t in finish]))
    rows.append(("metrics", json.dumps(cl.metrics.snapshot_full(), sort_keys=True)))
    return rows


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", PROGRAMS)
def test_the_proxy_fires_every_event_where_it_did(name):
    rows = proxy_record(name)
    events = len(rows) - 2
    assert (events, _digest(rows)) == PINS[name]


def test_the_record_repeats():
    assert proxy_record("counter_barrier") == proxy_record("counter_barrier")
