"""Post-sequence pins for every communication pattern, recorded on the
tree *before* the patterns became data.

ISSUE 22 moves the alltoall / ring / binomial / scatter-allgather /
dissemination / reduce-tree arithmetic out of ``mpi/collectives.py``,
``offload/collectives.py``, the two offloading backends and
``apps/hpl.py`` into one schedule module that three interpreters read.
The interpreters must issue the same posts in the same order with the
same tags, sizes and addresses, so this file was written and green on
the parent tree first (PR 17's *pin first, then move*) and must pass
unchanged afterwards.

For each algorithm x p in {1, 2, 3, 4, 5, 7, 8, 13, 16} x root in
{0, 1, p-1} x each runtime that implements it, every rank's sequence of
posts is captured by wrapping the entry points the interpreters call:

* host MPI -- ``rt.isend`` / ``rt.irecv`` / ``rt.copy_local``; the
  round index is the number of times the progress engine came back to
  the collective after waiting (``rt._start_round`` invocations), i.e.
  which posts go out together and which need a completed round first;
* Group_Offload -- ``ep.group_send`` / ``group_recv`` / ``group_reduce``
  / ``group_barrier``; the round index is the number of barriers
  recorded so far.

A post is written ``"<call> <peer> <buffer>+<offset> <nbytes> t<tag -
base tag> w<round>"``; addresses are named by the buffer they fall in
(``send`` / ``recv`` are the caller's, anything the algorithm allocated
itself is ``scratch``).  Small worlds (p <= 5) are pinned post by post
so a failure reads as a diff; every world is pinned by post count and
sha256.

Regenerate after an *intentional* schedule change with
``pytest tests/test_schedule_pins.py --regen-golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.hpl import _ring_bcast_p2p
from repro.baselines import make_stack
from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld, schedules
from repro.mpi import collectives as coll
from repro.offload import OffloadFramework
from repro.offload.collectives import record_schedule
from repro.util import atomic_write
from tests.helpers import blocking

PIN_FILE = Path(__file__).resolve().parent / "golden" / "schedule_pins.json"

SIZES = (1, 2, 3, 4, 5, 7, 8, 13, 16)
#: Worlds small enough to pin post by post.
READABLE = 5

BLOCK = 64
SMALL = 256
#: Above ``SCAG_THRESHOLD`` (and not a multiple of any p here), so a
#: "binomial" Ibcast on more than two ranks takes the scatter+allgather
#: path and its uneven last segment.
LARGE = coll.SCAG_THRESHOLD + 8 * 13 + 5
REDUCE_BYTES = 128
#: Ring Iallreduce word counts: one that no p divides, one below most p
#: (empty chunks are skipped on both sides).
RING_WORDS = 37
RING_FEW_WORDS = 5


def _spec(p: int) -> ClusterSpec:
    return ClusterSpec(nodes=p, ppn=1, proxies_per_dpu=1)


def _roots(p: int) -> list[int]:
    return sorted({0, 1 % p, p - 1})


class _Log:
    """One rank's post sequence."""

    def __init__(self, space, bufs: dict[str, int]):
        self.space = space
        self.bufs = bufs
        self.posts: list[str] = []
        self.round = 0

    def where(self, addr: int) -> str:
        base = self.space._find_base(addr)
        for name, start in self.bufs.items():
            if start == base:
                return f"{name}+{addr - base}"
        return f"scratch+{addr - base}"

    def post(self, call, peer, addr, nbytes, tag):
        self.posts.append(
            f"{call} {peer} {self.where(addr)} {nbytes} t{tag} w{self.round}")


def _tap_runtime(rt, log: _Log) -> None:
    """Route ``rt``'s collective-facing entry points through ``log``."""
    isend, irecv, copy_local, start_round = (
        rt.isend, rt.irecv, rt.copy_local, rt._start_round)

    def rel(tag):  # collective tags relative to their reserved space
        return tag - coll.COLL_TAG_BASE if tag >= coll.COLL_TAG_BASE else tag

    def _isend(comm, dst, addr, size, tag):
        log.post("isend", dst, addr, size, rel(tag))
        return (yield from isend(comm, dst, addr, size, tag))

    def _irecv(comm, src, addr, size, tag):
        log.post("irecv", src, addr, size, rel(tag))
        return (yield from irecv(comm, src, addr, size, tag))

    def _copy_local(src_addr, dst_addr, size):
        log.posts.append(
            f"copy {log.where(src_addr)} {log.where(dst_addr)} {size} w{log.round}")
        yield from copy_local(src_addr, dst_addr, size)

    def _start_round(c):
        yield from start_round(c)
        log.round += 1

    rt.isend, rt.irecv, rt.copy_local, rt._start_round = (
        _isend, _irecv, _copy_local, _start_round)


def _tap_endpoint(ep, log: _Log, base_tag: int) -> None:
    send, recv, reduce_, barrier = (
        ep.group_send, ep.group_recv, ep.group_reduce, ep.group_barrier)

    def group_send(greq, addr, size, dst, tag):
        log.post("gsend", dst, addr, size, tag - base_tag)
        send(greq, addr, size, dst=dst, tag=tag)

    def group_recv(greq, addr, size, src, tag):
        log.post("grecv", src, addr, size, tag - base_tag)
        recv(greq, addr, size, src=src, tag=tag)

    def group_reduce(greq, src_addr, dst_addr, size):
        log.posts.append(
            f"greduce {log.where(src_addr)} {log.where(dst_addr)} {size} w{log.round}")
        reduce_(greq, src_addr, dst_addr, size)

    def group_barrier(greq):
        log.round += 1
        barrier(greq)

    ep.group_send, ep.group_recv, ep.group_reduce, ep.group_barrier = (
        group_send, group_recv, group_reduce, group_barrier)


# ----------------------------------------------------------------------
# one runner per runtime: returns [posts of rank 0, posts of rank 1, ...]
# ----------------------------------------------------------------------
def _host(p: int, call) -> list[list[str]]:
    """``call(rt, comm, send, recv)`` is a generator running the
    collective to completion on one rank of a fresh p-rank world."""
    cl = Cluster(_spec(p))
    cl.payloads = False
    world = MpiWorld(cl)
    logs = []

    def program(rt):
        space = rt.ctx.space
        bufs = {"send": space.alloc(max(p * BLOCK, LARGE)),
                "recv": space.alloc(max(p * BLOCK, LARGE))}
        log = _Log(space, bufs)
        logs.append((rt.rank, log))
        _tap_runtime(rt, log)
        yield from call(rt, world.comm_world, bufs["send"], bufs["recv"])
        return True

    assert all(world.run(program))
    world.close()
    cl.close()
    return [log.posts for _, log in sorted(logs, key=lambda e: e[0])]


def _group(p: int, base_tag: int, build) -> list[list[str]]:
    """``build(ep, addr)`` records one pattern; nothing is simulated."""
    cl = Cluster(_spec(p))
    fw = OffloadFramework(cl, mode="gvmi")
    out = []
    for rank in range(p):
        ep = fw.endpoint(rank)
        bufs = {"recv": ep.ctx.space.alloc(max(p * BLOCK, SMALL, 8 * RING_WORDS))}
        log = _Log(ep.ctx.space, bufs)
        _tap_endpoint(ep, log, base_tag)
        build(ep, bufs["recv"])
        out.append(log.posts)
    fw.close()
    cl.close()
    return out


def _backend(flavor: str, p: int, op: str, root: int) -> list[list[str]]:
    """``be.ialltoall`` / ``be.ibcast`` on a communicator whose rank
    order is the reverse of the world's, so the translation of
    communicator ranks to world ranks is pinned too."""
    stack = make_stack(flavor, _spec(p))
    stack.cluster.payloads = False
    base_tag = {"bluesmpi": {"a2a": 17, "bcast": 19},
                "proposed": {"a2a": 23, "bcast": 29}}[flavor][op]
    logs = []

    def program(be):
        comm = stack.comm_world.split([0] * p, keys=list(range(p))[::-1])[0]
        space = be.ctx.space
        bufs = {"send": space.alloc(p * BLOCK),
                "recv": space.alloc(max(p * BLOCK, SMALL))}
        log = _Log(space, bufs)
        logs.append((be.rank, log))
        _tap_runtime(be.rt, log)
        _tap_endpoint(be.ep, log, base_tag)
        if op == "a2a":
            req = yield from be.ialltoall(comm, bufs["send"], bufs["recv"], BLOCK)
        else:
            req = yield from be.ibcast(comm, root, bufs["recv"], SMALL)
        yield from be.wait(req)
        return True

    assert all(stack.run_once(program))
    return [log.posts for _, log in sorted(logs, key=lambda e: e[0])]


def _hpl_ring(p: int, root: int) -> list[list[str]]:
    stack = make_stack("intelmpi", _spec(p))
    stack.cluster.payloads = False
    logs = []

    def program(be):
        addr = be.ctx.space.alloc(SMALL)
        log = _Log(be.ctx.space, {"recv": addr})
        logs.append((be.rank, log))
        _tap_runtime(be.rt, log)
        reqs = yield from _ring_bcast_p2p(be, stack.comm_world, root, addr, SMALL)
        yield from be.waitall(reqs)
        return True

    assert all(stack.run_once(program))
    return [log.posts for _, log in sorted(logs, key=lambda e: e[0])]


#: Host collectives: name -> call(rt, comm, root, send, recv); the first
#: group ignores the root.
HOST_UNROOTED = {
    "alltoall": lambda rt, c, root, s, r: blocking(rt, coll.ialltoall(rt, c, s, r, BLOCK)),
    "barrier": lambda rt, c, root, s, r: blocking(rt, coll.ibarrier(rt, c)),
    "allreduce": lambda rt, c, root, s, r: coll.allreduce(rt, c, r, REDUCE_BYTES),
}
HOST_ROOTED = {
    "bcast_binomial": lambda rt, c, root, s, r: blocking(rt, coll.ibcast(rt, c, root, r, SMALL)),
    "bcast_large": lambda rt, c, root, s, r: blocking(rt, coll.ibcast(rt, c, root, r, LARGE)),
    "reduce": lambda rt, c, root, s, r: blocking(
        rt, coll.ireduce(rt, c, root, r, REDUCE_BYTES)),
}


def _record(schedule, nbytes):
    """A Group recording of ``schedule(me, p, nbytes)`` at the
    Iallreduce tag base, as ``build_iallreduce`` records it."""
    return lambda ep, a, p, root: record_schedule(
        ep, schedule(ep.rank, p, nbytes), base_tag=0x7C00, recv_addr=a)


#: Group recordings: name -> (base tag, build(ep, addr, p, root)).
GROUP_UNROOTED = {
    "allreduce_ring": (0x7C00, _record(schedules.allreduce_ring, 8 * RING_WORDS)),
    "allreduce_ring_few": (0x7C00, _record(schedules.allreduce_ring, 8 * RING_FEW_WORDS)),
    "allreduce_rd": (0x7C00, _record(schedules.allreduce_rd, 8 * RING_WORDS)),
}


def _cases():
    """``(key, thunk)`` for every algorithm x runtime x p x root."""
    def add(key, fn, *args):
        return key, (lambda: fn(*args))

    def host(call, root):
        return lambda rt, comm, send, recv: call(rt, comm, root, send, recv)

    def group(build, p, root):
        return lambda ep, addr: build(ep, addr, p, root)

    for p in SIZES:
        for name, call in HOST_UNROOTED.items():
            yield add(f"host.{name}/p{p}", _host, p, host(call, None))
        for name, (tag, build) in GROUP_UNROOTED.items():
            if name != "allreduce_rd" or p & (p - 1) == 0:
                yield add(f"group.{name}/p{p}", _group, p, tag, group(build, p, None))
        for flavor in ("bluesmpi", "proposed"):
            yield add(f"{flavor}.alltoall/p{p}", _backend, flavor, p, "a2a", 0)
        for root in _roots(p):
            at = f"p{p}/root{root}"
            for name, call in HOST_ROOTED.items():
                yield add(f"host.{name}/{at}", _host, p, host(call, root))
            for flavor in ("bluesmpi", "proposed"):
                yield add(f"{flavor}.bcast_ring/{at}", _backend, flavor, p, "bcast", root)
            yield add(f"hpl.ring_p2p/{at}", _hpl_ring, p, root)


def _pin(ranks: list[list[str]]) -> dict:
    text = "\n".join(f"{r}: {post}" for r, posts in enumerate(ranks)
                     for post in posts)
    pin = {"posts": sum(len(posts) for posts in ranks),
           "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if len(ranks) <= READABLE:
        pin["ranks"] = ranks
    return pin


CASES = dict(_cases())


def test_pin_file_covers_exactly_the_cases(regen_golden):
    if regen_golden:
        pins = {key: _pin(thunk()) for key, thunk in CASES.items()}
        atomic_write(PIN_FILE, json.dumps(pins, indent=1, sort_keys=True) + "\n")
    assert sorted(json.loads(PIN_FILE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("algorithm", sorted({k.split("/")[0] for k in CASES}))
def test_posts_match_the_parent_tree(algorithm):
    pins = json.loads(PIN_FILE.read_text())
    for key, thunk in CASES.items():
        if key.split("/")[0] == algorithm:
            assert _pin(thunk()) == pins[key], key
