"""Communication patterns as data: one schedule per algorithm.

The paper's Group primitives "record an entire dependent communication
DAG up front", and its three-way comparison only means something if all
three runtimes execute the *same* pattern.  So each pattern is spelled
once, here, as a pure function ``(me, p, root, sizes) -> Schedule`` --
no simulator, runtime or address in sight -- and interpreted by

* the host-MPI round engine (``MpiRuntime._start_round``), which needs
  the CPU inside an MPI call to move from one round to the next;
* the Group recorder (``repro.offload.collectives.record_schedule``):
  the same ops as ``group_send`` / ``group_recv`` / ``group_reduce``
  entries, one ``group_barrier`` between consecutive rounds, in
  ``gvmi`` (proposed) or ``staged`` (BluesMPI) mode alike;
* the reference (``tests/harness/schedule_reference.py``): all ranks on
  a dict of NumPy buffers.

A :class:`Schedule` is a tuple of *rounds*, a round a tuple of
:class:`Op`; round *k+1* may start only once everything round *k*
posted has completed.  Schedules are immutable, so one build can serve
every caller with the same arguments (``repro.mpi.collectives`` keeps a
small cache of them).  Ops address three symbolic buffers -- ``SEND``
and ``RECV`` are the caller's (in-place collectives use ``RECV``),
``SCRATCH`` is ``scratch_bytes`` the interpreter provides -- name peers
by *communicator* rank, and carry tag *offsets*.  An empty round stays
in the schedule: the Group executor matches barriers by count, so all
ranks of a Group pattern need the same number of rounds.

To add an algorithm: one function here, built from :func:`binomial_tree`
/ :func:`scatter_tree` / :func:`ring_neighbours` / :func:`chunks`; a
host entry in ``repro.mpi.collectives`` and/or a ``build_*`` in
``repro.offload.collectives``; a row in
``tests/test_schedule_differential.py``'s table.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

__all__ = [
    "SEND", "RECV", "SCRATCH", "Op", "Schedule",
    "binomial_tree", "scatter_tree", "ring_neighbours", "chunks",
    "alltoall", "bcast_binomial", "bcast_ring", "bcast_scag", "barrier",
    "reduce", "allreduce_rd", "allreduce_ring",
]

SEND, RECV, SCRATCH = "send", "recv", "scratch"


class Op(NamedTuple):
    """One step of one rank's schedule.

    ``send`` reads and ``recv`` writes ``nbytes`` at ``buf + off``,
    to/from communicator rank ``peer`` under ``base tag + tag``.
    ``copy`` moves and ``reduce`` float64-accumulates ``nbytes`` from
    ``src + src_off`` into ``buf + off``, locally (:func:`_local`).
    """

    kind: str  # "send" | "recv" | "copy" | "reduce"
    peer: int = -1
    buf: str = RECV
    off: int = 0
    nbytes: int = 0
    tag: int = 0
    src: str = SEND
    src_off: int = 0


def _local(kind: str, dst: str, dst_off: int, src: str, src_off: int, nbytes: int) -> Op:
    return Op(kind, -1, dst, dst_off, nbytes, 0, src, src_off)


class Schedule(NamedTuple):
    rounds: tuple  # of tuples of Op
    scratch_bytes: int = 0


def _frozen(rounds: list[list[Op]], scratch_bytes: int = 0) -> Schedule:
    """Freeze a builder's rounds into an immutable :class:`Schedule`."""
    return Schedule(tuple(map(tuple, rounds)), scratch_bytes)


# ----------------------------------------------------------------------
# the arithmetic, derived once
# ----------------------------------------------------------------------
def binomial_tree(vrank: int, p: int) -> tuple[Optional[int], list[int]]:
    """Parent/children of a virtual rank in the binomial broadcast tree.
    A node's parent is itself with the highest set bit cleared; its
    children are ``vrank + 2**k`` for every ``2**k > vrank`` still in
    range, so child ``vrank + 2**k`` hears the data at tree level ``k``."""
    parent = vrank & ~(1 << (vrank.bit_length() - 1)) if vrank else None
    children = []
    k = 1 if vrank == 0 else 1 << vrank.bit_length()
    while vrank + k < p:
        children.append(vrank + k)
        k <<= 1
    return parent, children


def scatter_tree(vrank: int, p: int) -> tuple[Optional[int], int, list[tuple[int, int]]]:
    """``(parent, span, [(child, child_span), ...])`` in the binomial
    scatter/gather tree: the *other* binomial tree (parent = clear the
    LOWEST set bit), in which node v owns the contiguous virtual range
    ``[v, v + span)`` -- the property scatter offsets rely on.  Spans
    are clipped to ``p``; children are listed largest-subtree-first."""
    span = (1 << max(0, (p - 1).bit_length())) if vrank == 0 else (vrank & -vrank)
    parent = None if vrank == 0 else vrank & (vrank - 1)
    children = []
    j = span >> 1
    while j >= 1:
        if vrank + j < p:
            children.append((vrank + j, min(j, p - vrank - j)))
        j >>= 1
    return parent, min(span, p - vrank), children


def ring_neighbours(me: int, p: int) -> tuple[int, int]:
    """``(right, left)`` on the rank ring."""
    return (me + 1) % p, (me - 1) % p


def chunks(total: int, p: int, *, unit: int = 1, spread: bool) -> list[int]:
    """Cut ``total`` bytes into ``p`` pieces of whole ``unit``s; returns
    the ``p + 1`` byte offsets delimiting them (piece i is
    ``[offs[i], offs[i+1])``, possibly empty).  ``spread=True`` hands
    the remainder out one unit each to the first pieces (ring
    allreduce); ``spread=False`` makes every piece ``total // p`` (at
    least one unit) and leaves the remainder on the last (the MPICH
    scatter-allgather broadcast)."""
    count = total // unit
    base, rem = divmod(count, p)
    if spread:
        offs = [i * base + min(i, rem) for i in range(p)]
    else:
        offs = [min(count, i * max(1, base)) for i in range(p)]
    return [o * unit for o in offs] + [count * unit]


def _ring_rounds(me: int, p: int, first: int, offs: list[int], tag0: int) -> list[list[Op]]:
    """The ``p - 1`` rounds of a ring allgather over the ``RECV`` pieces
    ``offs`` delimits: in round r piece ``(first - r) % p`` goes right
    while piece ``(first - r - 1) % p`` arrives from the left, straight
    into its final place.  An empty piece is skipped on **both** its
    sender and its receiver (the piece index decides, identically on
    each side)."""
    right, left = ring_neighbours(me, p)
    rounds = []
    for r in range(p - 1):
        s, q = (first - r) % p, (first - r - 1) % p
        ops = []
        if offs[s + 1] > offs[s]:
            ops.append(Op("send", right, RECV, offs[s], offs[s + 1] - offs[s], tag0 + r))
        if offs[q + 1] > offs[q]:
            ops.append(Op("recv", left, RECV, offs[q], offs[q + 1] - offs[q], tag0 + r))
        rounds.append(ops)
    return rounds


# ----------------------------------------------------------------------
# the algorithms
# ----------------------------------------------------------------------
def alltoall(me: int, p: int, block: int) -> Schedule:
    """Scatter-destination personalized exchange: the self block is a
    local copy, every other pair is posted up front, rotated by
    distance to avoid incast -- the algorithm the paper implements with
    Group primitives."""
    ops = [_local("copy", RECV, me * block, SEND, me * block, block)]
    for dist in range(1, p):
        dst, src = (me + dist) % p, (me - dist) % p
        ops.append(Op("send", dst, SEND, dst * block, block))
        ops.append(Op("recv", src, RECV, src * block, block))
    return _frozen([ops])


def bcast_binomial(me: int, p: int, root: int, nbytes: int) -> Schedule:
    """Binomial-tree broadcast of ``RECV[0:nbytes]``: receive from the
    parent, then post every child in one round under one tag."""
    v = (me - root) % p
    parent, children = binomial_tree(v, p)
    recv = [] if parent is None else [Op("recv", (parent + root) % p, RECV, 0, nbytes)]
    return _frozen([recv, [Op("send", (child + root) % p, RECV, 0, nbytes)
                           for child in children]])


def bcast_ring(me: int, p: int, root: int, nbytes: int) -> Schedule:
    """The HPL 1-ring: root -> root+1 -> ... around the ring; the tail
    does not forward.  Every non-root rank must *receive before it can
    forward* -- the data dependency that forces CPU intervention in
    host MPI (paper Listing 1) and that Group primitives offload
    wholesale (Listing 5)."""
    if p == 1:
        return _frozen([])
    right, left = ring_neighbours(me, p)
    forward = Op("send", right, RECV, 0, nbytes)
    if me == root:
        return _frozen([[forward], []])
    return _frozen([[Op("recv", left, RECV, 0, nbytes)],
                    [forward] if right != root else []])


def bcast_scag(me: int, p: int, root: int, nbytes: int) -> Schedule:
    """Large-message broadcast: binomial scatter + ring allgather (the
    MPICH/IntelMPI one).  The buffer is cut into ``p`` segments; the
    scatter leaves virtual rank ``v`` holding exactly segment ``v``; the
    allgather then circulates every segment (tags 1..p-1).
    Bandwidth-optimal (~2 x (p-1)/p x size moved per rank), but each of
    the p-1 dependent rounds is a CPU-intervention point for a
    host-progressed runtime."""
    v = (me - root) % p
    offs = chunks(nbytes, p, spread=False)
    parent, span, children = scatter_tree(v, p)
    recv_round, send_round = [], []
    if parent is not None and offs[v + span] > offs[v]:
        recv_round.append(
            Op("recv", (parent + root) % p, RECV, offs[v], offs[v + span] - offs[v]))
    for child, child_span in children:
        n = offs[child + child_span] - offs[child]
        if n:
            send_round.append(Op("send", (child + root) % p, RECV, offs[child], n))
    return _frozen([recv_round, send_round] + _ring_rounds(me, p, v, offs, 1))


def barrier(me: int, p: int) -> Schedule:
    """Dissemination barrier: ``ceil(log2 p)`` dependent rounds of one
    byte to ``me + 2**k`` and from ``me - 2**k``."""
    rounds = []
    k = 0
    while (1 << k) < p:
        rounds.append([Op("send", (me + (1 << k)) % p, SCRATCH, k, 1, k),
                       Op("recv", (me - (1 << k)) % p, SCRATCH, k, 1, k)])
        k += 1
    return _frozen(rounds, max(1, k))


def reduce(me: int, p: int, root: int, nbytes: int) -> Schedule:
    """Binomial float64 sum-reduce of ``RECV`` into ``root``, in place:
    the broadcast tree run backwards.  A node drains its children
    deepest-first (the reverse of the broadcast send order) through one
    scratch slot, accumulating each, then sends to its parent."""
    v = (me - root) % p
    parent, children = binomial_tree(v, p)
    rounds = [[]]
    for child in reversed(children):
        rounds[-1].append(Op("recv", (child + root) % p, SCRATCH, 0, nbytes))
        rounds.append([_local("reduce", RECV, 0, SCRATCH, 0, nbytes)])
    if parent is not None:
        rounds[-1].append(Op("send", (parent + root) % p, RECV, 0, nbytes))
    return _frozen(rounds, nbytes if children else 0)


def allreduce_rd(me: int, p: int, nbytes: int) -> Schedule:
    """Recursive-doubling in-place sum-allreduce (power-of-two ``p``):
    ``log2 p`` rounds of pairwise exchange + fold.  Inbound partials
    land in **per-round scratch slots**: a partner one round ahead may
    write its next contribution while this rank still folds the previous
    one.  The fold opens the next round: the round boundary orders the
    partner's write before it, and it precedes that round's send, so
    each exchange ships an up-to-date partial."""
    rounds = [[]]
    k = 0
    while (1 << k) < p:
        partner = me ^ (1 << k)
        rounds[-1] += [Op("send", partner, RECV, 0, nbytes, k),
                       Op("recv", partner, SCRATCH, k * nbytes, nbytes, k)]
        rounds.append([_local("reduce", RECV, 0, SCRATCH, k * nbytes, nbytes)])
        k += 1
    return _frozen(rounds, k * nbytes)


def allreduce_ring(me: int, p: int, nbytes: int) -> Schedule:
    """Ring reduce-scatter + ring allgather, in place (any ``p``), over
    word-granular chunks (:func:`chunks`, ``spread``).  A chunk emptied
    by ``count < p`` is skipped on **both** its sender and its receiver
    while its round stays, so round counts stay aligned across ranks.
    Reduce-scatter round r folds chunk ``(me - r - 1) % p`` here; after
    all of them this rank owns complete chunk ``(me + 1) % p`` and the
    allgather (tags from ``p - 1``) circulates the complete chunks."""
    offs = chunks(nbytes, p, unit=8, spread=True)
    right, left = ring_neighbours(me, p)
    rounds = [[]]
    slot = 0
    for r in range(p - 1):
        s, q = (me - r) % p, (me - r - 1) % p
        n = offs[q + 1] - offs[q]
        if offs[s + 1] > offs[s]:
            rounds[-1].append(Op("send", right, RECV, offs[s], offs[s + 1] - offs[s], r))
        if n:
            rounds[-1].append(Op("recv", left, SCRATCH, slot, n, r))
        rounds.append([_local("reduce", RECV, offs[q], SCRATCH, slot, n)] if n else [])
        slot += n
    gather_rounds = _ring_rounds(me, p, (me + 1) % p, offs, p - 1)
    if gather_rounds:
        rounds[-1] += gather_rounds[0]
        rounds += gather_rounds[1:]
    return _frozen(rounds, slot)
