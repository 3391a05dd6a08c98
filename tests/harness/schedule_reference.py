"""The fourth interpreter: run a schedule on a dict of NumPy buffers.

No simulator, no runtime, no addresses -- every rank's
:class:`repro.mpi.schedules.Schedule` is executed over
``{rank: {"send": array, "recv": array}}`` with a FIFO mailbox keyed
``(src, dst, tag)``.  A rank starts a round by running its local ops and
posting its sends in op order (a send snapshots its bytes), and moves to
the next round once every receive of the round has been fed -- the
dependency both real interpreters honour (a host round waits for its own
requests; the Group recorder puts a barrier between rounds).

:func:`run_reference` doubles as the structural check the schedule
docstrings assert: every send is consumed by exactly one receive of the
same size under the same tag, and no rank is left waiting.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.schedules import SCRATCH

__all__ = ["run_reference"]


def run_reference(p: int, schedule_of, buffers: dict) -> dict:
    """Execute ``schedule_of(rank)`` for every rank of a ``p``-rank
    communicator over ``buffers[rank]`` (name -> uint8 array, updated in
    place; scratch is added).  Returns ``buffers``."""
    scheds = [schedule_of(rank) for rank in range(p)]
    for rank, sched in enumerate(scheds):
        buffers[rank][SCRATCH] = np.zeros(sched.scratch_bytes, np.uint8)
    mailbox: dict[tuple, list] = {}
    round_idx = [0] * p
    #: Receives of the rank's current round still unfed; None = not started.
    waiting: list = [None] * p

    def start_round(rank: int) -> list:
        bufs = buffers[rank]
        recvs = []
        for op in scheds[rank].rounds[round_idx[rank]]:
            src = slice(op.src_off, op.src_off + op.nbytes)
            dst = slice(op.off, op.off + op.nbytes)
            if op.kind == "copy":
                bufs[op.buf][dst] = bufs[op.src][src]
            elif op.kind == "reduce":
                bufs[op.buf][dst].view(np.float64)[:] += bufs[op.src][src].view(np.float64)
            elif op.kind == "send":
                mailbox.setdefault((rank, op.peer, op.tag), []).append(
                    bufs[op.buf][dst].copy())
            else:
                recvs.append(op)
        return recvs

    progressed = True
    while progressed:
        progressed = False
        for rank in range(p):
            while round_idx[rank] < len(scheds[rank].rounds):
                if waiting[rank] is None:
                    waiting[rank] = start_round(rank)
                    progressed = True
                unfed = []
                for op in waiting[rank]:
                    queue = mailbox.get((op.peer, rank, op.tag))
                    if not queue:
                        unfed.append(op)
                        continue
                    data = queue.pop(0)
                    assert len(data) == op.nbytes, (
                        f"{op.peer}->{rank} tag {op.tag}: {len(data)} B sent "
                        f"into a {op.nbytes} B receive")
                    buffers[rank][op.buf][op.off:op.off + op.nbytes] = data
                waiting[rank] = unfed
                if unfed:
                    break
                waiting[rank] = None
                round_idx[rank] += 1
                progressed = True
    stuck = {rank: [(op.peer, op.tag) for op in ops]
             for rank, ops in enumerate(waiting) if ops}
    assert not stuck, f"receives nobody sends to (rank: [(peer, tag)]): {stuck}"
    unread = sorted(key for key, queue in mailbox.items() if queue)
    assert not unread, f"sends nobody receives (src, dst, tag): {unread}"
    return buffers
