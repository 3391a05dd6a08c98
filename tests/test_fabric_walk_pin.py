"""The store-and-forward port walk, pinned message by message.

A seeded fabric-only program on 8 nodes posts about 2 000 messages
straight through ``Fabric.transfer`` / ``Fabric.control``: data and
control, host- and DPU-initiated, host and DPU memory, gap-bound and
bandwidth-bound sizes, a 7:1 incast, bursts of same-instant posts out of
one tx port, and a fault plan that delays, drops, duplicates and fails
some of them.  The record holds, for every data message in the order its
CQE fired, the time it landed, the time of the CQE and its status; and,
in firing order, every ``on_deliver`` callback and every inbox arrival.  Its sha256 was
taken on the walk built from ``Resource`` ports and per-hop
``Timeout``s, so any change to how a message walks its ports must keep
every float and every tie where that walk put them.

``walk_record()`` returns the rows themselves, for a diff when the
digest moves.
"""

from __future__ import annotations

import hashlib
import itertools
import random

from repro.hw import Cluster, ClusterSpec, FaultPlan, FaultSpec

NODES = 8
#: Gap-bound, mixed, and bandwidth-bound sizes (bytes).
SIZES = (0, 8, 64, 512, 4096, 32 * 1024, 256 * 1024)
#: Sleeps between bursts; the repeats make most bursts tie.
GAPS = (0.0, 0.0, 1e-7, 2.5e-7, 1e-6, 3e-6)


class _Inbox:
    """Records each arrival in firing order (what ``Store.put`` sees)."""

    def __init__(self, node, sim, log):
        self.node, self.sim, self.log = node, sim, log

    def put(self, msg):
        self.log.append(("inbox", self.node, msg, repr(self.sim.now)))


def walk_record(seed: int = 11):
    cl = Cluster(ClusterSpec(nodes=NODES, ppn=1, proxies_per_dpu=1))
    cl.install_faults(FaultPlan(FaultSpec(
        drop_prob=0.05, dup_prob=0.05, delay_prob=0.2, delay_max=4e-6,
        error_cqe_prob=0.1), seed=seed))
    sim, fabric = cl.sim, cl.fabric
    rng = random.Random(seed)
    order: list = []
    data: list = []
    inboxes = [_Inbox(n, sim, order) for n in range(NODES)]
    label = itertools.count()

    def post_data(src, dst):
        tag = next(label)
        kw = {}
        if rng.random() < 0.3:
            kw["src_mem"] = "dpu"
        if rng.random() < 0.3:
            kw["dst_mem"] = "dpu"
        t = fabric.transfer(
            src_node=src, dst_node=dst, size=rng.choice(SIZES),
            initiator=rng.choice(("host", "dpu")),
            on_deliver=lambda dv: order.append(
                ("deliver", tag, repr(sim.now), dv.status)),
            **kw)

        def cqe(ev):
            dv = ev.value
            data.append((tag, repr(dv.time), repr(sim.now), dv.status))
        t.completed.callbacks.append(cqe)

    def post_control(src, dst):
        fabric.control(src_node=src, dst_node=dst,
                       initiator=rng.choice(("host", "dpu")),
                       inbox=inboxes[dst], msg=next(label),
                       kind=rng.choice(("rts", "fin", "counter")))

    def poster(node):
        for _ in range(80):
            yield sim.timeout(rng.choice(GAPS))
            # A burst of same-instant posts out of this node's tx port.
            for _ in range(rng.randint(1, 4)):
                dst = rng.randrange(NODES)
                if rng.random() < 0.5:
                    post_data(node, dst)
                else:
                    post_control(node, dst)

    def incast():
        for _ in range(30):
            yield sim.timeout(rng.choice(GAPS[1:]))
            for src in range(1, NODES):
                post_data(src, 0)
                post_control(src, 0)

    procs = [sim.process(poster(n)) for n in range(NODES)]
    procs.append(sim.process(incast()))
    sim.run()
    assert all(p.processed for p in procs)
    return data, order


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_the_walk_lands_every_message_where_it_did():
    data, order = walk_record()
    statuses = [row[3] for row in data]
    arrivals = sum(1 for row in order if row[0] == "inbox")
    assert (len(data), statuses.count("error"), arrivals) == (1027, 125, 1028)
    assert len(data) + arrivals > 2000
    assert _digest(data) == (
        "7113f712d42526b825287300f7a440cbd0e838de080df54e602116c794bdd4fe")
    assert _digest(order) == (
        "c99e0e26862e16e0c5d9cb21aeff28786fd35dd39f58e2c835925704bae38361")


def test_the_record_repeats():
    assert walk_record() == walk_record()
