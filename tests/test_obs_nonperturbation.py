"""Observation and fault hooks do not perturb the run they attach to.

The fabric walks every message through one callback chain and the proxy
completes every RDMA leg through one callback; the EventBus (events and
busy spans) and the FaultPlan are hooks on that single path.  So attaching any of
them must leave the kernel's event count, the final clock and every
rank's finish time exactly where the bare run puts them -- the run you
can see is the run you time (ROADMAP item 5(e)).
"""

from __future__ import annotations

import pytest

from tests.helpers import pattern
from repro.hw import Cluster, ClusterSpec, FaultPlan, FaultSpec
from repro.obs import EventBus, observe_cluster
from repro.offload import OffloadFramework

P, SIZE, ITERS = 4, 8192, 3


def _attach_nothing(cl):
    pass


def _attach_filtered_bus(cl):
    # Collects no event at all, but every busy span.
    EventBus.attach(cl, categories=())


def _attach_inert_plan(cl):
    # Armed (every fate hook consults it) but inert: all probabilities 0.
    cl.install_faults(FaultPlan(FaultSpec(), seed=11))


def _arm_inert_plan_on_fabric(cl):
    # The same plan on a built stack.  install_faults refuses that order
    # (Init_Offload has already read cluster.fault_plan), so hand it to
    # the fabric, whose fate hooks the proxies consult too.
    cl.fabric.fault_plan = FaultPlan(FaultSpec(), seed=11).bind(cl)


#: name -> (hook, attach before the framework is built?).  The bus goes
#: on first, as observe_cluster asks.  The plan goes on the
#: built stack: every fabric and proxy fate hook consults it, while the
#: endpoints' retransmit timers -- real protocol events that a
#: framework built over an armed plan adds -- stay out of the count
#: (test_resilient_plan_keeps_finish_times covers that order).
ATTACHMENTS = {
    "none": (_attach_nothing, True),
    "bus": (EventBus.attach, True),
    "spans-only bus": (_attach_filtered_bus, True),
    "observe_cluster": (observe_cluster, True),
    "inert-plan": (_arm_inert_plan_on_fabric, False),
}


def _basic_ring(fw, rank):
    """Every rank sends to its right neighbour and receives from its left."""
    ep = fw.endpoint(rank)
    data = pattern(SIZE, seed=rank)
    sbuf = ep.ctx.space.alloc_like(data)
    rbuf = ep.ctx.space.alloc(SIZE)
    for it in range(ITERS):
        r = yield from ep.recv_offload(rbuf, SIZE, src=(rank - 1) % P, tag=it)
        s = yield from ep.send_offload(sbuf, SIZE, dst=(rank + 1) % P, tag=it)
        yield from ep.waitall([r, s])
    want = pattern(SIZE, seed=(rank - 1) % P)
    assert bytes(ep.ctx.space.read(rbuf, SIZE)) == want.tobytes()
    return ep.sim.now


def _group_alltoall(fw, rank):
    """A recorded Group_Offload alltoall, called ITERS times."""
    ep = fw.endpoint(rank)
    sbuf = ep.ctx.space.alloc(P * SIZE, fill=rank + 1)
    rbuf = ep.ctx.space.alloc(P * SIZE)
    greq = ep.group_start()
    for dist in range(1, P):
        dst, src = (rank + dist) % P, (rank - dist) % P
        ep.group_send(greq, sbuf + dst * SIZE, SIZE, dst=dst, tag=4)
        ep.group_recv(greq, rbuf + src * SIZE, SIZE, src=src, tag=4)
    ep.group_end(greq)
    for _ in range(ITERS):
        yield from ep.group_call(greq)
        yield from ep.group_wait(greq)
    return ep.sim.now


VARIANTS = {"basic": _basic_ring, "group": _group_alltoall}


def _run(mode, variant, attach, before_framework=True):
    cl = Cluster(ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=1))
    if before_framework:
        attach(cl)
    fw = OffloadFramework(cl, mode=mode)
    if not before_framework:
        attach(cl)
    procs = [cl.sim.process(VARIANTS[variant](fw, r)) for r in range(P)]
    cl.sim.run(until=cl.sim.all_of(procs))
    cl.sim.run()  # drain trailing acks/FINs so the count covers the whole run
    return cl.sim.processed_events, cl.sim.now, [p.value for p in procs]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("mode", ["gvmi", "staged"])
def test_attachments_leave_the_run_unperturbed(mode, variant):
    bare = _run(mode, variant, _attach_nothing)
    assert bare[0] > 0 and all(t > 0 for t in bare[2])
    for name, (attach, before_framework) in ATTACHMENTS.items():
        assert _run(mode, variant, attach, before_framework) == bare, (
            f"{mode}/{variant}: attaching {name!r} changed "
            f"(processed_events, sim.now, finish times)"
        )


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("mode", ["gvmi", "staged"])
def test_resilient_plan_keeps_finish_times(mode, variant):
    """A framework built over an armed-but-inert plan arms its
    retransmit timers (extra timeout events that find nothing to do);
    no rank finishes a nanosecond later for it."""
    bare = _run(mode, variant, _attach_nothing)
    events, _now, finish = _run(mode, variant, _attach_inert_plan)
    assert finish == bare[2]
    assert events >= bare[0]
