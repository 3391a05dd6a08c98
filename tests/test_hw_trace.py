"""Busy spans, fabric arrows and the text timeline, all read off the bus."""

from types import SimpleNamespace

import numpy as np
import pytest

from tests.helpers import run_procs
from repro.hw import Cluster, ClusterSpec
from repro.obs import EventBus, chrome_trace, render_timeline
from repro.offload import OffloadFramework


def _busy(bus, entity):
    return sum(end - start for _, start, end in bus.spans(entity))


def test_spans_record_consume():
    cl = Cluster(ClusterSpec(nodes=1, ppn=1))
    bus = EventBus.attach(cl)
    ctx = cl.rank_ctx(0)

    def prog(sim):
        yield ctx.consume(5e-6)
        yield sim.timeout(1e-6)  # idle: no span
        yield ctx.consume(2e-6)

    proc = cl.sim.process(prog(cl.sim))
    cl.sim.run(until=proc)
    assert _busy(bus, "host0") == 7e-6
    assert len(bus.spans()) == 2
    # Spans are not rows of the event stream.
    assert bus.count(cat="proc") == len(bus)


def test_arrows_record_transfers():
    cl = Cluster(ClusterSpec(nodes=2, ppn=1))
    bus = EventBus.attach(cl)

    def prog(sim):
        t = cl.fabric.transfer(src_node=0, dst_node=1, size=1024, initiator="host")
        yield t.completed

    proc = cl.sim.process(prog(cl.sim))
    cl.sim.run(until=proc)
    # One arrow: the xfer.post -> xfer.deliver pair of its xid.
    begin, end = [r for r in chrome_trace(cl)["traceEvents"] if r.get("cat") == "fabric"]
    assert begin["name"] == end["name"] == "data node0->node1"
    assert begin["args"] == {"size": 1024, "dst": "node1"}
    assert end["ts"] > begin["ts"]
    (post,) = bus.select(cat="xfer", name="post")
    (dv,) = bus.select(cat="xfer", name="deliver")
    assert (begin["ts"], end["ts"]) == (round(post.time * 1e6, 4),
                                        round(dv.time * 1e6, 4))


def test_t_min_window_filters_warmup():
    """``bus.clear()`` opens the measured window after a warm-up."""
    cl = Cluster(ClusterSpec(nodes=1, ppn=1))
    bus = EventBus.attach(cl)
    ctx = cl.rank_ctx(0)

    def prog(sim):
        yield ctx.consume(5e-6)   # warm-up
        bus.clear()
        yield ctx.consume(3e-6)   # measured

    proc = cl.sim.process(prog(cl.sim))
    cl.sim.run(until=proc)
    assert _busy(bus, "host0") == pytest.approx(3e-6)
    assert len(bus.spans()) == 1


def test_timeline_shows_lanes_and_arrivals():
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
    bus = EventBus.attach(cl)
    fw = OffloadFramework(cl)
    data = np.arange(4096, dtype=np.uint8)

    def sender(sim):
        ep = fw.endpoint(0)
        addr = ep.ctx.space.alloc_like(data)
        req = yield from ep.send_offload(addr, 4096, dst=1, tag=1)
        yield from ep.wait(req)

    def receiver(sim):
        ep = fw.endpoint(1)
        addr = ep.ctx.space.alloc(4096)
        req = yield from ep.recv_offload(addr, 4096, src=0, tag=1)
        yield from ep.wait(req)

    run_procs(cl, [sender(cl.sim), receiver(cl.sim)])
    text = render_timeline(bus, width=60)
    assert "host0" in text and "dpu0" in text
    assert "#" in text  # busy time visible
    assert "v" in text  # message arrivals visible


def test_render_empty_trace():
    assert render_timeline(EventBus()) == "(empty trace)"


def test_window_spans_every_recorded_time():
    """The timeline's window: the extremes of span and arrow times."""
    clock = SimpleNamespace(now=0.0)

    def arrow(bus, xid, src, dst, posted, delivered):
        clock.now = posted
        bus.emit("xfer", "post", src, xid=xid, kind="rdma", size=64)
        clock.now = delivered
        bus.emit("xfer", "deliver", dst, xid=xid)

    def window(bus):
        return render_timeline(bus).splitlines()[0]

    bus = EventBus(sim=clock)
    bus.span("host0", 3e-6, 5e-6)
    bus.span("dpu0", 2e-6, 9e-6)
    assert window(bus) == "window 2.0us .. 9.0us"
    arrow(bus, 0, "node0", "node1", 1e-6, 4e-6)
    arrow(bus, 1, "node1", "node0", 8e-6, 11e-6)
    assert window(bus) == "window 1.0us .. 11.0us"
    # An event that is not an arrow end does not widen it.
    clock.now = 20e-6
    bus.emit("wqe", "post", "node0", size=8)
    assert window(bus) == "window 1.0us .. 11.0us"
    only_arrows = EventBus(sim=clock)
    arrow(only_arrows, 0, "node0", "node1", 7e-6, 7.5e-6)
    assert window(only_arrows) == "window 7.0us .. 7.5us"


def test_tracing_off_by_default_costs_nothing():
    cl = Cluster(ClusterSpec(nodes=1, ppn=1))
    assert cl.bus is None
    ctx = cl.rank_ctx(0)

    def prog(sim):
        yield ctx.consume(1e-6)

    proc = cl.sim.process(prog(cl.sim))
    cl.sim.run(until=proc)  # must simply not crash
    assert ctx.busy_time == 1e-6
