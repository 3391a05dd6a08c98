"""Tests for the execution tracer and its text timeline."""

import numpy as np
import pytest

from tests.helpers import run_procs
from repro.hw import Cluster, ClusterSpec
from repro.hw.trace import Tracer
from repro.obs import render_timeline
from repro.offload import OffloadFramework


def test_spans_record_consume():
    cl = Cluster(ClusterSpec(nodes=1, ppn=1))
    tracer = Tracer.attach(cl)
    ctx = cl.rank_ctx(0)

    def prog(sim):
        yield ctx.consume(5e-6)
        yield sim.timeout(1e-6)  # idle: no span
        yield ctx.consume(2e-6)

    proc = cl.sim.process(prog(cl.sim))
    cl.sim.run(until=proc)
    assert tracer.busy_time("host0") == 7e-6
    assert len(tracer.spans) == 2


def test_arrows_record_transfers():
    cl = Cluster(ClusterSpec(nodes=2, ppn=1))
    tracer = Tracer.attach(cl)

    def prog(sim):
        t = cl.fabric.transfer(src_node=0, dst_node=1, size=1024, initiator="host")
        yield t.delivered

    proc = cl.sim.process(prog(cl.sim))
    cl.sim.run(until=proc)
    assert len(tracer.arrows) == 1
    arrow = tracer.arrows[0]
    assert (arrow.src, arrow.dst, arrow.size) == ("node0", "node1", 1024)
    assert arrow.delivered > arrow.posted


def test_t_min_window_filters_warmup():
    cl = Cluster(ClusterSpec(nodes=1, ppn=1))
    tracer = Tracer.attach(cl)
    ctx = cl.rank_ctx(0)

    def prog(sim):
        yield ctx.consume(5e-6)   # warm-up
        tracer.reset(t_min=sim.now)
        yield ctx.consume(3e-6)   # measured

    proc = cl.sim.process(prog(cl.sim))
    cl.sim.run(until=proc)
    assert tracer.busy_time("host0") == pytest.approx(3e-6)
    assert len(tracer.spans) == 1


def test_timeline_shows_lanes_and_arrivals():
    cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
    tracer = Tracer.attach(cl)
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
    text = render_timeline(tracer, width=60)
    assert "host0" in text and "dpu0" in text
    assert "#" in text  # busy time visible
    assert "v" in text  # message arrivals visible


def test_render_empty_trace():
    assert render_timeline(Tracer()) == "(empty trace)"


def test_window_spans_every_recorded_time():
    """One pass over spans and arrows; the extremes of all four columns."""
    tracer = Tracer()
    assert tracer.window() == (0.0, 0.0)
    tracer.record_span("host0", 3e-6, 5e-6)
    tracer.record_span("dpu0", 2e-6, 9e-6)
    assert tracer.window() == (2e-6, 9e-6)
    tracer.record_arrow("node0", "node1", 64, "rdma", 1e-6, 4e-6)
    tracer.record_arrow("node1", "node0", 64, "ctrl", 8e-6, 11e-6)
    assert tracer.window() == (1e-6, 11e-6)
    only_arrows = Tracer()
    only_arrows.record_arrow("node0", "node1", 8, "ctrl", 7e-6, 7.5e-6)
    assert only_arrows.window() == (7e-6, 7.5e-6)
    times = [t for s in tracer.spans for t in (s.start, s.end)] \
        + [t for a in tracer.arrows for t in (a.posted, a.delivered)]
    assert tracer.window() == (min(times), max(times))


def test_tracing_off_by_default_costs_nothing():
    cl = Cluster(ClusterSpec(nodes=1, ppn=1))
    assert Tracer.of(cl) is None
    ctx = cl.rank_ctx(0)

    def prog(sim):
        yield ctx.consume(1e-6)

    proc = cl.sim.process(prog(cl.sim))
    cl.sim.run(until=proc)  # must simply not crash
