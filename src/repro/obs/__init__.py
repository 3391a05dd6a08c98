"""Structured observability for the offload stack.

The paper's claims are about *where time goes* -- proxy-driven progress
without CPU intervention (Fig 1), registration- and group-request-cache
amortisation (Sec VII-B/D) -- so "it ran" is not a useful test oracle;
"it ran the way the paper says" is.  This package supplies the
measurement substrate:

* :class:`~repro.obs.events.EventBus` -- the one observation channel:
  a typed, deterministic event stream from every layer of the stack
  (WQEs, registrations, caches, control traffic, group plans, faults,
  proxy lifecycle) plus every host/DPU busy span, stored as columns.
  With no bus attached every hook is a single ``is None`` check.
* :class:`~repro.obs.hist.Histogram` -- latency histograms with
  p50/p95/p99, layered onto :class:`~repro.hw.metrics.Metrics` via
  ``Metrics.observe``.
* :mod:`~repro.obs.export` -- exporters: Chrome ``trace_event`` JSON
  (open in https://ui.perfetto.dev) and per-rank text timelines.
* :mod:`~repro.obs.invariants` -- the trace invariant checker consumed
  by ``tests/harness``: every post completes, transfers respect
  causality, no host CPU span overlaps offloaded group execution, group
  plans are never rebuilt once cached.

Typical wiring::

    from repro.obs import observe_cluster
    obs = observe_cluster(cluster)      # the EventBus, attached
    ...run...
    obs.write_chrome_trace("trace.json")
    print(obs.timeline())
    check_trace(obs.bus)
"""

from repro.obs.events import EventBus, ObsEvent
from repro.obs.hist import Histogram
from repro.obs.export import chrome_trace, render_timeline, write_chrome_trace
from repro.obs.invariants import TraceInvariantError, check_trace, trace_violations

__all__ = [
    "EventBus",
    "Histogram",
    "ObsEvent",
    "Observability",
    "TraceInvariantError",
    "check_trace",
    "chrome_trace",
    "observe_cluster",
    "render_timeline",
    "trace_violations",
    "write_chrome_trace",
]


class Observability:
    """The :class:`EventBus` observing one cluster, and its exports."""

    def __init__(self, cluster, bus):
        self.cluster = cluster
        self.bus = bus

    def chrome_trace(self) -> dict:
        """The trace document; ``traceEvents`` is a ``Sequence`` view of rows."""
        return chrome_trace(self.cluster, bus=self.bus)

    def write_chrome_trace(self, path) -> dict:
        """Stream the document to ``path``, one row per line; returns it."""
        return write_chrome_trace(path, self.cluster, bus=self.bus)

    def timeline(self, width: int = 72, entities=None) -> str:
        return render_timeline(self.bus, width=width, entities=entities)

    def check(self, **kw) -> None:
        if "keys" not in kw:
            state = getattr(self.cluster, "_verbs", None)
            if state is not None:
                kw["keys"] = state.keys
        check_trace(self.bus, **kw)


def observe_cluster(cluster, categories=None) -> Observability:
    """Attach full observability (events + spans) to ``cluster``.

    Must run before traffic flows; returns the :class:`Observability`
    handle used to export traces after the run.
    """
    bus = EventBus.attach(cluster, categories=categories)
    # Arm use/revoke logging on the cluster-wide key table so the
    # no-use-after-revoke invariant has data to check against.  The
    # verbs state is created eagerly here (it is pure bookkeeping) so
    # arming works even before the first registration.
    from repro.verbs.rdma import verbs_state

    verbs_state(cluster).keys.record_uses(lambda sim=cluster.sim: sim.now)
    return Observability(cluster, bus)
