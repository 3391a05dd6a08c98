"""The per-layer ledger: names, units, and how each number is read.

Layer = module path under ``src/repro/``.  Four families:

* deterministic counts and simulated-clock statistics, read from public
  counters after each point and merged over the workload's points --
  these repeat exactly, so two commits compare exactly;
* host-clock numbers derived from the untraced run;
* host-clock spans, simulated stage costs and sampled self time from
  the traced pass (``bench/trace.py``).

``None`` means the metric does not apply to the workload (no flows on
an exact-engine workload, no offload requests under host MPI, ...).
"""

from __future__ import annotations

from repro.hw import Metrics
from repro.obs import Histogram

from bench.trace import SELF_TIME_LAYERS, SIM_STAGES

#: (name, unit, better) of every deterministic layer metric.
DETERMINISTIC = [
    ("sim.core.events", "count", "lower"),
    ("sim.core.events_per_op", "count", "lower"),
    ("sim.flows.flows", "count", "lower"),
    ("sim.flows.recomputes", "count", "lower"),
    ("sim.flows.wakes", "count", "lower"),
    ("sim.flows.recomputes_per_flow", "count", "lower"),
    ("hw.fabric.transfers", "count", "lower"),
    ("hw.fabric.control_msgs", "count", "lower"),
    ("hw.fabric.xfer_latency_p50_us", "us", "lower"),
    ("hw.fabric.xfer_latency_p99_us", "us", "lower"),
    ("hw.fabric.ctrl_latency_p50_us", "us", "lower"),
    ("hw.fabric.ctrl_latency_p99_us", "us", "lower"),
    ("hw.node.host_busy_pct", "%", "lower"),
    ("hw.node.dpu_busy_pct", "%", "lower"),
    ("verbs.reg_mr", "count", "lower"),
    ("verbs.gvmi.cross_registrations", "count", "lower"),
    ("mpi.runtime.sends_eager", "count", "lower"),
    ("mpi.runtime.sends_rndv", "count", "lower"),
    ("mpi.runtime.sends_shm", "count", "lower"),
    ("mpi.regcache.hit_ratio", "ratio", "higher"),
    ("offload.api.basic_ops", "count", "lower"),
    ("offload.api.group_calls", "count", "lower"),
    ("offload.api.ctrl_msgs_per_op", "count", "lower"),
    ("offload.api.req_latency_p50_us", "us", "lower"),
    ("offload.api.req_latency_p99_us", "us", "lower"),
    ("offload.api.retries", "count", "lower"),
    ("offload.group_cache.hit_ratio", "ratio", "higher"),
    ("offload.gvmi_cache.hit_ratio", "ratio", "higher"),
    ("offload.proxy.wakeups", "count", "lower"),
    ("offload.proxy.drained_items", "count", "lower"),
    ("offload.proxy.items_per_wakeup", "count", "higher"),
    ("offload.proxy.group_replays", "count", "lower"),
    ("offload.proxy.reduces", "count", "lower"),
    ("baselines.time_in_comm_pct", "%", "lower"),
    ("obs.bus_events", "count", "lower"),
    ("obs.trace_events", "count", "lower"),
    ("sim_err_pct", "%", "lower"),
]

HOST_DERIVED = [
    ("sim.core.us_per_event", "us", "lower"),
    ("sim.core.events_per_s", "1/s", "higher"),
]

TRACED = [
    ("hw.cluster.build_s", "s", "lower"),
    ("offload.api.build_s", "s", "lower"),
    ("mpi.world.build_s", "s", "lower"),
    ("sim.core.run_s", "s", "lower"),
    ("hw.fabric.post_s", "s", "lower"),
    ("hw.fabric.post_calls", "count", "lower"),
    ("sim.flows.solve_s", "s", "lower"),
    ("sim.flows.solve_calls", "count", "lower"),
    ("sim.flows.solve_us_per_call", "us", "lower"),
    ("obs.check_s", "s", "lower"),
    ("obs.export_s", "s", "lower"),
    ("obs.slowdown_x", "x", "lower"),
    ("obs.extra_events", "count", "lower"),
    ("trace_overhead_pct", "%", "lower"),
    *[(f"offload.api.{stage}.sim_us", "us", "lower") for stage in SIM_STAGES],
    *[(f"{layer}.self_s", "s", "lower") for layer in (*SELF_TIME_LAYERS, "other")],
]

LAYER_METRICS = DETERMINISTIC + HOST_DERIVED + TRACED


def _ratio(num: float, den: float):
    return num / den if den else None


def _busy(contexts, now: float) -> tuple[float, float]:
    """Busy simulated seconds of a cluster's rank or proxy contexts, and
    the process-seconds they are a share of.  Slim clusters materialize
    contexts on first touch; one never touched was never busy."""
    made = contexts.materialized() if hasattr(contexts, "materialized") else contexts
    return sum(ctx.busy_time for ctx in made), len(contexts) * now


class PointCounters:
    """Public counters of the clusters one workload built, summed over
    its points (histograms merged sample by sample)."""

    def __init__(self):
        self.metrics = Metrics()
        self.events = 0
        self.flows = self.recomputes = self.wakes = 0
        # Busy and in-communication simulated seconds, with the
        # process-seconds they are a share of.
        self.host_busy = self.host_span = 0.0
        self.dpu_busy = self.dpu_span = 0.0
        self.comm = self.comm_span = 0.0
        self.extra: dict[str, float] = {}

    def read_point(self, hooks) -> None:
        for cluster in hooks.clusters:
            sim = cluster.sim
            self.metrics.merge(cluster.metrics)
            self.events += sim.processed_events
            engine = sim.flow_engine
            if engine is not None:
                self.flows += engine.flows_started
                self.recomputes += engine.recomputes
                self.wakes += engine.wakes
            host_busy, host_span = _busy(cluster.ranks, sim.now)
            dpu_busy, dpu_span = _busy(cluster.proxies, sim.now)
            self.host_busy += host_busy
            self.host_span += host_span
            self.dpu_busy += dpu_busy
            self.dpu_span += dpu_span
        for stack in hooks.stacks:
            ranks = stack.world.size
            self.comm += sum(stack.backend(r).time_in_comm for r in range(ranks))
            self.comm_span += ranks * stack.cluster.sim.now
        for name, value in hooks.counts.items():
            self.extra[name] = self.extra.get(name, 0) + value

    def layer_metrics(self) -> dict:
        m = self.metrics
        get = m.get

        def prefixed(prefix: str, suffix: str = "") -> float:
            return sum(v for k, v in m
                       if k.startswith(prefix) and k.endswith(suffix))

        def percentile_us(hist, q: float):
            return hist.percentile(q) * 1e6 if hist else None

        xfer = Histogram()
        for key, hist in m.hists():
            if key.startswith("fabric.xfer_latency."):
                xfer.merge(hist)
        ctrl = m.hist("fabric.ctrl_latency")
        req = m.hist("offload.req_latency")

        posted = get("nic.host_posted_msgs") + get("nic.dpu_posted_msgs")
        basic_ops = get("offload.basic_sends") + get("offload.basic_recvs")
        cached = get("offload.group_call_cached")
        group_calls = (cached + get("offload.group_call_build")
                       + get("offload.group_call_reship"))
        offload_ops = basic_ops + group_calls
        ctrl_msgs = (get("ctrl.host_to_dpu") + get("ctrl.dpu_to_host")
                     + get("proxy.fin_writes") + get("proxy.group_completions"))
        reg_hit = prefixed("regcache.", ".hit")
        reg_miss = prefixed("regcache.", ".miss")
        gvmi_hit = get("gvmi_cache.host.hit") + get("gvmi_cache.dpu.hit")
        gvmi_miss = get("gvmi_cache.host.miss") + get("gvmi_cache.dpu.miss")
        wakeups = get("proxy.wakeups")
        drained = get("proxy.drained_items")

        def pct(num, den):
            r = _ratio(num, den)
            return None if r is None else 100.0 * r

        return {
            "sim.core.events": self.events,
            "sim.core.events_per_op": _ratio(self.events, posted),
            "sim.flows.flows": self.flows,
            "sim.flows.recomputes": self.recomputes,
            "sim.flows.wakes": self.wakes,
            "sim.flows.recomputes_per_flow": _ratio(self.recomputes, self.flows),
            "hw.fabric.transfers": len(xfer),
            "hw.fabric.control_msgs": get("fabric.control_msgs"),
            "hw.fabric.xfer_latency_p50_us": percentile_us(xfer, 50),
            "hw.fabric.xfer_latency_p99_us": percentile_us(xfer, 99),
            "hw.fabric.ctrl_latency_p50_us": percentile_us(ctrl, 50),
            "hw.fabric.ctrl_latency_p99_us": percentile_us(ctrl, 99),
            "hw.node.host_busy_pct": pct(self.host_busy, self.host_span),
            "hw.node.dpu_busy_pct": pct(self.dpu_busy, self.dpu_span),
            "verbs.reg_mr": prefixed("verbs.reg_mr."),
            "verbs.gvmi.cross_registrations": get("gvmi.cross_registrations"),
            "mpi.runtime.sends_eager": get("mpi.eager_sends"),
            "mpi.runtime.sends_rndv": get("mpi.rndv_sends"),
            "mpi.runtime.sends_shm": get("mpi.shm_sends"),
            "mpi.regcache.hit_ratio": _ratio(reg_hit, reg_hit + reg_miss),
            "offload.api.basic_ops": basic_ops,
            "offload.api.group_calls": group_calls,
            "offload.api.ctrl_msgs_per_op": _ratio(ctrl_msgs, offload_ops),
            "offload.api.req_latency_p50_us": percentile_us(req, 50),
            "offload.api.req_latency_p99_us": percentile_us(req, 99),
            "offload.api.retries": (get("offload.retransmits")
                                    + get("offload.fallbacks")
                                    + get("offload.stale_reposts")),
            "offload.group_cache.hit_ratio": _ratio(cached, group_calls),
            "offload.gvmi_cache.hit_ratio": _ratio(gvmi_hit, gvmi_hit + gvmi_miss),
            "offload.proxy.wakeups": wakeups,
            "offload.proxy.drained_items": drained,
            "offload.proxy.items_per_wakeup": _ratio(drained, wakeups),
            "offload.proxy.group_replays": get("proxy.group_replays"),
            "offload.proxy.reduces": get("proxy.reduces"),
            "baselines.time_in_comm_pct": pct(self.comm, self.comm_span),
            "obs.bus_events": self.extra.get("obs.bus_events"),
            "obs.trace_events": self.extra.get("obs.trace_events"),
        }


def traced_metrics(tracer, traced_run_s: float, untraced_run_s: float) -> dict:
    spans = tracer.span_totals()

    def total(*names):
        return sum(spans[n]["total_s"] for n in names if n in spans)

    def calls(*names):
        return sum(spans[n]["calls"] for n in names if n in spans)

    post = ("hw.fabric.transfer", "hw.fabric.control")
    solve = ("sim.flows.fair_shares", "sim.flows.fair_shares_links")
    out = {
        "hw.cluster.build_s": total("hw.cluster.build"),
        "offload.api.build_s": total("offload.api.build") or None,
        "mpi.world.build_s": total("mpi.world.build") or None,
        "sim.core.run_s": spans["sim.core.run"]["self_s"],
        "hw.fabric.post_s": total(*post),
        "hw.fabric.post_calls": calls(*post),
        "sim.flows.solve_s": total(*solve) or None,
        "sim.flows.solve_calls": calls(*solve),
        "sim.flows.solve_us_per_call": (
            None if not calls(*solve) else 1e6 * total(*solve) / calls(*solve)),
        "obs.check_s": total("obs.check") or None,
        "obs.export_s": total("obs.export") or None,
        "trace_overhead_pct": 100.0 * (traced_run_s / untraced_run_s - 1.0),
    }
    for stage, (sim_s, n) in tracer.sim_stage.items():
        out[f"offload.api.{stage}.sim_us"] = 1e6 * sim_s / n if n else None
    for layer, seconds in tracer.self_time_s().items():
        out[f"{layer}.self_s"] = seconds
    return out
