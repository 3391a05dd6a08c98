"""Everything the benchmark hangs on the simulator from outside.

The simulator is not edited: the benchmark replaces public entry points
with wrappers for the life of one child interpreter.  Two levels:

* ``Hooks.install()`` -- always on, three hooks that each fire once
  per point: time ``Simulator.run`` as the run phase, and remember the
  ``Cluster`` / ``BackendStack`` a point builds so its public counters
  can be read afterwards (the ``apps.*`` entry points build them
  internally and do not hand them back).
* ``Tracer`` -- the traced pass only: host-clock spans around the layer
  entry points, simulated-clock stage costs from transparent
  ``yield from`` wrappers on ``OffloadEndpoint``, and a ``SIGPROF``
  sampler that buckets samples by the innermost frame under
  ``src/repro/`` (in a DES the layers are entered by kernel callbacks,
  not by the caller, so spans alone cannot attribute the run phase).
"""

from __future__ import annotations

import json
import signal
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, process_time

import repro
import repro.obs
import repro.sim.flows as flows_mod
from repro.baselines.base import BackendStack
from repro.hw import Cluster, Fabric
from repro.mpi import MpiWorld
from repro.offload import OffloadFramework
from repro.offload.api import OffloadEndpoint
from repro.sim import Simulator

SRC_ROOT = str(Path(repro.__file__).resolve().parent) + "/"

#: Requested period of the self-time sampler, seconds of process CPU
#: time.  The kernel rounds it up to its tick, so self time is reported
#: as a layer's share of the samples times the CPU time that passed
#: while sampling, never as samples times this constant.
SAMPLE_PERIOD_S = 0.002

#: Layers the sampler reports by name; every other module is ``other``.
#: A name with one part is a whole package.
SELF_TIME_LAYERS = (
    "sim.core", "sim.process", "sim.resources", "sim.flows",
    "hw.fabric", "hw.nic", "hw.node", "hw.memory", "hw.metrics", "hw.topology",
    "verbs",
    "mpi.runtime", "mpi.collectives", "mpi.regcache", "mpi.matching",
    "offload.api", "offload.proxy", "offload.group_exec",
    "offload.group_cache", "offload.gvmi_cache", "offload.shmem",
    "baselines", "apps", "obs", "experiments",
)

#: ``OffloadEndpoint`` generator methods whose simulated duration is a
#: stage cost of the offload API.
SIM_STAGES = ("send_offload", "waitall", "group_call", "group_wait")

#: At most this many spans per (point, name) are written to the trace
#: file; totals in the ledger always cover every span.
MAX_SPANS_IN_FILE = 500


def layer_of(filename: str) -> str | None:
    """Module path under ``src/repro`` for a code object's file, or None."""
    if not filename.startswith(SRC_ROOT):
        return None
    return filename[len(SRC_ROOT):-3].replace("/", ".")


def self_time_layer(module: str | None) -> str:
    if module is None:
        return "other"
    if module in SELF_TIME_LAYERS:
        return module
    package = module.split(".", 1)[0]
    if package in SELF_TIME_LAYERS:
        return package
    # The span tracer observe_cluster attaches lives in hw/ but only
    # runs when a cluster is observed.
    if module == "hw.trace":
        return "obs"
    return "other"


class _Patches:
    def __init__(self):
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        orig = owner.__dict__[attr]
        setattr(owner, attr, make_wrapper(orig))
        self._saved.append((owner, attr, orig))

    def undo(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class Hooks:
    """Run-phase clock and object capture; see the module docstring."""

    def __init__(self):
        self._patches = _Patches()
        self._depth = 0
        self.run_s = 0.0
        self.clusters: list = []
        self.stacks: list = []
        self.counts: dict[str, float] = {}

    def begin_point(self) -> None:
        self.run_s = 0.0
        self.clusters, self.stacks = [], []
        self.counts = {}

    @contextmanager
    def run_phase(self):
        """Time the enclosed block as run phase (re-entrant: the hooked
        ``Simulator.run`` inside an explicit phase adds nothing)."""
        self._depth += 1
        t0 = perf_counter()
        try:
            yield
        finally:
            self._depth -= 1
            if self._depth == 0:
                self.run_s += perf_counter() - t0

    def count(self, name: str, value: float) -> None:
        """A layer count only the point function can see."""
        self.counts[name] = self.counts.get(name, 0) + value

    def install(self) -> None:
        hooks = self

        def timed_run(orig):
            def run(sim, until=None):
                with hooks.run_phase():
                    return orig(sim, until)
            return run

        def remember(into_name):
            def make(orig):
                def init(obj, *args, **kwargs):
                    getattr(hooks, into_name).append(obj)
                    orig(obj, *args, **kwargs)
                return init
            return make

        self._patches.wrap(Simulator, "run", timed_run)
        self._patches.wrap(Cluster, "__init__", remember("clusters"))
        self._patches.wrap(BackendStack, "__init__", remember("stacks"))

    def uninstall(self) -> None:
        self._patches.undo()


class Tracer:
    """Spans, simulated stage costs and the self-time sampler."""

    #: name of the span -> (owner, attribute) it wraps
    ENTRY_POINTS = {
        "hw.cluster.build": (Cluster, "__init__"),
        "offload.api.build": (OffloadFramework, "__init__"),
        "mpi.world.build": (MpiWorld, "__init__"),
        "sim.core.run": (Simulator, "run"),
        "hw.fabric.transfer": (Fabric, "transfer"),
        "hw.fabric.control": (Fabric, "control"),
        "sim.flows.fair_shares": (flows_mod, "fair_shares"),
        "sim.flows.fair_shares_links": (flows_mod, "fair_shares_links"),
        "obs.observe_cluster": (repro.obs, "observe_cluster"),
        "obs.check": (repro.obs.Observability, "check"),
        "obs.export": (repro.obs.Observability, "chrome_trace"),
    }

    def __init__(self):
        self._patches = _Patches()
        #: [name, start, end, parent span or None, point index]
        self.spans: list[list] = []
        self._cur: list | None = None
        self.point = -1
        #: stage -> [simulated seconds, calls]
        self.sim_stage = {name: [0.0, 0] for name in SIM_STAGES}
        #: module path under src/repro (or None) -> samples
        self.samples: dict[str | None, int] = {}
        #: Process CPU seconds that passed while the sampler was armed.
        self.sampled_cpu_s = 0.0
        self._file_module: dict[str, str | None] = {}

    # -- spans -------------------------------------------------------------
    def wrap(self, name: str, fn):
        """``fn`` recording one span per call (flat and closure-bound: the
        fabric entry points are called a third of a million times a pass)."""
        tracer = self
        spans = self.spans

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, tracer._cur, tracer.point]
            spans.append(rec)
            saved, tracer._cur = tracer._cur, rec
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._cur = saved
        return wrapper

    def _stage_wrapper(self, name: str):
        acc = self.sim_stage[name]

        def make(orig):
            # A generator that only delegates: it yields nothing of its
            # own, so the simulation sees exactly the events it saw
            # without it.
            def stage(ep, *args, **kwargs):
                t0 = ep.sim.now
                result = yield from orig(ep, *args, **kwargs)
                acc[0] += ep.sim.now - t0
                acc[1] += 1
                return result
            return stage
        return make

    # -- sampler -----------------------------------------------------------
    def _on_sample(self, _signum, frame) -> None:
        file_module = self._file_module
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                module = file_module[filename]
            except KeyError:
                module = file_module[filename] = layer_of(filename)
            if module is not None:
                break
            frame = frame.f_back
        else:
            module = None
        self.samples[module] = self.samples.get(module, 0) + 1

    # -- life cycle --------------------------------------------------------
    def install(self) -> None:
        """Install after ``Hooks.install`` so spans sit outside its hooks."""
        for name, (owner, attr) in self.ENTRY_POINTS.items():
            self._patches.wrap(owner, attr, lambda orig, name=name: self.wrap(name, orig))
        for name in SIM_STAGES:
            self._patches.wrap(OffloadEndpoint, name, self._stage_wrapper(name))
        signal.signal(signal.SIGPROF, self._on_sample)
        self.sampled_cpu_s = -process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        self.sampled_cpu_s += process_time()
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._patches.undo()

    # -- results -----------------------------------------------------------
    def span_totals(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds (total minus
        the part covered by direct children)."""
        child_s: dict[int, float] = {}
        for rec in self.spans:
            parent = rec[3]
            if parent is not None:
                child_s[id(parent)] = child_s.get(id(parent), 0.0) + rec[2] - rec[1]
        totals: dict[str, dict] = {}
        for rec in self.spans:
            t = totals.setdefault(rec[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = rec[2] - rec[1]
            t["calls"] += 1
            t["total_s"] += dur
            t["self_s"] += dur - child_s.get(id(rec), 0.0)
        return totals

    def seconds_per_sample(self) -> float:
        return self.sampled_cpu_s / max(1, sum(self.samples.values()))

    def self_time_s(self) -> dict[str, float]:
        """Sampled self seconds per named layer plus ``other``."""
        per_sample = self.seconds_per_sample()
        out = {layer: 0.0 for layer in (*SELF_TIME_LAYERS, "other")}
        for module, n in self.samples.items():
            out[self_time_layer(module)] += n * per_sample
        return out

    def self_time_by_module(self) -> dict[str, float]:
        """The same seconds by full module path, largest first (shows what
        ``other`` and the whole-package layers are made of)."""
        per_sample = self.seconds_per_sample()
        return {(m or "<outside src/repro>"): n * per_sample
                for m, n in sorted(self.samples.items(), key=lambda kv: -kv[1])}

    def write_chrome_trace(self, path: Path, point_ids: list[str],
                           stamp: dict) -> None:
        """Chrome ``trace_event`` object format (opens in Perfetto).  One
        track per point; ``args.parent`` is the index of the causing span
        in ``traceEvents`` (-1 for a point's root)."""
        if not self.spans:
            raise ValueError("no spans recorded")
        origin = self.spans[0][1]
        kept: dict[tuple, int] = {}
        index_of: dict[int, int] = {}
        events = []
        dropped = 0
        for rec in self.spans:
            name, start, end, parent, point = rec
            key = (point, name)
            kept[key] = kept.get(key, 0) + 1
            if kept[key] > MAX_SPANS_IN_FILE:
                dropped += 1
                continue
            index_of[id(rec)] = len(events)
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": point + 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {
                    "point": point_ids[point] if point >= 0 else None,
                    "parent": index_of.get(id(parent), -1),
                },
            })
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {
                **stamp,
                "spans_recorded": len(self.spans),
                "spans_dropped_from_file": dropped,
                "max_spans_per_point_and_name": MAX_SPANS_IN_FILE,
                "span_totals": self.span_totals(),
                "sampler_seconds_per_sample": self.seconds_per_sample(),
                "self_time_by_module_s": self.self_time_by_module(),
            },
        }
        path.write_text(json.dumps(doc))
