"""Work per op on the four exact regimes, pinned as a budget that can only shrink.

Wall time on a shared machine drifts by more than most optimisations
gain, so this suite counts work instead of timing it.  Four down-scaled
points, built from the figure and application functions under
``src/repro``, cover the regimes the exact engine runs:

* ``a2a`` -- a fig13 dense Ialltoall (Proposed, 4 nodes, 16 KiB);
* ``hpl`` -- hpl's IntelMPI-Ibcast look-ahead (host MPI over shm);
* ``allreduce`` -- a 64-rank offloaded Iallreduce (fig18's point);
* ``scatter`` -- fig15's group scatter with an event bus attached.

For each point two counts are pinned, per op (one op is one message a
runtime sends: a NIC post or a host-MPI shared-memory send):

* events the kernel processed;
* Python function calls, counted by a ``sys.setprofile`` hook that
  keeps only ``call`` events of code under ``src/repro`` (a generator
  resume is a call).  List, dict and set comprehensions are left out:
  CPython 3.12 inlines them, so counting them would make the count
  depend on the interpreter's minor version.

Each ceiling sits within 0.5 % above the count it was set from, so a
change that adds work on a hot path fails here on any machine, and a
change that removes work must lower the ceiling it freed (the test says
to what).  ``python -m tests.test_work_budget [point ...]`` prints the
counts and the calls per module, the deterministic twin of the bench's
self-time ledger.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import Counter
from functools import lru_cache

import pytest

import repro
from repro.apps.hpl import hpl_run, n_for_memory_fraction
from repro.apps.omb import ialltoall_overlap
from repro.experiments.appruns import hpl_spec, ialltoall_spec
from repro.experiments.fig15_group_vs_simple import _scatter_dest
from repro.experiments.fig18_collective_scaling import _latency_point
from repro.hw.cluster import Cluster
from repro.obs import observe_cluster

SRC = os.path.dirname(repro.__file__) + os.sep
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def _a2a():
    ialltoall_overlap("proposed", ialltoall_spec("quick", 4), 16384,
                      iters=1, warmup=1, test_chunk=None)


def _hpl():
    spec = hpl_spec("quick")
    hpl_run("intelmpi", spec,
            n=n_for_memory_fraction(0.05, 256e9 * 2.0e-3, spec.nodes),
            nb=128, bcast="ibcast", tests_per_update=3, grid=(4, 16),
            max_steps=4)


def _allreduce():
    _latency_point("paper", 64, 2048, "offload")


def _scatter():
    held = []
    _scatter_dest("quick", 4096, "group", iters=1, warmup=1,
                  instrument=lambda cl: held.append(observe_cluster(cl)))
    held[0].check()


POINTS = {"a2a": _a2a, "hpl": _hpl, "allreduce": _allreduce,
          "scatter": _scatter}

#: point -> (ops, events per op, calls per op): the op count exactly,
#: the two per-op ceilings within 0.5 % above the counts they were set
#: from.
BUDGET = {
    "a2a": (2544, 10.87, 65.79),
    "hpl": (4080, 8.37, 85.86),
    "allreduce": (3072, 11.58, 64.44),
    "scatter": (1264, 11.07, 85.16),
}
#: A count this far under its ceiling means the ceiling is stale.
SLACK = 0.99


def count_work(point) -> tuple[int, int, Counter]:
    """Run ``point()`` under the call counter.

    Returns ``(ops, events, calls per module)``, ``ops`` and ``events``
    summed over the clusters the point built.  A first, uncounted run
    does the lazy imports and fills the module-level caches
    (the 32 shared collective schedules), so the count does not depend
    on what ran before.  The collector is paused while counting: a
    generator it finalises is a call, wherever it came from.
    """
    point()
    clusters: list[Cluster] = []
    codes: Counter = Counter()
    build = Cluster.__init__

    def recording_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        clusters.append(self)

    def hook(frame, event, _arg):
        if event == "call":
            codes[frame.f_code] += 1

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    Cluster.__init__ = recording_init
    sys.setprofile(hook)
    try:
        point()
    finally:
        sys.setprofile(None)
        Cluster.__init__ = build
        if collecting:
            gc.enable()
    modules: Counter = Counter()
    for code, n in codes.items():
        path = code.co_filename
        if path.startswith(SRC) and code.co_name not in _INLINED:
            modules[path[len(SRC):-3].replace(os.sep, ".")] += n
    ops = events = 0
    for cl in clusters:
        get = cl.metrics.get
        ops += int(get("nic.host_posted_msgs") + get("nic.dpu_posted_msgs")
                   + get("mpi.shm_sends"))
        events += cl.sim.processed_events
    return ops, events, modules


@lru_cache(maxsize=None)
def _measured(name: str) -> tuple[int, int, int, tuple]:
    ops, events, modules = count_work(POINTS[name])
    return ops, events, sum(modules.values()), tuple(modules.most_common())


def _report(name: str, ops: int, events: int, calls: int, modules) -> str:
    lines = [f"{name}: {ops} ops, {events} events ({events / ops:.3f}/op), "
             f"{calls} calls ({calls / ops:.3f}/op)"]
    lines += [f"  {mod:<28} {n:>9} ({n / ops:.3f}/op)" for mod, n in modules]
    return "\n".join(lines)


@pytest.mark.parametrize("name", POINTS)
def test_work_per_op_stays_in_budget(name):
    ops, events, calls, modules = _measured(name)
    print(_report(name, ops, events, calls, modules))
    want_ops, max_events, max_calls = BUDGET[name]
    assert ops == want_ops, f"{name}: the point itself changed ({ops} ops)"
    for what, count, ceiling in (("events", events, max_events),
                                 ("calls", calls, max_calls)):
        per_op = count / ops
        assert per_op <= ceiling, (
            f"{name}: {per_op:.3f} {what} per op, over the {ceiling} ceiling")
        assert per_op >= SLACK * ceiling, (
            f"{name}: {per_op:.3f} {what} per op; lower the {ceiling} "
            f"ceiling to {per_op * 1.005:.2f}")


def test_counts_repeat():
    """The budget is only a meter if a second run counts the same."""
    for name, point in POINTS.items():
        first = _measured(name)
        ops, events, modules = count_work(point)
        assert (ops, events, sum(modules.values())) == first[:3], name


if __name__ == "__main__":  # pragma: no cover - a reporting aid
    for name in sys.argv[1:] or POINTS:
        ops, events, calls, modules = _measured(name)
        print(_report(name, ops, events, calls, modules))
