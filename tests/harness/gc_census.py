"""Garbage census: what a job leaves for the cyclic collector.

The sweep drivers (``experiments.parallel._call_point``, the repo
benchmark) pause the collector for a whole sweep point, so a job's
memory comes back only if reference counting frees it.  :func:`census` measures how far
that is true: pause the collector, run ``job()``, then let one
``gc.collect()`` under ``DEBUG_SAVEALL`` *save* instead of free what it
finds unreachable, and histogram that by type name.  An object shows up
because it sits on a reference cycle or hangs off one.

Two questions, told apart by what ``job`` returns:

* ``job`` returns ``None`` -- it dropped everything it built, so the
  census is what a *finished* job leaves behind;
* ``job`` returns the objects it built (see :func:`unclosed_stacks`) --
  they are held until the collection is over, so the census is only
  what died *during* the run: per-message garbage.

``python -m tests.harness.gc_census [flavor nodes ppn iters]`` prints
one alltoall point's histogram without and with the stack's end of life
(the table in docs/PERFORMANCE.md, "Memory lifetime").
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager

from repro.baselines.base import BackendStack

__all__ = ["census", "collector_paused", "live_objects", "unclosed_stacks"]


@contextmanager
def collector_paused():
    """A clean slate, then no cyclic collection until the block ends."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def census(job) -> Counter:
    """Type-name histogram of what ``job()`` leaves unreachable."""
    with collector_paused():
        kept = job()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            hist = Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    del kept
    gc.collect()
    return hist


def live_objects() -> int:
    """Container objects the collector tracks right now."""
    return len(gc.get_objects())


@contextmanager
def unclosed_stacks():
    """Disable ``BackendStack.close`` and collect every stack built in
    the block -- the ``apps.*`` entry points build theirs internally."""
    stacks: list[BackendStack] = []
    init, close = BackendStack.__init__, BackendStack.close

    def remember(self, *args, **kwargs):
        stacks.append(self)
        init(self, *args, **kwargs)

    BackendStack.__init__, BackendStack.close = remember, lambda self: None
    try:
        yield stacks
    finally:
        BackendStack.__init__, BackendStack.close = init, close


def main(argv: list[str]) -> int:
    from repro.apps.omb import ialltoall_overlap
    from repro.hw import ClusterSpec

    flavor = argv[0] if argv else "bluesmpi"
    nodes, ppn, iters = (int(a) for a in argv[1:4]) if len(argv) >= 4 else (8, 4, 3)
    spec = ClusterSpec(nodes=nodes, ppn=ppn, proxies_per_dpu=ppn, fluid=False)

    def job():
        ialltoall_overlap(flavor, spec, 16384, iters=iters, warmup=2,
                          test_chunk=None)

    def job_unclosed():
        with unclosed_stacks():
            job()

    job()  # imports, first-call caches
    for label, fn in (("dropped without end of life", job_unclosed),
                      ("dropped after end of life", job)):
        hist = census(fn)
        print(f"{flavor} alltoall {nodes}x{ppn}, iters={iters}, {label}: "
              f"{sum(hist.values())} unreachable")
        for name, count in hist.most_common(8):
            print(f"  {count:8d} {name}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
