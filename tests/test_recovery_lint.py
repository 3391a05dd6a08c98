"""Grep-style lint: the recovery policy has one home.

``RetryPolicy`` (repro.hw.faults) holds the recovery constants.  Its
fields may be read only by the layer that implements recovery --
``repro/offload/recovery.py`` -- and by the fabric's own flow-level
retransmit (``hw/fabric.py``, ``hw/faults.py``).  A read anywhere else
means recovery logic is growing back into the protocol files, which
ISSUE 17 took it out of.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

from repro.hw import RetryPolicy

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
HOMES = {"offload/recovery.py", "hw/faults.py", "hw/fabric.py"}

#: ``<expr>.<field>`` not followed by a call: ``sim.timeout(...)`` (or a
#: docstring's :meth:`Simulator.timeout`) is the kernel's method, and
#: ``args.timeout`` an argparse namespace.
FIELD_READ = re.compile(
    r"(?<!\bargs)\.(%s)\b(?!\s*\(|`)" % "|".join(f.name for f in fields(RetryPolicy)))


def _offenders(text: str, name: str) -> list[str]:
    return [f"{name}:{n}: {line.strip()}"
            for n, line in enumerate(text.splitlines(), start=1)
            if FIELD_READ.search(line.split("#", 1)[0])]


def test_retry_policy_fields_are_read_only_by_the_recovery_layer():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if name not in HOMES:
            offenders += _offenders(path.read_text(), name)
    assert not offenders, (
        "RetryPolicy fields read outside repro/offload/recovery.py (move the "
        "logic into the recovery layer):\n" + "\n".join(offenders))


def test_lint_pattern_catches_reads_and_spares_calls():
    assert _offenders("t = self.retry.timeout\n", "x") == ["x:1: t = self.retry.timeout"]
    assert _offenders("if n > pol.rdma_retry_limit:\n", "x")
    assert _offenders("d = min(d * retry.backoff, retry.max_timeout)\n", "x")
    assert not _offenders("yield self.sim.timeout(delay)\n", "x")
    assert not _offenders("point_timeout=args.timeout,\n", "x")
    assert not _offenders("t = pol.next_timeout(t)  # was .backoff\n", "x")
