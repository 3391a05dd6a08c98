"""Grep-style lint: each communication pattern is spelled once.

``repro/mpi/schedules.py`` owns the ring / tree / rotation arithmetic
on ranks.  The files that each used to carry their own copy -- the host
collectives, the Group builders, the offloading backends, HPL's ring
and the two experiments that recorded an alltoall by hand -- bind a
schedule to addresses and tags and must not grow rank arithmetic back:
no ``% p`` neighbour expression, no ``bit_length``, no ``1 << k`` peer
selection, no ``range(1, p)`` distance loop.  Application topology
(``apps/stencil3d.py``'s grid neighbours, HPL's ``% grid_q`` panel
owner) is out of scope.
"""

from __future__ import annotations

import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
HOME = "mpi/schedules.py"
FORMER_OWNERS = [
    "mpi/collectives.py",
    "offload/collectives.py",
    "offload/backend.py",
    "offload/shmem.py",
    *sorted(f"baselines/{p.name}" for p in (SRC / "baselines").glob("*.py")),
    "apps/hpl.py",
    "experiments/fig15_group_vs_simple.py",
    "experiments/ablations.py",
]

RANK_ARITHMETIC = re.compile(
    r"\) % [pP]\b"            # (me + 1) % p; HPL's block-cyclic k % P is spared
    r"|\bbit_length\b"        # tree levels
    r"|\b1 << [A-Za-z_]"      # me + (1 << k), me ^ (1 << k); 1 << 20 is a constant
    r"|\brange \( 1 , [pP] \)"  # for dist in range(1, p)
)


def _offenders(text: str, name: str) -> list[str]:
    """Lines of ``text`` whose *code* (comments and docstrings dropped,
    tokens joined by one space) does rank arithmetic."""
    lines: dict[int, list[str]] = {}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.STRING, tokenize.COMMENT):
            lines.setdefault(tok.start[0], []).append(tok.string)
    source = text.splitlines()
    return [f"{name}:{n}: {source[n - 1].strip()}"
            for n, toks in sorted(lines.items())
            if RANK_ARITHMETIC.search(" ".join(toks))]


def test_former_owners_hold_no_rank_arithmetic():
    offenders = []
    for name in FORMER_OWNERS:
        offenders += _offenders((SRC / name).read_text(), name)
    assert not offenders, (
        "ring / tree / rotation arithmetic outside repro/mpi/schedules.py "
        "(add or reuse a schedule there):\n" + "\n".join(offenders))


def test_the_distance_loop_lives_only_in_the_schedule_module():
    hits = [path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))
            if re.search(r"range\(1, [pP]\)", path.read_text())]
    assert hits == [HOME]


def test_lint_pattern_catches_copies_and_spares_translation():
    # The loop baselines/bluesmpi.py carried before the schedules moved.
    old = ("for dist in range(1, p):\n"
           "    dst = (me + dist) % p\n"
           "    src = (me - dist) % p\n"
           "    ep.group_send(greq, a + dst * block, block,\n"
           "                  dst=comm.world_rank(dst), tag=17)\n")
    assert len(_offenders(old, "x")) == 3
    assert _offenders("partner = me ^ (1 << k)\n", "x")
    assert _offenders("rounds = (p - 1).bit_length()\n", "x")
    assert not _offenders("dst_world = comm.world_rank(dst)\n", "x")
    assert not _offenders("COLL_TAG_BASE = 1 << 20\n", "x")
    assert not _offenders("my_q = be.rank % grid_q\n", "x")
    assert not _offenders("owner = k % P\n", "x")
    assert not _offenders('"""block (me - r) % p moves right"""\n', "x")
    assert not _offenders("x = 1  # was (me + 1) % p\n", "x")
