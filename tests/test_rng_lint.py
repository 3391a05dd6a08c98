"""Grep-style lint: experiment randomness must flow through spawn-keys.

The parallel sweep engine's determinism contract requires every seed
under ``src/repro/experiments/`` to derive from the parent RNG spec via
:mod:`repro.sim.rng` (``RngRegistry`` named streams / ``spawn_seed``
per-point keys) -- never from process-global RNG state, object
identity, or wall clock, all of which silently vary with job count and
completion order.  This test fails the build on new offenders with a
pointer at the exact line.
"""

from __future__ import annotations

import re
from pathlib import Path

EXPERIMENTS_DIR = (
    Path(__file__).resolve().parent.parent / "src" / "repro" / "experiments"
)

#: (pattern, why it is banned under src/repro/experiments/)
FORBIDDEN = [
    (re.compile(r"^\s*(import random\b|from random import)"),
     "stdlib `random` is process-global state; use repro.sim.rng streams"),
    (re.compile(r"\brandom\.(seed|Random)\s*\("),
     "stdlib `random` seeding; use RngRegistry / spawn_seed"),
    (re.compile(r"\b(np|numpy)\.random\.seed\s*\("),
     "legacy numpy global seeding; use RngRegistry named streams"),
    (re.compile(r"\b(np|numpy)\.random\.RandomState\s*\("),
     "legacy numpy RandomState; use RngRegistry named streams"),
    (re.compile(r"\bdefault_rng\s*\(\s*\)"),
     "unseeded default_rng() draws from the OS; derive a spawn-key seed"),
    (re.compile(r"seed\s*=\s*id\s*\("),
     "id() varies per process; derive the seed with spawn_seed(...)"),
    (re.compile(r"(seed\s*=\s*time\.|seed\s*\(\s*time\.)"),
     "wall-clock seeding breaks serial == parallel; use spawn_seed(...)"),
]


def test_no_global_state_seeding_in_experiments():
    assert EXPERIMENTS_DIR.is_dir(), EXPERIMENTS_DIR
    offenders = []
    for path in sorted(EXPERIMENTS_DIR.rglob("*.py")):
        for lineno, line in enumerate(
                path.read_text().splitlines(), start=1):
            if "rng-lint: allow" in line:
                continue
            for pattern, why in FORBIDDEN:
                if pattern.search(line):
                    offenders.append(
                        f"{path.relative_to(EXPERIMENTS_DIR.parent.parent)}"
                        f":{lineno}: {line.strip()}\n    -> {why}")
    assert not offenders, (
        "global-state/wall-clock seeding found under src/repro/experiments/ "
        "(route it through repro.sim.rng spawn-keys instead):\n"
        + "\n".join(offenders)
    )


def test_lint_patterns_catch_known_offenders():
    """The lint must actually fire on the idioms it bans."""
    bad_lines = [
        "import random",
        "from random import Random",
        "r = random.Random(id(self))",
        "random.seed(42)",
        "np.random.seed(0)",
        "numpy.random.RandomState(7)",
        "gen = default_rng()",
        "jitter = make(seed=id(cluster))",
        "rng.seed(time.time())",
        "stream = build(seed=time.time_ns())",
    ]
    for line in bad_lines:
        assert any(p.search(line) for p, _ in FORBIDDEN), (
            f"lint misses known-bad idiom: {line!r}")
    good_lines = [
        "gen = registry.stream('compute-jitter')",
        "seed = spawn_seed(root, label, index)",
        "gen = np.random.default_rng(spawn_seed(root, 'faults', i))",
        "child = RngRegistry(spawn_seed(root, 'sweep', index))",
    ]
    for line in good_lines:
        assert not any(p.search(line) for p, _ in FORBIDDEN), (
            f"lint false-positives on sanctioned idiom: {line!r}")
