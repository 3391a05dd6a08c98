"""Seeded 64-rank incast soak: byte-identical across interpreters.

A deterministic 8:1 incast pinned to its fair-share closed form, then
12 waves of randomized incasts over an 8-leaf / 4-spine fat-tree, run
straight on the :class:`~repro.sim.FlowEngine`.  Two separate
interpreter invocations of the same seeded program must print
byte-identical drain reports: nothing in the per-link fabric (ECMP
choice, max-min water-filling, finish order) may depend on hash seeds,
object addresses or anything else a fresh process changes.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

SOAK = r'''
import json

import numpy as np

from repro.hw import ClusterSpec, FatTreeTopology
from repro.sim import FlowEngine, Simulator

RANKS, SEED, WAVES = 64, 2019, 12
spec = ClusterSpec(nodes=RANKS, ppn=1, nodes_per_switch=8,
                   spine_count=4, seed=SEED)
topo = FatTreeTopology(spec)
sim = Simulator()
eng = FlowEngine(sim)
sim.attach_flow_engine(eng)

rng = np.random.default_rng(SEED)
drains = {}


def fin(flow, now):
    drains[flow.tag] = now


# Wave 0: deterministic 8:1 incast, fair-share closed form.
tag = 0
work0 = 2e-4
for src in range(1, 9):
    eng.add_flow(path=topo.path(src, 0), work=work0, finish=fin, tag=tag)
    tag += 1
sim.run()
for t in range(8):
    assert abs(drains[t] - 8 * work0) <= 1e-9 * 8 * work0, \
        f"incast flow {t} drained at {drains[t]!r}, not 8*work"

for wave in range(WAVES):
    dst = int(rng.integers(0, RANKS))
    pool = np.array([n for n in range(RANKS) if n != dst])
    senders = rng.choice(pool, size=int(rng.integers(8, 17)), replace=False)
    for src in senders:
        work = float(rng.uniform(1e-5, 4e-4))
        eng.add_flow(path=topo.path(int(src), dst), work=work, finish=fin,
                     tag=tag)
        tag += 1
    sim.run()

print(json.dumps({
    "schema": "repro.topo-soak/1",
    "ranks": RANKS, "seed": SEED, "waves": WAVES, "flows": tag,
    "sim_end": repr(sim.now),
    "drains": {str(k): repr(v) for k, v in sorted(drains.items())},
}, indent=2, sort_keys=True))
'''


def _soak() -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", SOAK], env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_seeded_incast_soak_is_byte_identical_across_interpreters():
    first, second = _soak(), _soak()
    assert b'"flows": ' in first
    assert first == second
