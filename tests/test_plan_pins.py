"""Group-plan pins, recorded on the tree where plan entries were dicts.

Plan entries became slotted records (``SendEntry``, and the recorded
``GroupOp`` itself for recv / reduce / barrier).  Every plan a proxy
stores must carry the same values as before, so this file was written
and green on the dict tree first (*pin first, then move*) and renders
the records back to that schema:

* send (gvmi):   kind addr size dst tag reg_addr reg_size mkey gvmi_id
  dst_addr rkey, plus ``mkey2`` once the proxy attached it;
* send (staged): kind addr size dst tag src_rkey dst_addr rkey;
* recv:          kind addr size src tag;
* reduce:        kind addr dst_addr size;
* barrier:       kind.

Plans are captured at ``DpuPlanCache.store`` (one row per full plan a
proxy receives, re-ships included) and rendered after the run, so the
mkey2 the executor attaches for cached invocations is part of the pin.
Plan IDs come from a process-global counter and are not pinned.  The
small worlds are pinned entry by entry, so a failure reads as a diff;
every case is pinned by counts and the sha256 of its rendering.

Regenerate after an *intentional* plan change with
``pytest tests/test_plan_pins.py --regen-golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from tests.helpers import run_procs
from repro.experiments.fig15_group_vs_simple import QUICK_BLOCKS, _scatter_dest
from repro.hw import Cluster, ClusterSpec
from repro.offload import OffloadFramework, build_iallreduce
from repro.offload.group_cache import DpuPlanCache, HostGroupCache
from repro.util import atomic_write
from repro.verbs import MemoryRegionHandle

PIN_FILE = Path(__file__).resolve().parent / "golden" / "plan_pins.json"


def _render(entry) -> dict:
    """One plan entry in the schema of the dict tree."""
    if entry.kind == "recv":
        return {"kind": "recv", "addr": entry.addr, "size": entry.size,
                "src": entry.peer, "tag": entry.tag}
    if entry.kind == "reduce":
        return {"kind": "reduce", "addr": entry.addr, "dst_addr": entry.addr2,
                "size": entry.size}
    if entry.kind == "barrier":
        return {"kind": "barrier"}
    op = entry.op
    out = {"kind": "send", "addr": op.addr, "size": op.size,
           "dst": op.peer, "tag": op.tag,
           "dst_addr": entry.dst_addr, "rkey": entry.rkey}
    reg = entry.reg
    if isinstance(reg, MemoryRegionHandle):  # staged
        out["src_rkey"] = reg.rkey
    else:
        out.update(reg_addr=reg.addr, reg_size=reg.size, mkey=reg.key,
                   gvmi_id=reg.gvmi_id)
    if entry.mkey2 is not None:
        out["mkey2"] = entry.mkey2.key
    return out


def _allreduce(p: int, ppn: int, proxies: int, mode: str = "gvmi",
               calls: int = 2) -> None:
    """``calls`` Iallreduces of 64 B on a p-rank world (the second call
    runs the cached plan with its mkey2s attached)."""
    cl = Cluster(ClusterSpec(nodes=p // ppn, ppn=ppn, proxies_per_dpu=proxies))
    fw = OffloadFramework(cl, mode=mode)

    def prog(rank):
        ep = fw.endpoint(rank)
        greq, _scratch = build_iallreduce(ep, ep.ctx.space.alloc(64), 64,
                                          comm_size=p)
        for _ in range(calls):
            yield from ep.group_call(greq)
            yield from ep.group_wait(greq)

    run_procs(cl, [prog(r) for r in range(p)])
    fw.assert_quiescent()


CASES = {
    "fig15.quick.group": lambda: _scatter_dest("quick", QUICK_BLOCKS[0], "group"),
    "iallreduce.rd.p4": lambda: _allreduce(4, ppn=2, proxies=1),
    "iallreduce.ring.p3": lambda: _allreduce(3, ppn=1, proxies=1),
    "iallreduce.staged.p2": lambda: _allreduce(2, ppn=1, proxies=1, mode="staged"),
}


#: Cases pinned entry by entry (the rest by count and sha256).
READABLE = ("iallreduce.rd.p4", "iallreduce.ring.p3", "iallreduce.staged.p2")


def _capture(monkeypatch, key) -> dict:
    stored, built = [], []
    store, insert = DpuPlanCache.store, HostGroupCache.insert

    def _store(self, plan_id, plan):
        stored.append((self.ctx.global_id, plan))
        store(self, plan_id, plan)

    def _insert(self, signature, entries, keep=True):
        built.append(self.ctx.global_id)
        return insert(self, signature, entries, keep=keep)

    monkeypatch.setattr(DpuPlanCache, "store", _store)
    monkeypatch.setattr(HostGroupCache, "insert", _insert)
    CASES[key]()
    plans = [[gid, plan.host_rank, [_render(e) for e in plan.entries]]
             for gid, plan in stored]
    text = json.dumps(plans, sort_keys=True)
    pin = {
        "builds": built,
        "entries": sum(len(entries) for _gid, _host, entries in plans),
        "mkey2s": sum("mkey2" in e for _gid, _host, entries in plans for e in entries),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    if key in READABLE:
        pin["stored"] = json.loads(text)
    return pin


def test_pin_file_covers_exactly_the_cases(regen_golden, monkeypatch):
    if regen_golden:
        pins = {}
        for key in CASES:
            with monkeypatch.context() as m:
                pins[key] = _capture(m, key)
        atomic_write(PIN_FILE, json.dumps(pins, indent=1, sort_keys=True) + "\n")
    assert sorted(json.loads(PIN_FILE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_plans_match_the_dict_tree(case, monkeypatch):
    pins = json.loads(PIN_FILE.read_text())
    assert _capture(monkeypatch, case) == pins[case]
