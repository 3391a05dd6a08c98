"""Chrome ``trace_event`` export: Perfetto-schema validation on real runs.

The acceptance scenario: a fixed-seed fig15-style run (Group vs Simple
scatter-destination exchange) must emit a JSON document the Chrome
trace_event object format (what ui.perfetto.dev ingests) accepts --
structurally validated here: known phase codes, metadata records,
microsecond timestamps, balanced async begin/end pairs, every event on
a declared track.
"""

import hashlib
import json
from collections.abc import Sequence

import pytest

from tests.test_golden_traces import counter_renamer
from repro.experiments.fig15_group_vs_simple import _scatter_dest
from repro.obs import observe_cluster

#: Phases of the trace_event object format this exporter may produce.
_ALLOWED_PH = {"M", "X", "b", "e", "i"}
_METADATA_NAMES = {"process_name", "thread_name", "thread_sort_index"}

#: sha256 of ``json.dumps(_canonical(doc), sort_keys=True)`` for the
#: fixture below: the document may not move by a byte.  Recorded at
#: af30eb6 as a94bc82e...f780bbe; re-recorded once when arrows
#: became the ``xfer.post``/``xfer.deliver`` rows of their ``xid``.  An
#: arrow now ends at its deliver row's picosecond-rounded time, so the
#: ``"e"`` rows of arrows 752-754 moved from ts 282.4664 to 282.4663 (the
#: ts of their ``xfer.deliver`` instants) and ahead of those instants.
#: (In a fresh interpreter the un-renamed document hashes to
#: 530077c1...f034fe70.)
FIG15_GROUP_4K_SHA256 = \
    "1d182b4b862bf53723b22af3df7f58809b9b1a6be11f9a4663d7002cf06fe1f5"


def _canonical(doc: dict) -> dict:
    """``doc`` with request/plan ids renamed to first-appearance indices.

    Those args come from module-global counters, so their values depend
    on what ran earlier in the process (see ``test_golden_traces``); row
    order never depends on args, so the renaming is deterministic.
    """
    norm = counter_renamer()
    rows = []
    for row in doc["traceEvents"]:
        if "args" in row:
            row = {**row, "args": {k: norm(k, v) for k, v in row["args"].items()}}
        rows.append(row)
    return {**doc, "traceEvents": rows}


@pytest.fixture(scope="module")
def fig15_obs():
    """One instrumented fixed-seed fig15 cell (group variant, 4KiB)."""
    holder = {}
    _scatter_dest("quick", 4096, "group",
                  instrument=lambda cl: holder.setdefault(
                      "obs", observe_cluster(cl)))
    return holder["obs"]


@pytest.fixture(scope="module")
def trace(fig15_obs):
    return fig15_obs.chrome_trace()


class TestTraceEventSchema:
    def test_toplevel_object_format(self, trace):
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert isinstance(trace["traceEvents"], Sequence)
        assert trace["displayTimeUnit"] in ("ms", "ns")
        assert trace["otherData"]["schema"] == "repro.obs/1"
        assert len(trace["traceEvents"]) > 100  # a real run, not a stub

    def test_every_event_is_well_formed(self, trace):
        for ev in trace["traceEvents"]:
            assert ev["ph"] in _ALLOWED_PH, ev
            assert isinstance(ev["name"], str) and ev["name"]
            assert ev["pid"] == 0
            assert isinstance(ev["tid"], int)
            if ev["ph"] == "M":
                assert ev["name"] in _METADATA_NAMES
                assert "args" in ev
            else:
                assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
            if ev["ph"] == "i":
                assert ev["s"] in ("t", "p", "g")

    def test_all_tracks_are_declared(self, trace):
        named = {ev["tid"] for ev in trace["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "thread_name"}
        used = {ev["tid"] for ev in trace["traceEvents"] if ev["ph"] != "M"}
        assert used <= named

    def test_lane_order_hosts_then_dpus_then_nodes(self, trace):
        names = {}
        for ev in trace["traceEvents"]:
            if ev["ph"] == "M" and ev["name"] == "thread_name":
                names[ev["tid"]] = ev["args"]["name"]
        ordered = [names[t] for t in sorted(names)]
        kinds = [n.rstrip("0123456789") for n in ordered]
        # hosts strictly before dpus, dpus before per-node fabric lanes
        assert kinds.index("dpu") > kinds.index("host")
        assert kinds.index("node") > kinds.index("dpu")

    def test_async_pairs_balance(self, trace):
        open_count: dict = {}
        for ev in trace["traceEvents"]:
            if ev["ph"] == "b":
                open_count[(ev["cat"], ev["id"])] = \
                    open_count.get((ev["cat"], ev["id"]), 0) + 1
            elif ev["ph"] == "e":
                key = (ev["cat"], ev["id"])
                assert open_count.get(key, 0) > 0, f"e before b for {key}"
                open_count[key] -= 1
        assert all(v == 0 for v in open_count.values())

    def test_instants_carry_taxonomy_names(self, trace):
        instant_names = {ev["name"] for ev in trace["traceEvents"]
                         if ev["ph"] == "i"}
        for expected in ("group.call", "group.offloaded", "group.done",
                         "reg.mkey2", "ctrl.post", "wqe.post"):
            assert expected in instant_names

    def test_document_is_byte_identical_to_the_pinned_export(self, trace):
        assert len(trace["traceEvents"]) == 17627
        blob = json.dumps(_canonical(trace), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == FIG15_GROUP_4K_SHA256

    def test_file_roundtrip(self, fig15_obs, tmp_path):
        path = tmp_path / "fig15.trace.json"
        doc = fig15_obs.write_chrome_trace(path)
        assert json.loads(path.read_text()) == doc


class TestFig15Smoke:
    def test_checks_pass_and_the_written_trace_reloads(self, fig15_obs, tmp_path):
        """The fig15 smoke run: every trace invariant holds (the
        ``xfer`` arrows ``land()`` emits among them), and the trace
        written to disk reloads with as many rows as were exported."""
        fig15_obs.check()
        path = tmp_path / "fig15.trace.json"
        doc = fig15_obs.write_chrome_trace(path)
        with open(path) as f:
            assert len(json.load(f)["traceEvents"]) == len(doc["traceEvents"])


class TestTimeline:
    def test_timeline_replaces_render_ascii(self, fig15_obs):
        text = fig15_obs.timeline(width=60)
        lines = text.splitlines()
        assert lines[0].startswith("window ")
        assert any(line.startswith("host0 ") and "busy" in line
                   for line in lines)
        assert any(line.startswith("dpu0") for line in lines)
        assert any("v" in line for line in lines)  # delivery marks
        assert all("%" in line for line in lines if "busy" in line)
