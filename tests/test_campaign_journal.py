"""Campaign journal: atomic writes, integrity checks, sweep_map wiring.

The journal's contract (docs/RESILIENCE.md): a record is either fully
present and verified, or treated as absent -- truncation, bit rot,
stale schemas and mislabeled files must all degrade to "recompute",
never to wrong results.
"""

import base64
import hashlib
import json
import os

import pytest

from repro.experiments.campaign import (
    EXIT_CLEAN,
    EXIT_FAILED,
    EXIT_PARTIAL,
    JOURNAL_SCHEMA,
    Journal,
    classify_campaign,
    point_key,
)
from repro.experiments.parallel import sweep_map
from repro.util import atomic_write


class TestAtomicWrite:
    def test_writes_text_and_bytes(self, tmp_path):
        p = tmp_path / "t.txt"
        atomic_write(p, "hello\n")
        assert p.read_text() == "hello\n"
        atomic_write(p, b"\x00\x01")
        assert p.read_bytes() == b"\x00\x01"

    def test_creates_parent_dirs(self, tmp_path):
        p = tmp_path / "a" / "b" / "t.txt"
        atomic_write(p, "x")
        assert p.read_text() == "x"

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write(tmp_path / "t.txt", "x")
        assert os.listdir(tmp_path) == ["t.txt"]

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        p = tmp_path / "t.txt"
        atomic_write(p, "old content")
        atomic_write(p, "new")
        assert p.read_text() == "new"

class TestPointKey:
    def test_stable_and_distinct(self):
        k = point_key("fig15", 3, ("quick", 4096, "group"))
        assert k == point_key("fig15", 3, ("quick", 4096, "group"))
        assert k != point_key("fig15", 4, ("quick", 4096, "group"))
        assert k != point_key("fig14", 3, ("quick", 4096, "group"))
        assert k != point_key("fig15", 3, ("quick", 4096, "simple"))
        assert k != point_key("fig15", 3, ("quick", 4096, "group"), "paper")

    def test_is_a_filename_safe_digest(self):
        k = point_key("x", 0, (1, 2))
        assert len(k) == 64
        assert all(c in "0123456789abcdef" for c in k)


class TestClassification:
    def test_exit_codes(self):
        assert classify_campaign(5, 0, 0) == EXIT_CLEAN
        assert classify_campaign(4, 1, 0) == EXIT_PARTIAL
        assert classify_campaign(4, 0, 1) == EXIT_FAILED
        assert classify_campaign(0, 2, 0) == EXIT_FAILED  # nothing survived
        assert classify_campaign(0, 0, 0) == EXIT_CLEAN


class TestJournalRoundtrip:
    def test_record_lookup_roundtrip(self, tmp_path):
        j = Journal(tmp_path)
        payload = {"series": [1.5, 2.5], "meta": ("a", 3)}
        key = point_key("fig", 0, "p")
        j.record(key, payload)
        assert j.lookup(key) == payload
        assert key in j
        assert j.keys() == [key]
        assert len(j) == 1
        assert j.corrupt == []

    def test_missing_is_a_plain_miss_not_damage(self, tmp_path):
        j = Journal(tmp_path)
        assert j.lookup("0" * 64) is None
        assert j.corrupt == []
        assert j.misses == 1

    def test_records_survive_reopen(self, tmp_path):
        key = point_key("fig", 0, "p")
        Journal(tmp_path).record(key, [1, 2, 3])
        assert Journal(tmp_path).lookup(key) == [1, 2, 3]


class TestJournalCorruption:
    """Every damage mode is detected, reported, and treated as a miss."""

    def _journal_one(self, tmp_path):
        j = Journal(tmp_path)
        key = point_key("fig", 0, "p")
        path = j.record(key, {"v": 42})
        return j, key, path

    def test_truncated_record(self, tmp_path):
        j, key, path = self._journal_one(tmp_path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        assert Journal(tmp_path).lookup(key) is None
        j2 = Journal(tmp_path)
        j2.lookup(key)
        assert any("JSON" in reason for _, reason in j2.corrupt)

    def test_payload_bit_rot(self, tmp_path):
        j, key, path = self._journal_one(tmp_path)
        doc = json.loads(path.read_text())
        blob = bytearray(base64.b64decode(doc["payload"]))
        blob[len(blob) // 2] ^= 0xFF
        doc["payload"] = base64.b64encode(bytes(blob)).decode()
        path.write_text(json.dumps(doc))
        j2 = Journal(tmp_path)
        assert j2.lookup(key) is None
        assert any("hash mismatch" in reason for _, reason in j2.corrupt)

    def test_stale_schema(self, tmp_path):
        j, key, path = self._journal_one(tmp_path)
        doc = json.loads(path.read_text())
        doc["schema"] = "repro.journal/0"
        path.write_text(json.dumps(doc))
        j2 = Journal(tmp_path)
        assert j2.lookup(key) is None
        assert any("stale schema" in reason for _, reason in j2.corrupt)

    def test_key_mismatch(self, tmp_path):
        """A record renamed to another key's filename must not serve."""
        j, key, path = self._journal_one(tmp_path)
        other = point_key("fig", 1, "q")
        path.rename(path.with_name(f"{other}.json"))
        j2 = Journal(tmp_path)
        assert j2.lookup(other) is None
        assert any("key mismatch" in reason for _, reason in j2.corrupt)

    def test_undecodable_payload(self, tmp_path):
        j, key, path = self._journal_one(tmp_path)
        doc = json.loads(path.read_text())
        doc["payload"] = "!!! not base64 !!!"
        path.write_text(json.dumps(doc))
        j2 = Journal(tmp_path)
        assert j2.lookup(key) is None
        assert j2.corrupt

    def test_non_object_record(self, tmp_path):
        j, key, path = self._journal_one(tmp_path)
        path.write_text('["not", "an", "object"]')
        j2 = Journal(tmp_path)
        assert j2.lookup(key) is None
        assert any("not an object" in reason for _, reason in j2.corrupt)

    def test_damaged_record_heals_on_rewrite(self, tmp_path):
        j, key, path = self._journal_one(tmp_path)
        path.write_text("garbage")
        j2 = Journal(tmp_path)
        assert j2.lookup(key) is None
        j2.record(key, {"v": 42})
        assert j2.lookup(key) == {"v": 42}

    def test_keys_skips_damaged_records(self, tmp_path):
        j = Journal(tmp_path)
        good = point_key("fig", 0, "good")
        bad = point_key("fig", 0, "bad")
        j.record(good, 1)
        j.record(bad, 2)
        (j.dir / f"{bad}.json").write_text("garbage")
        assert Journal(tmp_path).keys() == sorted([good])

    def test_schema_constant_is_versioned(self):
        assert JOURNAL_SCHEMA == "repro.journal/1"


def _square(x):
    return x * x


def _square_seeded(x, *, seed):
    return (x * x, seed)


class TestSweepMapJournal:
    def test_serial_sweep_journals_and_skips(self, tmp_path):
        j = Journal(tmp_path, label="sq")
        first = sweep_map(_square, [1, 2, 3], jobs=1, label="sq", journal=j)
        assert first == [1, 4, 9]
        assert len(j.keys()) == 3

        calls = []

        def spy(x):
            calls.append(x)
            return x * x

        j2 = Journal(tmp_path, label="sq")
        again = sweep_map(spy, [1, 2, 3], jobs=1, label="sq", journal=j2)
        assert again == [1, 4, 9]
        assert calls == []  # everything served from the journal
        assert j2.hits == 3

    def test_journal_key_includes_seed_and_point(self, tmp_path):
        j = Journal(tmp_path, label="sq")
        sweep_map(_square_seeded, [2], jobs=1, label="sq",
                  seed_kwarg="seed", journal=j)
        # A different seed root is a different campaign: no hits.
        j2 = Journal(tmp_path, label="sq")
        out = sweep_map(_square_seeded, [2], jobs=1, label="sq",
                        seed_kwarg="seed", seed_root=99, journal=j2)
        assert j2.hits == 0
        assert out[0][0] == 4

    def test_partial_journal_runs_only_missing_points(self, tmp_path):
        j = Journal(tmp_path, label="sq")
        sweep_map(_square, [1, 2], jobs=1, label="sq", journal=j)

        calls = []

        def spy(x):
            calls.append(x)
            return x * x

        j2 = Journal(tmp_path, label="sq")
        out = sweep_map(spy, [1, 2, 5, 6], jobs=1, label="sq", journal=j2)
        assert out == [1, 4, 25, 36]
        assert calls == [5, 6]

    @pytest.mark.slow
    def test_pool_sweep_journals_and_skips(self, tmp_path):
        j = Journal(tmp_path, label="sq")
        first = sweep_map(_square, [1, 2, 3, 4], jobs=2, label="sq", journal=j)
        assert first == [1, 4, 9, 16]
        assert len(j.keys()) == 4
        # Resume in pool mode: all served from journal, bit-identical.
        j2 = Journal(tmp_path, label="sq")
        again = sweep_map(_square, [1, 2, 3, 4], jobs=2, label="sq",
                          journal=j2)
        assert again == first
        assert j2.hits == 4
