"""Crash-safe campaign journal: durable partial progress for long sweeps.

A *campaign* is any long-running batch of independent work units -- the
sweep points of a whole ``runall --all``, or a soak's iterations --
where a SIGKILL, OOM or box reboot halfway through used to throw away
every completed unit.  The :class:`Journal` fixes that with
a write-ahead record per completed unit:

* **One file per record**, named by the unit's content key (a SHA-256
  over sweep label + seed + the point itself), written via
  :func:`repro.util.atomic_write` (tmp + fsync + rename).  A crash at
  any instant leaves each record either fully present or fully absent
  -- there is no partially-written state to repair on restart.
* **Schema-stamped, integrity-checked envelopes.**  Each record is a
  JSON document carrying the journal schema version, the content key,
  and a SHA-256 of the pickled payload.  ``lookup`` re-verifies all
  three; a truncated file, flipped bit, or record from an incompatible
  schema is *ignored* (and reported via :attr:`Journal.corrupt`), so a
  damaged journal degrades to recomputing the damaged units -- never to
  wrong results.
* **Pickle payloads.**  Sweep-point results are arbitrary picklable
  values (floats, tuples, application results, metric snapshots); the
  pickle round-trip preserves them byte-exactly, which is what lets a
  resumed campaign merge journaled and freshly-computed points into
  tables identical to an uninterrupted run.

``sweep_map(..., journal=...)`` and ``runall --resume <dir>`` are the
two consumers; ``python -m repro soak`` journals each chaos iteration
between checkpoints.  See docs/RESILIENCE.md.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import pickle
from pathlib import Path
from typing import Any, Optional

from repro.util import atomic_write

__all__ = [
    "JOURNAL_SCHEMA",
    "Journal",
    "point_key",
    "EXIT_CLEAN",
    "EXIT_FAILED",
    "EXIT_USAGE",
    "EXIT_PARTIAL",
    "campaign_jobs",
    "classify_campaign",
]

JOURNAL_SCHEMA = "repro.journal/1"

#: Campaign exit codes (``runall`` / ``soak``): every figure passed;
#: wrong science or nothing survived; bad CLI usage; some units were
#: quarantined or crashed but the campaign completed with usable output.
EXIT_CLEAN = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3


def classify_campaign(passed: int, quarantined: int, failed: int) -> int:
    """Map unit counts to a campaign exit code.

    ``failed`` counts units whose *output is wrong* (shape-check
    failures); ``quarantined`` counts units that crashed or were
    retried into quarantine but left the rest of the campaign intact.
    """
    if failed or (quarantined and not passed):
        return EXIT_FAILED
    if quarantined:
        return EXIT_PARTIAL
    return EXIT_CLEAN


def campaign_jobs(parser, args) -> int:
    """The worker count a campaign command line asks for: ``--jobs``,
    else ``$REPRO_JOBS`` (1 when unset or not an integer).  A ``--jobs``
    below 1, or a ``--timeout`` that is not a positive number of seconds
    (a deadline at dispatch would kill every unit), exits with
    :data:`EXIT_USAGE` through ``parser.error``."""
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be at least 1, not {args.jobs}")
    if args.timeout is not None and not 0 < args.timeout < math.inf:
        parser.error(f"--timeout must be a positive number of seconds, "
                     f"not {args.timeout}")
    if args.jobs is not None:
        return args.jobs
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def point_key(label: str, seed: Any, point: Any) -> str:
    """Stable content key of one work unit.

    Hashes the unit's full identity -- sweep label, seed and the point's
    arguments, which carry the scale wherever the value depends on it
    -- so a journal can never serve a record to a run with different
    parameters.  Uses ``repr`` of the parts, which is stable for the
    ints/strs/tuples sweep points are made of.
    """
    text = "\x1f".join(repr(p) for p in (label, seed, point))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Journal:
    """Append-only directory of atomic, integrity-checked records.

    Multi-process safe by construction: records are single files
    written with tmp + fsync + rename, so concurrent writers (sweep
    workers, a parent and a resumed sibling) can at worst write the
    same record twice -- last rename wins, both contents are identical
    by keying.
    """

    def __init__(self, root: str | Path, label: str = "campaign"):
        self.root = Path(root)
        self.dir = self.root / "journal"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.label = label
        #: ``(path, reason)`` pairs for every damaged record seen by
        #: :meth:`lookup` / :meth:`scan` (diagnostics; damaged records
        #: are recomputed, never trusted).
        self.corrupt: list[tuple[str, str]] = []
        #: Cache hits / misses served this process (progress reporting).
        self.hits = 0
        self.misses = 0

    # -- write path -----------------------------------------------------

    def record(self, key: str, payload: Any, meta: Optional[dict] = None) -> Path:
        """Durably journal ``payload`` under ``key`` (WAL discipline).

        The payload is pickled; the envelope carries the schema stamp
        and a SHA-256 of the pickle bytes.  Returns the record path.
        """
        return self.record_bytes(key, pickle.dumps(payload), meta=meta)

    def record_bytes(self, key: str, blob: bytes, meta: Optional[dict] = None) -> Path:
        """Journal an already-pickled payload (the worker IPC blob)."""
        doc = {
            "schema": JOURNAL_SCHEMA,
            "key": key,
            "label": self.label,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "payload": base64.b64encode(blob).decode("ascii"),
        }
        if meta:
            doc["meta"] = meta
        return atomic_write(
            self._path(key),
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
        )

    # -- read path ------------------------------------------------------

    def lookup(self, key: str) -> Optional[Any]:
        """The journaled payload for ``key``, or None.

        None means "not journaled" for *any* reason -- missing,
        truncated, hash mismatch, or stale schema; the damaged cases
        are additionally reported through :attr:`corrupt`.  Callers
        simply recompute on None.
        """
        blob = self._load_blob(self._path(key), key)
        if blob is None:
            self.misses += 1
            return None
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            self._damaged(self._path(key), f"unpicklable payload: {exc!r}")
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def __contains__(self, key: str) -> bool:
        return self._load_blob(self._path(key), key, report=False) is not None

    def keys(self) -> list[str]:
        """Keys of every *valid* record currently on disk."""
        out = []
        for path in sorted(self.dir.glob("*.json")):
            key = path.stem
            if self._load_blob(path, key, report=False) is not None:
                out.append(key)
        return out

    def __len__(self) -> int:
        return len(self.keys())

    # -- internals ------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    def _damaged(self, path: Path, reason: str) -> None:
        self.corrupt.append((str(path), reason))

    def _load_blob(self, path: Path, key: str, report: bool = True) -> Optional[bytes]:
        """Validated pickle bytes of one record, or None."""
        try:
            raw = path.read_text()
        except OSError:
            return None  # absent: the normal miss, not damage
        damaged = self._damaged if report else (lambda *a: None)
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            damaged(path, f"truncated/invalid JSON: {exc}")
            return None
        if not isinstance(doc, dict):
            damaged(path, "record is not an object")
            return None
        if doc.get("schema") != JOURNAL_SCHEMA:
            damaged(path, f"stale schema {doc.get('schema')!r} "
                          f"(expected {JOURNAL_SCHEMA})")
            return None
        if doc.get("key") != key:
            damaged(path, f"key mismatch: envelope says {doc.get('key')!r}")
            return None
        try:
            blob = base64.b64decode(doc.get("payload", ""), validate=True)
        except (ValueError, TypeError) as exc:
            damaged(path, f"undecodable payload: {exc}")
            return None
        digest = hashlib.sha256(blob).hexdigest()
        if digest != doc.get("sha256"):
            damaged(path, "payload hash mismatch (bit rot or torn write)")
            return None
        return blob
