"""Sweep failure paths: hang watchdog, serial == pool, no lost result.

Every dispatched point is resolved by exactly one of a result, a worker
death or a deadline.  These tests drive each of the three on real
spawned workers, and pin that the in-process serial sweep and the pool
classify, retry and quarantine failures identically.

Point functions are module-level: spawn workers import them by name.
"""

from __future__ import annotations

import os
import time

from repro.experiments.parallel import PointFailure, sweep_map


def _hang_once(marker, x):
    """Hang on the first attempt; every attempt appends its pid."""
    first = not os.path.exists(marker)
    with open(marker, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    if first:
        time.sleep(60)
    return x * 10


def _hang(x):
    time.sleep(60)
    return x


def _mixed(marker_dir, kind, x):
    """``ok`` returns; ``flaky`` raises OSError on its first attempt only;
    ``bad`` raises ValueError; ``hopeless`` raises OSError every time."""
    if kind == "flaky":
        marker = os.path.join(marker_dir, f"flaky-{x}")
        if not os.path.exists(marker):
            open(marker, "w").close()
            raise OSError(f"transient failure on {x}")
    elif kind == "bad":
        raise ValueError(f"deterministic failure on {x}")
    elif kind == "hopeless":
        raise OSError(f"persistent failure on {x}")
    return x * 10


def _big_then_die(kind):
    if kind == "die":
        os._exit(17)
    return b"\x5a" * (32 << 20)


def _shape(slot):
    if isinstance(slot, PointFailure):
        return (slot.error_type, slot.attempts, slot.quarantined)
    return slot


class TestHangWatchdog:
    def test_timed_out_point_is_retried_on_a_fresh_worker(self, tmp_path):
        marker = str(tmp_path / "attempts")
        events = []
        out = sweep_map(_hang_once, [(marker, 4)], jobs=1, on_error="keep",
                        retries=1, point_timeout=2, label="hang",
                        progress=events.append)
        assert out == [40]
        retries = [e for e in events if e["event"] == "retry"]
        assert [e["error_type"] for e in retries] == ["PointTimeout"]
        with open(marker) as fh:
            pids = fh.read().split()
        assert len(pids) == 2 and pids[0] != pids[1]

    def test_timeout_without_retries_is_a_structured_failure(self):
        (failure,) = sweep_map(_hang, [1], jobs=1, on_error="keep",
                               point_timeout=2, label="hang")
        assert isinstance(failure, PointFailure)
        assert failure.error_type == "PointTimeout"
        assert failure.attempts == 1
        assert failure.quarantined


def test_serial_and_pool_share_failure_semantics(tmp_path):
    """One mixed sweep: a raised transient error that clears on retry, a
    deterministic error, and a transient error that never clears."""
    kinds = ["ok", "flaky", "bad", "hopeless", "ok"]
    runs = {}
    for jobs in (1, 2):
        marker_dir = tmp_path / f"jobs{jobs}"
        marker_dir.mkdir()
        points = [(str(marker_dir), kind, i) for i, kind in enumerate(kinds)]
        out = sweep_map(_mixed, points, jobs=jobs, on_error="keep",
                        retries=1, label="mixed")
        runs[jobs] = [_shape(slot) for slot in out]
    assert runs[1] == runs[2] == [
        0, 10, ("ValueError", 1, True), ("OSError", 2, True), 40]


def test_result_sent_before_a_death_is_kept():
    """A large result already sent is read before the death of the same
    worker on its next point is acted on."""
    out = sweep_map(_big_then_die, ["big", "die"], jobs=1, on_error="keep",
                    point_timeout=120, label="lost")
    assert out[0] == b"\x5a" * (32 << 20)
    assert isinstance(out[1], PointFailure)
    assert out[1].error_type == "WorkerDied"
