"""Small shared utilities: crash-safe file writes.

Every durable artifact the repo produces -- ``results/*.json`` tables,
golden-trace regenerations, benchmark snapshots, and the campaign
journal records -- goes through :func:`atomic_write`: the bytes land in
a per-process temp file, are fsynced, and are renamed over the target
in one atomic step.  A reader (or a resumed campaign) therefore never
observes a half-written file, no matter where a SIGKILL / OOM / power
cut lands, and concurrent pytest-xdist workers can never interleave
partial contents.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path

__all__ = ["atomic_write"]

#: Per-process counter so two atomic writes to the same target from one
#: process (e.g. a retried journal record) never share a temp name.
_TMP_IDS = itertools.count()


def atomic_write(path: str | Path, data: str | bytes, fsync: bool = True) -> Path:
    """Write ``data`` to ``path`` via tmp + fsync + atomic rename.

    ``data`` may be text (encoded UTF-8) or bytes.  With ``fsync=True``
    (the default) the file contents are flushed to stable storage before
    the rename, and the containing directory entry is fsynced after it
    -- the write-ahead discipline journal records rely on.  Crashing at
    any point leaves either the old file or the new file, never a mix;
    stray ``.*.tmp`` files from a crashed writer are inert.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_TMP_IDS)}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        # Make the rename itself durable (POSIX: fsync the directory).
        try:
            dir_fd = os.open(str(path.parent), os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return path
        try:
            os.fsync(dir_fd)
        except OSError:  # pragma: no cover - not supported everywhere
            pass
        finally:
            os.close(dir_fd)
    return path

