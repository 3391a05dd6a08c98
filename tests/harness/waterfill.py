"""Reference oracle for the max-min solver: level-by-level water-filling.

This is the loop ``repro.sim.flows.fair_shares_links`` ran before it
became the parallel-bottleneck solver, moved here verbatim: raise every
unfrozen flow uniformly to the next *global* level (the tightest link
or flow cap anywhere), freeze what binds, repeat -- one round per
distinct share level.  It is slow on staggered arrivals (hundreds of
distinct levels) and obviously right, which is what an oracle is for.
It shares no code with the solver under test.
"""

from __future__ import annotations

import numpy as np

__all__ = ["waterfill_reference"]

_TINY = 1e-12


def _pad_paths(paths, n_links: int) -> np.ndarray:
    n = len(paths)
    if n == 0:
        return np.empty((0, 1), dtype=np.intp)
    width = max(len(p) for p in paths)
    out = np.full((n, width), n_links, dtype=np.intp)
    for i, p in enumerate(paths):
        out[i, : len(p)] = p
    return out


def waterfill_reference(paths, caps, n_links: int) -> np.ndarray:
    """Max-min shares by global water-filling (same signature as
    ``fair_shares_links``: ragged paths or a padded 2-D ``intp`` array
    whose negative / ``>= n_links`` entries are padding)."""
    caps = np.asarray(caps, dtype=np.float64)
    if isinstance(paths, np.ndarray) and paths.ndim == 2:
        P = paths.astype(np.intp, copy=True)
        np.copyto(P, n_links, where=(P < 0) | (P > n_links))
    else:
        P = _pad_paths([np.asarray(p, dtype=np.intp) for p in paths], n_links)
    n = P.shape[0]
    share = np.zeros(n, dtype=np.float64)
    if n == 0:
        return share
    cap_left = np.ones(n_links + 1, dtype=np.float64)
    cap_left[n_links] = np.inf
    idx = np.arange(n, dtype=np.intp)
    PA = P
    caps_a = caps
    share_a = share.copy()
    while idx.size:
        load = np.bincount(
            PA.ravel(), minlength=n_links + 1
        ).astype(np.float64)
        load[n_links] = 0.0
        head = cap_left / np.maximum(load, 1.0)
        head[load == 0.0] = np.inf
        inc = head[PA].min(axis=1)
        head_room = caps_a - share_a
        np.minimum(inc, head_room, out=inc)
        delta = float(inc.min())
        if delta > 0.0 and np.isfinite(delta):
            share_a = share_a + delta
            head_room = caps_a - share_a
            cap_left[:n_links] -= delta * load[:n_links]
            np.maximum(cap_left[:n_links], 0.0, out=cap_left[:n_links])
        frozen = (head_room <= _TINY) | (cap_left[PA].min(axis=1) <= _TINY)
        if frozen.all() or not frozen.any():
            share[idx] = share_a
            break
        share[idx[frozen]] = share_a[frozen]
        keep = ~frozen
        idx = idx[keep]
        PA = PA[keep]
        caps_a = caps_a[keep]
        share_a = share_a[keep]
    return share
