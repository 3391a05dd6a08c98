"""Explicit fat-tree link graph for the fluid contention fabric.

:class:`~repro.hw.params.ClusterSpec`'s leaf/spine fields describe the
*latency* topology (how many switch hops a message pays).  This module
materializes the matching *capacity* topology: a two-level fat-tree
link graph whose links the fluid engine water-fills max-min fairly
(see :func:`repro.sim.flows.fair_shares_links`).

Links
-----
Every link is identified by a small hashable key, interned to a dense
id by the :class:`~repro.sim.flows.FlowEngine`:

``("tx", node)``
    the node's NIC -> leaf uplink (capacity 1.0 port-share).  Same key
    the endpoint-only engine has always used for a flow's source.
``("rx", node)``
    the leaf -> NIC downlink (capacity 1.0).  Same key as the
    endpoint-only destination.
``("up", leaf, spine)`` / ``("down", spine, leaf)``
    one of ``spine_count`` equal-cost leaf<->spine links, capacity 1.0
    each (so ``nodes_per_switch / spine_count`` is the tree's
    oversubscription ratio).

Paths
-----
A flow's path is the ordered tuple of link keys it crosses:

* same leaf (or single-switch): ``(tx, rx)`` -- the degenerate two-link
  path, which keeps the engine on its endpoint-only fast solver, bit
  for bit identical to the pre-topology behaviour.
* cross-leaf: ``(tx, up, down, rx)`` through one spine chosen by the
  cluster's *path selector*.

Path selectors
--------------
``"ecmp"`` (default)
    deterministic hash of the (src, dst) node pair -- an arithmetic
    splitmix-style mix, **not** Python's ``hash()``, so the choice is
    identical across seeds, interpreter restarts and
    ``PYTHONHASHSEED``.  All flows of a pair share a path, like a real
    switch hashing a 5-tuple.
``"random"``
    per-flow uniform choice from the cluster's seeded
    ``"ecmp-paths"`` stream (reproducible per seed, varies per flow).
``"least"``
    per-flow least-loaded choice: the spine whose up+down links carry
    the fewest in-flight flows right now (ties -> lowest spine id).
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = [
    "FatTreeTopology",
    "PATH_SELECTORS",
    "ecmp_hash",
    "make_selector",
]

_MASK64 = (1 << 64) - 1


def ecmp_hash(src: int, dst: int) -> int:
    """Deterministic 64-bit mix of a (src, dst) pair.

    A splitmix64-style finalizer over the pair: stable across
    processes, seeds and ``PYTHONHASHSEED`` (unlike ``hash()``), cheap,
    and well-spread for the small consecutive integers node ids are.
    """
    h = (src * 0x9E3779B97F4A7C15 + dst * 0xBF58476D1CE4E5B9 + 0x2545F4914F6CDD1D) & _MASK64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK64
    h ^= h >> 31
    return h


class FatTreeTopology:
    """Two-level leaf/spine link graph over a :class:`ClusterSpec`.

    Pure structure + path selection; owns no simulation state.  The
    fabric asks :meth:`path` for each bulk flow's link list; ``engine``
    (the cluster's :class:`~repro.sim.flows.FlowEngine`) is read only
    by the ``"least"`` selector's load probe.
    """

    def __init__(self, spec, *, selector: Optional[str] = None, rng=None,
                 engine=None):
        self.spec = spec
        nps = spec.nodes_per_switch
        if nps <= 0:
            nps = spec.nodes  # single-switch: one leaf covering every node
        self.nodes_per_switch = nps
        self.n_leaves = (spec.nodes + nps - 1) // nps
        self.spine_count = max(1, getattr(spec, "spine_count", 1))
        name = selector if selector is not None \
            else getattr(spec, "path_selector", "ecmp")
        self.selector_name = name
        self._engine = engine
        self._choose = make_selector(name, self, rng=rng)

    # -- structure -------------------------------------------------------
    def leaf_of_node(self, node: int) -> int:
        return node // self.nodes_per_switch

    # -- path selection --------------------------------------------------
    def path(self, src_node: int, dst_node: int) -> tuple[tuple, ...]:
        """Ordered link keys a (src -> dst) bulk flow crosses."""
        src_leaf = self.leaf_of_node(src_node)
        dst_leaf = self.leaf_of_node(dst_node)
        if src_leaf == dst_leaf:
            return (("tx", src_node), ("rx", dst_node))
        spine = self._choose(src_node, dst_node)
        return (
            ("tx", src_node),
            ("up", src_leaf, spine),
            ("down", spine, dst_leaf),
            ("rx", dst_node),
        )

    def spine_load(self, src_leaf: int, dst_leaf: int, spine: int) -> int:
        """In-flight flows on a candidate spine's up+down link pair."""
        eng = self._engine
        if eng is None:
            return 0
        return (eng.link_load(("up", src_leaf, spine))
                + eng.link_load(("down", spine, dst_leaf)))


def _ecmp_selector(topo: "FatTreeTopology", rng) -> Callable[[int, int], int]:
    k = topo.spine_count

    def choose(src: int, dst: int) -> int:
        return ecmp_hash(src, dst) % k

    return choose


def _random_selector(topo: "FatTreeTopology", rng) -> Callable[[int, int], int]:
    if rng is None:
        raise ValueError('path_selector="random" needs a seeded rng stream')
    k = topo.spine_count

    def choose(src: int, dst: int) -> int:
        return int(rng.integers(0, k))

    return choose


def _least_loaded_selector(topo: "FatTreeTopology", rng) -> Callable[[int, int], int]:
    k = topo.spine_count

    def choose(src: int, dst: int) -> int:
        src_leaf = topo.leaf_of_node(src)
        dst_leaf = topo.leaf_of_node(dst)
        best, best_load = 0, None
        for s in range(k):
            load = topo.spine_load(src_leaf, dst_leaf, s)
            if best_load is None or load < best_load:
                best, best_load = s, load
        return best

    return choose


#: Pluggable path-selector registry: name -> factory(topology, rng).
PATH_SELECTORS: dict[str, Callable] = {
    "ecmp": _ecmp_selector,
    "random": _random_selector,
    "least": _least_loaded_selector,
}


def make_selector(name: str, topo: "FatTreeTopology", *, rng=None):
    """Build a ``choose(src_node, dst_node) -> spine`` callable."""
    try:
        factory = PATH_SELECTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown path selector {name!r}; "
            f"known: {sorted(PATH_SELECTORS)}"
        ) from None
    return factory(topo, rng)

