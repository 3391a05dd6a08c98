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
* cross-leaf: ``(tx, up, down, rx)`` through the spine ECMP picks:
  a deterministic hash of the (src, dst) node pair -- an arithmetic
  splitmix-style mix, **not** Python's ``hash()``, so the choice is
  identical across seeds, interpreter restarts and ``PYTHONHASHSEED``.
  All flows of a pair share a path, like a real switch hashing a
  5-tuple.
"""

from __future__ import annotations

__all__ = ["FatTreeTopology", "ecmp_hash"]

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

    Pure structure + ECMP path selection; owns no simulation state.
    The fabric asks :meth:`path` for each bulk flow's link list.
    """

    def __init__(self, spec):
        self.spec = spec
        nps = spec.nodes_per_switch
        if nps <= 0:
            nps = spec.nodes  # single-switch: one leaf covering every node
        self.nodes_per_switch = nps
        self.n_leaves = (spec.nodes + nps - 1) // nps
        self.spine_count = max(1, getattr(spec, "spine_count", 1))

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
        spine = ecmp_hash(src_node, dst_node) % self.spine_count
        return (
            ("tx", src_node),
            ("up", src_leaf, spine),
            ("down", spine, dst_leaf),
            ("rx", dst_node),
        )
