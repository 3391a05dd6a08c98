"""A self-balancing (AVL) binary search tree.

The paper's registration caches are "an array of Binary Search Trees
... the array is indexed by remote rank and the BST is indexed by
memory address" (Section VII-B).  This is that BST; it is deliberately
a real tree rather than a dict so that the cache's data-structure
invariants can be property-tested (and so descent depth is available
as a modelled cost if desired).

Keys are ``(addr, size)`` tuples ordered lexicographically -- the same
buffer address registered with two lengths is two distinct entries,
matching how registration caches in production MPI libraries behave.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

__all__ = ["AvlTree"]


class _Node:
    __slots__ = ("key", "value", "left", "right", "height")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.height = 1


def _h(node: Optional[_Node]) -> int:
    return node.height if node else 0


def _update(node: _Node) -> None:
    node.height = 1 + max(_h(node.left), _h(node.right))


def _balance_factor(node: _Node) -> int:
    return _h(node.left) - _h(node.right)


def _rotate_right(y: _Node) -> _Node:
    x = y.left
    assert x is not None
    y.left = x.right
    x.right = y
    _update(y)
    _update(x)
    return x


def _rotate_left(x: _Node) -> _Node:
    y = x.right
    assert y is not None
    x.right = y.left
    y.left = x
    _update(x)
    _update(y)
    return y


def _rebalance(node: _Node) -> _Node:
    _update(node)
    bf = _balance_factor(node)
    if bf > 1:
        assert node.left is not None
        if _balance_factor(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if bf < -1:
        assert node.right is not None
        if _balance_factor(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class AvlTree:
    """Ordered map with O(log n) insert/find/remove."""

    def __init__(self) -> None:
        self._root: Optional[_Node] = None
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key) -> bool:
        return self.find(key) is not None

    # -- find -------------------------------------------------------------
    def find(self, key) -> Optional[Any]:
        """The value stored at ``key`` or None (with descent count free)."""
        node = self._root
        while node is not None:
            if key < node.key:
                node = node.left
            elif node.key < key:
                node = node.right
            else:
                return node.value
        return None

    def depth_of(self, key) -> int:
        """Number of comparisons a lookup of ``key`` performs."""
        node, depth = self._root, 0
        while node is not None:
            depth += 1
            if key < node.key:
                node = node.left
            elif node.key < key:
                node = node.right
            else:
                return depth
        return depth

    # -- insert -------------------------------------------------------------
    # (The recursive helpers are methods, not closures: a nested function
    # that calls itself is a reference cycle per call.)
    def insert(self, key, value) -> None:
        """Insert or overwrite."""
        self._root = self._ins(self._root, key, value)

    def _ins(self, node: Optional[_Node], key, value) -> _Node:
        if node is None:
            self._count += 1
            return _Node(key, value)
        if key < node.key:
            node.left = self._ins(node.left, key, value)
        elif node.key < key:
            node.right = self._ins(node.right, key, value)
        else:
            node.value = value
            return node
        return _rebalance(node)

    # -- remove -------------------------------------------------------------
    def remove(self, key) -> bool:
        """Delete ``key``; returns True if it was present."""
        before = self._count
        self._root = self._rm(self._root, key)
        return self._count < before

    def _rm(self, node: Optional[_Node], key) -> Optional[_Node]:
        """``node``'s subtree without ``key``; a hit unlinks exactly one
        node (itself, or the successor whose entry it takes over)."""
        if node is None:
            return None
        if key < node.key:
            node.left = self._rm(node.left, key)
        elif node.key < key:
            node.right = self._rm(node.right, key)
        elif node.left is None or node.right is None:
            self._count -= 1
            return node.right if node.left is None else node.left
        else:
            successor = node.right
            while successor.left is not None:
                successor = successor.left
            node.key, node.value = successor.key, successor.value
            node.right = self._rm(node.right, successor.key)
        return _rebalance(node)

    # -- iteration / introspection -------------------------------------------
    def items(self) -> Iterator[tuple[Any, Any]]:
        """In-order (sorted) iteration."""
        stack: list[_Node] = []
        node = self._root
        while stack or node:
            while node:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def keys(self) -> Iterator[Any]:
        return (k for k, _ in self.items())

    @property
    def height(self) -> int:
        return _h(self._root)

    def check_invariants(self) -> None:
        """Raise AssertionError if BST order or AVL balance is violated."""
        _check(self._root, None, None)


def _check(node: Optional[_Node], lo, hi) -> int:
    if node is None:
        return 0
    if lo is not None:
        assert lo < node.key, f"BST order violated at {node.key}"
    if hi is not None:
        assert node.key < hi, f"BST order violated at {node.key}"
    lh = _check(node.left, lo, node.key)
    rh = _check(node.right, node.key, hi)
    assert abs(lh - rh) <= 1, f"AVL balance violated at {node.key}"
    assert node.height == 1 + max(lh, rh), f"stale height at {node.key}"
    return node.height
