"""The training objective as one node over the policy weights.

The policy weights are ``leaf`` nodes, whose ``.grad`` ``backward``
fills; ``freeze`` turns leaves into constants (the pretrained networks
are frozen, so they never get a ``.grad``). A training rollout returns
its objective as one ``fused`` node: a sub-computation whose single VJP
returns the adjoints of all its parents at once, as arrays (the
rollout's reverse sweep, see ``optimize``). A fused node records only
the parents that require grad, and a node over none of them is a
constant. ``backward`` runs a scalar fused root's VJP over its leaves
once, on a unit adjoint, and accepts no other graph: everything else in
``src`` runs on arrays with hand-written adjoints. The tests walk graphs
of these nodes with a general reverse-mode engine (``tests/opgraphs.py``),
the reference those adjoints are checked against. A node's value is made
float64, so central finite differences are a usable oracle; only the
score fit rebinds its network's leaves to float32 while it runs.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class Node:
    """One recorded value, immutable but for a leaf's parameter array."""

    __slots__ = ("value", "parents", "vjps", "grad", "name", "requires_grad")

    def __init__(self, value, parents=(), vjps=(), name: str | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents: tuple[Node, ...] = parents
        self.vjps: tuple[Callable[[Array], Array], ...] = vjps
        self.grad: Array | None = None
        self.name = name
        self.requires_grad = bool(parents)

    @property
    def is_leaf(self) -> bool:
        return not self.parents

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Node{tag}(shape={self.value.shape}, leaf={self.is_leaf})"


def leaf(value, name: str | None = None) -> Node:
    """A differentiation leaf: a parentless node that requires grad."""
    node = Node(value, name=name)
    node.requires_grad = True
    return node


def freeze(leaves: Sequence[Node]) -> None:
    """Turn leaves into constants: later nodes record no edge into them.

    A stale ``.grad`` from earlier training is dropped as well.
    """
    for node in leaves:
        node.requires_grad = False
        node.grad = None


class _Fused(Node):
    """A node whose one VJP maps g to the tuple of its parents' adjoints."""

    __slots__ = ()


def fused(value, parents: Sequence[Node], vjp) -> Node:
    """One node for a sub-computation with a hand-written VJP.

    ``vjp(g)`` returns one adjoint per entry of ``parents``, in order (any
    placeholder, such as None, for a parent that requires no grad); only
    the parents that require grad are recorded, with their adjoints. With
    none of them the result is a constant.
    """
    keep = [p.requires_grad for p in parents]
    if not any(keep):
        return Node(value)
    if all(keep):
        return _Fused(value, tuple(parents), (vjp,))
    return _Fused(value, tuple(p for p, k in zip(parents, keep) if k),
                  (lambda g: tuple(a for a, k in zip(vjp(g), keep) if k),))


def backward(root: Node) -> None:
    """Fill ``.grad`` on the parents of a scalar fused ``root``, which must
    be distinct leaves, with its VJP's adjoints for a unit adjoint; a root
    that requires no grad is a no-op. Any other graph is a ``ValueError``.
    """
    if root.value.size != 1:
        raise ValueError(
            f"backward needs a scalar root, got shape {root.value.shape}"
        )
    if not root.requires_grad:
        return
    parents = root.parents
    if (type(root) is not _Fused or not all(p.is_leaf for p in parents)
            or len({id(p) for p in parents}) != len(parents)):
        raise ValueError("backward runs one fused node over distinct leaves; "
                         f"got {root!r}")
    for node, g in zip(parents, root.vjps[0](np.ones_like(root.value))):
        node.grad = g
