"""Reverse-mode automatic differentiation over numpy arrays.

A computation graph is built by calling the node constructors below on
``Node`` objects (raw arrays are wrapped as constants); every node holds
its value, computed eagerly. A node requires grad if it is a ``leaf``
that has not been frozen, or if any of its parents requires grad; an op
records only the parents that require grad, together with one
vector-Jacobian product per recorded parent. So ``constant`` inputs and
``freeze``-d leaves (the pretrained networks) end the graph: they get no
VJP and no ``.grad``, and an op on them alone is itself a constant.
``backward`` on a scalar root then fills ``.grad`` on the leaves that
require grad (interior adjoints are dropped once propagated).

An op is one node with one VJP per recorded parent. ``op`` records a
value computed outside the tape that way, the ``jax.custom_vjp`` idiom
(the analytic mixture score is one); ``rowwise`` records a function whose
gradient is already known (each terminal cost is one). A ``fused`` node
is a sub-computation whose single VJP returns the adjoints of all its
parents at once: a tanh MLP call and a training rollout. The pieces of a
rollout step (Tweedie, aggregation, drift, EM step) are not nodes: they
map arrays to arrays, and the rollout's reverse sweep calls their
plain-array adjoint helpers. A VJP may return a weight's adjoint
``a.T @ g`` unformed, as an ``OuterSum`` term; ``accumulate`` then sums a
weight used at many steps in blocks of steps, with one gemm per block,
and ``dense`` folds a term into an array. The pretrained networks' fits
build no graph: they call ``Mlp.backward`` with their losses'
closed-form gradients and fold its terms with ``dense``.

No VJP reads a ``Node.value`` at backward time, except the root's: an op
records the shapes it needs when it is recorded, and its closure keeps
the arrays its VJP reads. So ``pullback`` can turn a graph into a
function of the root's adjoint that keeps the VJPs and no node, hence no
node value; ``backward`` is that function applied to a unit adjoint.
A training rollout keeps no graph of its steps: it records its own lean
step list and is one ``fused`` node over the policy leaves (see
``optimize``).

Design constraints:
  * values are float64 throughout, so central finite differences are a
    usable oracle for the whole graph;
  * ``src`` builds no elementwise op nodes: each node is a function with
    a closed-form gradient or a hand-written VJP (the elementwise ops
    that the tests build reference graphs from live beside the tests),
    and none is a relu / abs / max, keeping gradients well defined
    everywhere;
  * graph construction inside ``no_grad()`` produces parentless nodes, so
    long sampling loops do not retain history.
"""
from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Build values only: nodes created inside record no parents."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextlib.contextmanager
def grad_enabled():
    """Force recording back on inside a ``no_grad`` region (sub-graphs)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = True
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Node:
    """One recorded value. Treat ``.value`` as immutable once created."""

    __slots__ = ("value", "parents", "vjps", "grad", "name", "requires_grad")

    def __init__(self, value, parents=(), vjps=(), name: str | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents: tuple[Node, ...] = parents
        self.vjps: tuple[Callable[[Array], Array], ...] = vjps
        self.grad: Array | None = None
        self.name = name
        self.requires_grad = bool(parents)

    @property
    def shape(self):
        return self.value.shape

    @property
    def is_leaf(self) -> bool:
        return not self.parents

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Node{tag}(shape={self.value.shape}, leaf={self.is_leaf})"


def constant(value, name: str | None = None) -> Node:
    """Wrap an array as a parentless node (no gradient flows into it)."""
    return Node(value, name=name)


def leaf(value, name: str | None = None) -> Node:
    """A differentiation leaf: a parentless node that requires grad."""
    node = Node(value, name=name)
    node.requires_grad = True
    return node


def freeze(leaves: Sequence[Node]) -> None:
    """Turn leaves into constants: later ops record no edge into them.

    A stale ``.grad`` from earlier training is dropped as well.
    """
    for node in leaves:
        node.requires_grad = False
        node.grad = None


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def live(nodes: Sequence[Node]) -> list[bool]:
    """Per node, whether an op recorded now would keep it as a parent."""
    return [_GRAD_ENABLED and n.requires_grad for n in nodes]


def op(value, parents: Sequence[Node], vjps: Sequence) -> Node:
    """One node for a value computed outside the tape, with one VJP per
    parent; only the parents that require grad are recorded. The mixture
    score is one call of it, and so is each elementary op of the tests'
    reference graphs."""
    parents, vjps = tuple(parents), tuple(vjps)
    if not _GRAD_ENABLED:
        return Node(value)
    live = [p.requires_grad for p in parents]
    if not all(live):
        if not any(live):
            return Node(value)
        parents = tuple(p for p, keep in zip(parents, live) if keep)
        vjps = tuple(f for f, keep in zip(vjps, live) if keep)
    return Node(value, parents, vjps)


def rowwise(x, value, grad) -> Node:
    """A function of ``x`` whose value and gradient are already known:
    per row (``value`` of shape (rows, 1)) or a scalar, with ``grad`` of
    the shape of ``x`` and the VJP ``g * grad``."""
    x = as_node(x)
    return op(value, (x,), (lambda g: g * grad,))


class _Fused(Node):
    """A node whose one VJP maps g to the tuple of its parents' adjoints."""

    __slots__ = ()


def fused(value, parents: Sequence[Node], vjp) -> Node:
    """One node for a sub-computation with a hand-written VJP.

    ``vjp(g)`` returns one adjoint per entry of ``parents``, in order (any
    placeholder, such as None, for a parent that requires no grad); only
    the parents that require grad (see ``live``) are recorded, with their
    adjoints. With none of them the result is a constant.
    """
    keep = live(parents)
    if not any(keep):
        return Node(value)
    if all(keep):
        return _Fused(value, tuple(parents), (vjp,))
    return _Fused(value, tuple(p for p, k in zip(parents, keep) if k),
                  (lambda g: tuple(a for a, k in zip(vjp(g), keep) if k),))


class OuterSum:
    """The lazy weight adjoint sum_k a_k.T @ g_k.

    A weight used at K steps of a rollout gets one ``a_k.T @ g_k`` per
    step, each a skinny gemm (inner dimension = the batch) followed by a
    full-size add. A VJP instead returns ``OuterSum(a, g)``, and
    ``accumulate`` adds the terms of later contributions into the first with
    ``add``: the pending (a_k, g_k) pairs are folded into a dense sum with
    one ``concatenate(a).T @ concatenate(g)`` whenever their rows reach
    the weight's column count. Pending rows thus stay below the column
    count (the pending ``a_k`` hold fewer bytes than the dense sum), and
    the weight costs one well-shaped gemm and one add per block of steps.

    ``a`` is given as its column parts, a sequence of 2-D arrays whose
    column concatenation is ``a`` (an ``Mlp``'s input parts, or one hidden
    layer): a term keeps references to the parts, and the fold fills its
    block of rows straight from them, so no term copies its input. A
    single one-part term folds to exactly ``a.T @ g``; a longer sum
    differs from the step-by-step one only in summation order. The parts
    and the ``g_k`` are only read, never written.
    """

    __slots__ = ("pairs", "rows", "cols", "dense")

    def __init__(self, a: Sequence[Array], g: Array):
        self.pairs: list[tuple] = []                  # pending (a_k, g_k)
        self.rows = 0                                 # rows of the pending a_k
        self.cols = g.shape[1]
        self.dense: Array | None = None               # the folded terms
        self._push(a, g)

    def add(self, other: "OuterSum") -> None:
        """Add the terms of ``other`` into this sum, taking ``other`` over
        (its dense part may become this sum's)."""
        if other.dense is not None:
            self._fold_in(other.dense)
        for a, g in other.pairs:
            self._push(a, g)

    def array(self) -> Array:
        """The sum as an array (folds what is pending)."""
        if self.pairs:
            parts, g = self.pairs[0]
            if len(self.pairs) == 1 and len(parts) == 1:
                part = parts[0].T @ g
            else:
                # the pending a_k as one block, filled from their parts
                block = np.empty((self.rows, sum(p.shape[1] for p in parts)))
                r = 0
                for parts, g in self.pairs:
                    c = 0
                    for p in parts:
                        block[r:r + g.shape[0], c:c + p.shape[1]] = p
                        c += p.shape[1]
                    r += g.shape[0]
                gs = [g for _, g in self.pairs]
                g = gs[0] if len(gs) == 1 else np.concatenate(gs)
                part = block.T @ g
            self.pairs, self.rows = [], 0
            self._fold_in(part)
        return self.dense

    def _push(self, a: Sequence[Array], g: Array) -> None:
        self.pairs.append((a, g))
        self.rows += g.shape[0]
        if self.rows >= self.cols:
            self.array()

    def _fold_in(self, part: Array) -> None:
        if self.dense is None:
            self.dense = part
        else:
            self.dense += part


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _toposort(root: Node) -> list[Node]:
    """Iterative post-order (parents before node); no recursion limit."""
    seen: set[int] = set()
    order: list[Node] = []
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def dense(g):
    """An adjoint as an array: an ``OuterSum`` term folded, an array as
    is."""
    return g.array() if type(g) is OuterSum else g


def accumulate(grads: dict, owned: set, key, contrib) -> None:
    """Add the adjoint contribution ``contrib`` into ``grads[key]``.

    The first contribution is kept as given (it may be shared); the second
    makes a new sum array that later ones are added into in place (``owned``
    holds the keys whose array is the caller's), so the sums need no
    allocation per contribution and never write into an array a VJP
    returned. ``OuterSum`` terms are added lazily and folded blockwise; a
    sum that mixes them with arrays is made an array first.
    """
    acc = grads.get(key)
    if acc is None:
        grads[key] = contrib
        return
    if type(acc) is OuterSum:
        if type(contrib) is OuterSum:
            acc.add(contrib)
            return
        acc = acc.array()             # a mixed sum is made dense first
        owned.add(key)
    if type(contrib) is OuterSum:
        contrib = contrib.array()
    if key in owned and acc.shape == contrib.shape:
        acc += contrib
    else:
        acc = acc + contrib
        owned.add(key)
    grads[key] = acc


def pullback(root: Node):
    """Reverse mode over ``root``'s graph, as a function of its adjoint.

    Returns ``(leaves, vjp)``: the graph's leaves that require grad, and
    ``vjp(g)``, their adjoints (arrays, or ``OuterSum`` terms) given the
    adjoint ``g`` of ``root``. ``vjp`` keeps the nodes' VJPs and no node,
    so it holds no node value, and it may be called any number of times.
    Adjoints are accumulated in a fixed topological order, so they are
    bit-reproducible for identical graphs; interior adjoints are dropped
    once propagated.
    """
    order = _toposort(root)
    pos = {id(n): i for i, n in enumerate(order)}
    leaves = [n for n in order if not n.parents and n.requires_grad]
    ends = [pos[id(n)] for n in leaves]
    steps = [(pos[id(n)], n.vjps, type(n) is _Fused,
              [pos[id(p)] for p in n.parents])
             for n in reversed(order) if n.parents]
    top = len(order) - 1

    def vjp(g):
        grads, owned = {top: g}, set()
        for i, vjps, is_fused, parents in steps:
            gi = dense(grads.pop(i))  # every node reaches the root
            contribs = vjps[0](gi) if is_fused else [f(gi) for f in vjps]
            for p, c in zip(parents, contribs):
                accumulate(grads, owned, p, c)
        return [grads[i] for i in ends]

    return leaves, vjp


def backward(root: Node) -> None:
    """Fill ``.grad`` on every leaf that requires grad and is reachable
    from a scalar ``root``; a root that requires no grad is a no-op.

    Only edges into nodes that require grad were recorded, so every VJP
    run here feeds some such leaf. It is ``pullback`` applied to a unit
    adjoint: interior nodes keep ``.grad = None``, and ``.grad`` is always
    an array (``OuterSum`` sums are folded).
    """
    if root.value.size != 1:
        raise ValueError(
            f"backward needs a scalar root, got shape {root.value.shape}"
        )
    if not root.requires_grad:
        return
    leaves, vjp = pullback(root)
    for leaf, g in zip(leaves, vjp(np.ones_like(root.value))):
        leaf.grad = dense(g)
