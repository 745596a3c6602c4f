"""Reverse-mode automatic differentiation over numpy arrays.

A computation graph is built by calling the op functions below on ``Node``
objects (raw arrays and floats are wrapped as constants). Every op computes
its value eagerly. A node requires grad if it is a ``leaf`` that has not
been frozen, or if any of its parents requires grad; an op records only
the parents that require grad, together with one vector-Jacobian product
per recorded parent. So ``constant`` inputs, ``stopgrad`` outputs and
``freeze``-d leaves (the pretrained networks) end the graph: they get no
VJP and no ``.grad``, and an op on them alone is itself a constant.
``backward`` on a scalar root then fills ``.grad`` on the leaves that
require grad (interior adjoints are dropped once propagated).

An op is one node with one VJP per recorded parent. ``op`` records a
value computed outside the tape that way, so a fixed-shape piece of a
rollout step (Tweedie, aggregation, drift, EM step) is one node with
hand-written VJPs, the ``jax.custom_vjp`` idiom; ``rowwise`` records a
function whose gradient is already known (the classifier NLL, the seam
loss). A ``fused`` node is a whole sub-computation (a tanh MLP, the
objective's sum) whose single VJP returns the adjoints of all its
parents at once. A VJP may return a weight's adjoint ``a.T @ g`` unformed,
as an ``OuterSum`` term; ``backward`` then sums a weight used at many
steps in blocks of steps, with one gemm per block.

Design constraints:
  * values are float64 throughout, so central finite differences are a
    usable oracle for the whole graph;
  * only smooth ops are provided (tanh, exp, log, sqrt, logsumexp, ...),
    no relu / abs / max, keeping gradients well defined everywhere;
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

    # Operator sugar; everything routes through the op functions below.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


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
    parent; only the parents that require grad are recorded. Every
    elementary op below is one call of it, and so is each fixed-shape
    piece of a rollout step (Tweedie, aggregation, drift, EM step)."""
    parents, vjps = tuple(parents), tuple(vjps)
    if not _GRAD_ENABLED:
        return Node(value)
    live = [p.requires_grad for p in parents]
    if all(live):
        return Node(value, parents, vjps)
    if not any(live):
        return Node(value)
    return Node(
        value,
        tuple(p for p, keep in zip(parents, live) if keep),
        tuple(f for f, keep in zip(vjps, live) if keep),
    )


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementary ops
# ---------------------------------------------------------------------------

def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return op(
        a.value + b.value,
        (a, b),
        (lambda g: _unbroadcast(g, a.value.shape),
         lambda g: _unbroadcast(g, b.value.shape)),
    )


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return op(
        a.value - b.value,
        (a, b),
        (lambda g: _unbroadcast(g, a.value.shape),
         lambda g: _unbroadcast(-g, b.value.shape)),
    )


def neg(a) -> Node:
    a = as_node(a)
    return op(-a.value, (a,), (lambda g: -g,))


def mul(a, b) -> Node:
    """Elementwise product with numpy broadcasting."""
    a, b = as_node(a), as_node(b)
    av, bv = a.value, b.value
    return op(
        av * bv,
        (a, b),
        (lambda g: _unbroadcast(g * bv, av.shape),
         lambda g: _unbroadcast(g * av, bv.shape)),
    )


def scale(a, c: float) -> Node:
    """Multiply by a python float (no node is created for the scalar)."""
    a = as_node(a)
    c = float(c)
    return op(a.value * c, (a,), (lambda g: g * c,))


def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    av, bv = a.value, b.value
    return op(
        av @ bv,
        (a, b),
        (lambda g: g @ bv.T, lambda g: av.T @ g),
    )


def tanh(a) -> Node:
    a = as_node(a)
    y = np.tanh(a.value)
    return op(y, (a,), (lambda g: g * (1.0 - y * y),))


def exp(a) -> Node:
    a = as_node(a)
    y = np.exp(a.value)
    return op(y, (a,), (lambda g: g * y,))


def log(a) -> Node:
    a = as_node(a)
    av = a.value
    return op(np.log(av), (a,), (lambda g: g / av,))


def sqrt(a) -> Node:
    a = as_node(a)
    y = np.sqrt(a.value)
    return op(y, (a,), (lambda g: g * (0.5 / y),))


def reduce_sum(a, axis=None, keepdims: bool = False) -> Node:
    a = as_node(a)
    av = a.value
    y = av.sum(axis=axis, keepdims=keepdims)

    def vjp(g: Array) -> Array:
        if axis is None:
            return np.broadcast_to(g, av.shape).copy()
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, av.shape).copy()

    return op(y, (a,), (vjp,))


def square_norm(a, axis=None, keepdims: bool = False) -> Node:
    """Sum of squares, optionally along one axis (per-row norms)."""
    return reduce_sum(mul(a, a), axis=axis, keepdims=keepdims)


def concat(nodes: Sequence, axis: int = 1) -> Node:
    nodes = [as_node(n) for n in nodes]
    values = [n.value for n in nodes]
    y = np.concatenate(values, axis=axis)
    offsets = np.cumsum([0] + [v.shape[axis] for v in values])

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g: Array) -> Array:
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return vjp

    return op(y, tuple(nodes), tuple(make_vjp(i) for i in range(len(nodes))))


def stack(nodes: Sequence) -> Node:
    """Stack same-shape nodes along a new leading axis."""
    nodes = [as_node(n) for n in nodes]
    vjps = tuple((lambda g, i=i: g[i]) for i in range(len(nodes)))
    return op(np.stack([n.value for n in nodes]), tuple(nodes), vjps)


def index(a, i: int) -> Node:
    """The slice ``a[i]`` along the leading axis."""
    a = as_node(a)

    def vjp(g: Array) -> Array:
        out = np.zeros_like(a.value)
        out[i] = g
        return out

    return op(a.value[i], (a,), (vjp,))


def reshape(a, shape) -> Node:
    """``a`` with the same entries in a new shape."""
    a = as_node(a)
    av = a.value
    return op(av.reshape(shape), (a,), (lambda g: g.reshape(av.shape),))


def gather_cols(a, idx) -> Node:
    """Select columns ``a[:, idx]`` of a 2-D node."""
    a = as_node(a)
    idx = np.asarray(idx, dtype=np.intp)
    av = a.value
    y = av[:, idx]

    def vjp(g: Array) -> Array:
        out = np.zeros_like(av)
        np.add.at(out, (slice(None), idx), g)
        return out

    return op(y, (a,), (vjp,))


def gather_rowwise(a, idx) -> Node:
    """Per-row column pick ``a[r, idx[r]]`` of a 2-D node, shape (rows, 1)."""
    a = as_node(a)
    idx = np.asarray(idx, dtype=np.intp).reshape(-1)
    av = a.value
    if idx.size != av.shape[0]:
        raise ValueError(f"got {idx.size} indices for {av.shape[0]} rows")
    rows = np.arange(av.shape[0])
    y = av[rows, idx][:, None]

    def vjp(g: Array) -> Array:
        out = np.zeros_like(av)
        out[rows, idx] = g[:, 0]
        return out

    return op(y, (a,), (vjp,))


def logsumexp(a, axis: int = 1, keepdims: bool = True) -> Node:
    """Numerically stable log-sum-exp along one axis."""
    a = as_node(a)
    av = a.value
    amax = np.max(av, axis=axis, keepdims=True)
    y = np.log(np.sum(np.exp(av - amax), axis=axis, keepdims=True)) + amax
    softmax = np.exp(av - y)
    if not keepdims:
        y = np.squeeze(y, axis=axis)

    def vjp(g: Array) -> Array:
        gg = g if keepdims else np.expand_dims(g, axis)
        return gg * softmax

    return op(y, (a,), (vjp,))


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

    ``parents`` are the inputs that require grad (see ``live``) and
    ``vjp(g)`` returns one adjoint per parent, in order. With no parents
    the result is a constant.
    """
    if not parents:
        return Node(value)
    return _Fused(value, tuple(parents), (vjp,))


class OuterSum:
    """The lazy weight adjoint sum_k a_k.T @ g_k.

    A weight used at K steps of a rollout gets one ``a_k.T @ g_k`` per
    step, each a skinny gemm (inner dimension = the batch) followed by a
    full-size add. A VJP instead returns ``OuterSum(a, g)``, and
    ``backward`` adds the terms of later contributions into the first with
    ``add``: the pending (a_k, g_k) pairs are folded into a dense sum with
    one ``concatenate(a).T @ concatenate(g)`` whenever their rows reach
    the weight's column count. Pending rows thus stay below the column
    count (the pending ``a_k`` hold fewer bytes than the dense sum), and
    the weight costs one well-shaped gemm and one add per block of steps.
    A single term folds to exactly ``a.T @ g``; a longer sum differs from
    the step-by-step one only in summation order. The ``a_k`` and ``g_k``
    are only read, never written.
    """

    __slots__ = ("pairs", "rows", "cols", "dense")

    def __init__(self, a: Array, g: Array):
        self.pairs: list[tuple[Array, Array]] = []   # pending (a_k, g_k)
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
            if len(self.pairs) == 1:
                a, g = self.pairs[0]
                part = a.T @ g
            else:
                a_k, g_k = zip(*self.pairs)
                part = np.concatenate(a_k).T @ np.concatenate(g_k)
            self.pairs, self.rows = [], 0
            self._fold_in(part)
        return self.dense

    def _push(self, a: Array, g: Array) -> None:
        self.pairs.append((a, g))
        self.rows += a.shape[0]
        if self.rows >= self.cols:
            self.array()

    def _fold_in(self, part: Array) -> None:
        if self.dense is None:
            self.dense = part
        else:
            self.dense += part


def stopgrad(a) -> Node:
    """Same forward value, zero adjoint flow: the result is a constant."""
    a = as_node(a)
    return Node(a.value)


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


def backward(root: Node) -> None:
    """Fill ``.grad`` on every leaf that requires grad and is reachable
    from a scalar ``root``; a root that requires no grad is a no-op.

    Only edges into nodes that require grad were recorded, so every VJP
    run here feeds some such leaf. Interior adjoints are dropped once
    propagated, so interior nodes keep ``.grad = None`` and a finished pass
    pins no second graph-sized set of arrays. Accumulation happens in a
    fixed topological order, so gradients are bit-reproducible for
    identical graphs. A node's first contribution is kept as the VJP
    returned it (it may be shared); the second makes a new sum array that
    later contributions are added into in place, which gives the same
    sums without an allocation per contribution. Weight adjoints a VJP
    returns as ``OuterSum`` terms (a policy weight gets one per rollout
    step) are added lazily and folded blockwise (see ``OuterSum``); a sum
    that mixes them with array contributions is made an array before
    adding, and ``.grad`` is always an array.
    """
    if root.value.size != 1:
        raise ValueError(
            f"backward needs a scalar root, got shape {root.value.shape}"
        )
    if not root.requires_grad:
        return
    grads: dict[int, Array | OuterSum] = {id(root): np.ones_like(root.value)}
    owned: set[int] = set()           # ids whose adjoint array is ours
    for node in reversed(_toposort(root)):
        g = grads.pop(id(node))       # every reachable node has an adjoint
        if type(g) is OuterSum:
            g = g.array()
        if node.is_leaf:
            node.grad = g
            continue
        if type(node) is _Fused:
            contribs = node.vjps[0](g)
        else:
            contribs = [vjp(g) for vjp in node.vjps]
        for parent, contrib in zip(node.parents, contribs):
            pid = id(parent)
            acc = grads.get(pid)
            if acc is None:
                grads[pid] = contrib
                continue
            if type(acc) is OuterSum:
                if type(contrib) is OuterSum:
                    acc.add(contrib)
                    continue
                acc = acc.array()     # a mixed sum is made dense first
                owned.add(pid)
            if type(contrib) is OuterSum:
                contrib = contrib.array()
            if pid in owned and acc.shape == np.shape(contrib):
                acc += contrib
            else:
                acc = acc + contrib
                owned.add(pid)
            grads[pid] = acc

