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

No VJP reads a ``Node.value`` at backward time, except the root's: an op
records the shapes it needs when it is recorded, and its closure keeps
the arrays its VJP reads. So a graph needs no interior value once it is
built. ``scope`` lists the nodes recorded inside it, and ``release``
replaces their values with the shared ``RELEASED`` marker, which holds
no bytes and raises on any arithmetic or conversion to an array; a
rollout releases each step's nodes but the next state, and its graph
then holds only what backward reads.

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
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray

_GRAD_ENABLED = True
_SCOPE: list | None = None       # the open ``scope``'s list, if any


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
    """Force recording back on inside a ``no_grad`` region (sub-graphs).

    A sub-graph is not part of the graph around it, so an open ``scope``
    does not list the nodes recorded inside."""
    global _GRAD_ENABLED, _SCOPE
    prev, prev_scope = _GRAD_ENABLED, _SCOPE
    _GRAD_ENABLED, _SCOPE = True, None
    try:
        yield
    finally:
        _GRAD_ENABLED, _SCOPE = prev, prev_scope


@contextlib.contextmanager
def scope():
    """Yield a list of the nodes with parents that ``op`` and ``fused``
    record inside, in recording order (for ``release``)."""
    global _SCOPE
    prev = _SCOPE
    _SCOPE = recorded = []
    try:
        yield recorded
    finally:
        _SCOPE = prev


class Node:
    """One recorded value. Treat ``.value`` as immutable once created;
    ``release`` may replace it with ``RELEASED``, never write into it."""

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
    if not all(live):
        if not any(live):
            return Node(value)
        parents = tuple(p for p, keep in zip(parents, live) if keep)
        vjps = tuple(f for f, keep in zip(vjps, live) if keep)
    return _record(Node(value, parents, vjps))


def _record(node: Node) -> Node:
    if _SCOPE is not None:
        _SCOPE.append(node)
    return node


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
    sa, sb = a.value.shape, b.value.shape
    return op(
        a.value + b.value,
        (a, b),
        (lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(g, sb)),
    )


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    sa, sb = a.value.shape, b.value.shape
    return op(
        a.value - b.value,
        (a, b),
        (lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(-g, sb)),
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
    shape = a.value.shape
    y = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g: Array) -> Array:
        if axis is None:
            return np.broadcast_to(g, shape).copy()
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, shape).copy()

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
    shape = a.value.shape

    def vjp(g: Array) -> Array:
        out = np.zeros(shape)
        out[i] = g
        return out

    return op(a.value[i], (a,), (vjp,))


def reshape(a, shape) -> Node:
    """``a`` with the same entries in a new shape."""
    a = as_node(a)
    old = a.value.shape
    return op(a.value.reshape(shape), (a,), (lambda g: g.reshape(old),))


def gather_cols(a, idx) -> Node:
    """Select columns ``a[:, idx]`` of a 2-D node."""
    a = as_node(a)
    idx = np.asarray(idx, dtype=np.intp)
    shape = a.value.shape
    y = a.value[:, idx]

    def vjp(g: Array) -> Array:
        out = np.zeros(shape)
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
    shape = av.shape

    def vjp(g: Array) -> Array:
        out = np.zeros(shape)
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
    return _record(_Fused(value, tuple(parents), (vjp,)))


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


class ReleasedValueError(RuntimeError):
    """A read of the value of a node that ``release`` emptied."""


class _Released:
    """The value of a released node. It holds no bytes (its ``shape`` is
    ``(0,)``), and arithmetic on it, conversion to an array, indexing,
    iteration and any other attribute raise ``ReleasedValueError``."""

    __slots__ = ()
    shape, ndim, size, nbytes = (0,), 1, 0, 0

    def _refuse(self, *args, **kwargs):
        raise ReleasedValueError("read the value of a released tape node")

    def __getattr__(self, name):
        if name.startswith("__"):         # protocol probes see no attribute
            raise AttributeError(name)
        self._refuse()

    def __repr__(self):
        return "RELEASED"

    __array__ = __array_ufunc__ = __array_function__ = _refuse
    __iter__ = __len__ = __getitem__ = __bool__ = __float__ = _refuse
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __pow__ = __rpow__ = __neg__ = _refuse
    __matmul__ = __rmatmul__ = _refuse


RELEASED = _Released()


def release(nodes: Iterable[Node]) -> None:
    """Drop the values of finished interior nodes: each ``.value`` becomes
    the shared ``RELEASED`` marker, which holds no bytes. Backward reads no
    interior value (the VJPs keep what they need), so a released graph
    still back-propagates. Leaves and parentless nodes keep their values.
    """
    for node in nodes:
        if node.parents:
            node.value = RELEASED


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

