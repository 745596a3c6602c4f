"""The reference reverse-mode engine, and the tape ops no production
module builds graphs from.

* The engine: ``backward`` and ``pullback`` walk any graph of
  ``coopdiff.tape`` nodes in a fixed topological order (``_toposort``),
  summing each node's adjoint contributions with ``nn.accumulate``, so
  they are bit-reproducible for identical graphs. ``no_grad`` is the
  global grad mode: nodes built inside it by the constructors here
  (``op``, ``fused``, ...) record no parents; ``grad_enabled`` forces
  recording back on inside it (sub-graphs). ``as_node`` and ``live`` are
  the constructors' helpers. ``coopdiff.tape.backward`` runs only one
  fused node over leaves, the training objective; this is the engine the
  hand-written adjoints are checked against.
* The generic node constructors: ``constant``, ``op`` (one node for a
  value computed outside the tape, with one VJP per parent), ``fused``
  (``tape.fused`` under the grad mode) and ``rowwise`` (a per-row value
  with a known gradient).
* Elementary ops (``add``, ``sub``, ``mul``, ``scale``, the sums, ...),
  which the tape's own tests use as finite-difference oracles, and the
  terminal-cost pieces as compositions of them: the graphs the closed
  forms replace, kept as references for their values and gradients, with
  the one non-elementary op they use, ``logsumexp``. ``classifier_nll``
  is the softmax cross-entropy as one ``rowwise`` node, the classifier
  fit's per-row loss as the tape reference of its array gradient.
* The array calls of ``coopdiff`` as tape nodes: ``mlp_node`` (a network
  call as one fused node, with ``Mlp.backward`` as its VJP),
  ``score_node`` (a score model call, with its pullback as its VJP) and
  ``cost_node`` (a cost, with its gradient as its VJP); and the pieces of
  a rollout step: ``tweedie``, ``aggregate``, ``reverse_drift`` and
  ``em_step`` are each one node over the array function of the same name,
  with that function's plain-array adjoint helper as its VJP, and
  ``stacked_score`` is one call of a shared score model on (N, B, d)
  states. ``oracles`` builds its taped reference rollouts from them.
"""
import contextlib
import itertools

import numpy as np

from coopdiff import aggregation, costs, scores, sde, tape
from coopdiff.nn import accumulate, dense

_GRAD_ENABLED = True


@contextlib.contextmanager
def _grad_mode(enabled: bool):
    global _GRAD_ENABLED
    prev, _GRAD_ENABLED = _GRAD_ENABLED, enabled
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def no_grad():
    """Build values only: nodes created inside record no parents."""
    return _grad_mode(False)


def grad_enabled():
    """Force recording back on inside a ``no_grad`` region (sub-graphs)."""
    return _grad_mode(True)


def as_node(x) -> tape.Node:
    return x if isinstance(x, tape.Node) else tape.Node(x)


def live(nodes) -> list:
    """Per node, whether a node recorded now would keep it as a parent."""
    return [_GRAD_ENABLED and n.requires_grad for n in nodes]


def _toposort(root) -> list:
    """Iterative post-order (parents before node); no recursion limit."""
    seen: set = set()
    order: list = []
    stack: list = [(root, False)]
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


def pullback(root):
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
    steps = [(pos[id(n)], n.vjps, type(n) is tape._Fused,
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


def backward(root) -> None:
    """Fill ``.grad`` on every leaf that requires grad and is reachable
    from a scalar ``root``, through any graph; a root that requires no
    grad is a no-op.

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


def constant(value, name=None) -> tape.Node:
    """Wrap an array as a parentless node (no gradient flows into it)."""
    return tape.Node(value, name=name)


def fused(value, parents, vjp) -> tape.Node:
    """``tape.fused`` under the grad mode: a constant inside ``no_grad``."""
    if not _GRAD_ENABLED:
        return tape.Node(value)
    return tape.fused(value, parents, vjp)


def op(value, parents, vjps) -> tape.Node:
    """One node for a value computed outside the tape, with one VJP per
    parent; only the parents that require grad are recorded."""
    parents, vjps = tuple(parents), tuple(vjps)
    keep = live(parents)
    if not any(keep):
        return tape.Node(value)
    if not all(keep):
        parents = tuple(p for p, k in zip(parents, keep) if k)
        vjps = tuple(f for f, k in zip(vjps, keep) if k)
    return tape.Node(value, parents, vjps)


def rowwise(x, value, grad) -> tape.Node:
    """A function of ``x`` whose value and gradient are already known:
    per row (``value`` of shape (rows, 1)) or a scalar, with ``grad`` of
    the shape of ``x`` and the VJP ``g * grad``."""
    x = as_node(x)
    return op(value, (x,), (lambda g: g * grad,))


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> tape.Node:
    a, b = as_node(a), as_node(b)
    sa, sb = a.value.shape, b.value.shape
    return op(
        a.value + b.value,
        (a, b),
        (lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(g, sb)),
    )


def sub(a, b) -> tape.Node:
    a, b = as_node(a), as_node(b)
    sa, sb = a.value.shape, b.value.shape
    return op(
        a.value - b.value,
        (a, b),
        (lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(-g, sb)),
    )


def mul(a, b) -> tape.Node:
    """Elementwise product with numpy broadcasting."""
    a, b = as_node(a), as_node(b)
    av, bv = a.value, b.value
    return op(
        av * bv,
        (a, b),
        (lambda g: _unbroadcast(g * bv, av.shape),
         lambda g: _unbroadcast(g * av, bv.shape)),
    )


def scale(a, c: float) -> tape.Node:
    """Multiply by a python float (no node is created for the scalar)."""
    a = as_node(a)
    c = float(c)
    return op(a.value * c, (a,), (lambda g: g * c,))


def reduce_sum(a, axis=None, keepdims: bool = False) -> tape.Node:
    a = as_node(a)
    shape = a.value.shape
    y = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, shape).copy()
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, shape).copy()

    return op(y, (a,), (vjp,))


def square_norm(a, axis=None, keepdims: bool = False) -> tape.Node:
    """Sum of squares, optionally along one axis (per-row norms)."""
    return reduce_sum(mul(a, a), axis=axis, keepdims=keepdims)


def neg(a) -> tape.Node:
    a = as_node(a)
    return op(-a.value, (a,), (lambda g: -g,))


def matmul(a, b) -> tape.Node:
    a, b = as_node(a), as_node(b)
    av, bv = a.value, b.value
    return op(
        av @ bv,
        (a, b),
        (lambda g: g @ bv.T, lambda g: av.T @ g),
    )


def tanh(a) -> tape.Node:
    a = as_node(a)
    y = np.tanh(a.value)
    return op(y, (a,), (lambda g: g * (1.0 - y * y),))


def exp(a) -> tape.Node:
    a = as_node(a)
    y = np.exp(a.value)
    return op(y, (a,), (lambda g: g * y,))


def log(a) -> tape.Node:
    a = as_node(a)
    av = a.value
    return op(np.log(av), (a,), (lambda g: g / av,))


def sqrt(a) -> tape.Node:
    a = as_node(a)
    y = np.sqrt(a.value)
    return op(y, (a,), (lambda g: g * (0.5 / y),))


def concat(nodes, axis: int = 1) -> tape.Node:
    nodes = [as_node(n) for n in nodes]
    values = [n.value for n in nodes]
    y = np.concatenate(values, axis=axis)
    offsets = np.cumsum([0] + [v.shape[axis] for v in values])

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return vjp

    return op(y, tuple(nodes), tuple(make_vjp(i) for i in range(len(nodes))))


def stack(nodes) -> tape.Node:
    """Stack same-shape nodes along a new leading axis."""
    nodes = [as_node(n) for n in nodes]
    vjps = tuple((lambda g, i=i: g[i]) for i in range(len(nodes)))
    return op(np.stack([n.value for n in nodes]), tuple(nodes), vjps)


def index(a, i: int) -> tape.Node:
    """The slice ``a[i]`` along the leading axis."""
    a = as_node(a)
    shape = a.value.shape

    def vjp(g):
        out = np.zeros(shape)
        out[i] = g
        return out

    return op(a.value[i], (a,), (vjp,))


def gather_cols(a, idx) -> tape.Node:
    """Select columns ``a[:, idx]`` of a 2-D node."""
    a = as_node(a)
    idx = np.asarray(idx, dtype=np.intp)
    shape = a.value.shape
    y = a.value[:, idx]

    def vjp(g):
        out = np.zeros(shape)
        np.add.at(out, (slice(None), idx), g)
        return out

    return op(y, (a,), (vjp,))


def stopgrad(a) -> tape.Node:
    """Same forward value, zero adjoint flow: the result is a constant."""
    a = as_node(a)
    return constant(a.value)


def logsumexp(a, axis: int = 1, keepdims: bool = True):
    """Numerically stable log-sum-exp along one axis, one op."""
    a = as_node(a)
    av = a.value
    amax = np.max(av, axis=axis, keepdims=True)
    y = np.log(np.sum(np.exp(av - amax), axis=axis, keepdims=True)) + amax
    softmax = np.exp(av - y)
    if not keepdims:
        y = np.squeeze(y, axis=axis)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return gg * softmax

    return op(y, (a,), (vjp,))


def classifier_nll(logits, labels) -> tape.Node:
    """The softmax cross-entropy of ``logits`` (see ``costs._nll``) as one
    node with the gradient softmax - onehot."""
    logits = as_node(logits)
    return rowwise(logits, *costs._nll(logits.value, labels))


def classifier_nll_ops(logits, labels):
    """logsumexp(logits) - logits[label] per row, for one label or one
    label per row, one elementary op at a time. The label's logit is the
    row sum of logits * onehot, which adds zeros to it and so is exact."""
    logits = as_node(logits)
    rows, n_classes = logits.value.shape
    onehot = np.eye(n_classes)[np.broadcast_to(labels, (rows,))]
    picked = reduce_sum(mul(logits, constant(onehot)), axis=1, keepdims=True)
    return sub(logsumexp(logits, axis=1, keepdims=True), picked)


def seam_loss_ops(y, agg, cfg):
    """``costs.seam_loss`` built from gather/sub/sqrt/sum ops per seam pair."""
    h, w = agg.image_hw
    y = as_node(y)
    batch = y.value.shape[0]
    eps = cfg.charbonnier_eps

    def row(r):
        return gather_cols(y, np.arange(r * w, (r + 1) * w))

    def rho_sum(x):
        rho = sqrt(add(mul(x, x), constant(eps * eps)))
        return reduce_sum(rho, axis=1, keepdims=True)

    zeros = constant(np.zeros((batch, w)))
    total = constant(np.zeros((batch, 1)))
    for rp, rq in agg.seam_pairs:
        upper, lower = row(rp), row(rq)
        grad_p = sub(upper, row(rp - 1)) if rp >= 1 else zeros
        grad_q = sub(row(rq + 1), lower) if rq + 1 <= h - 1 else zeros
        total = add(total, add(
            scale(rho_sum(sub(upper, lower)), cfg.seam_beta),
            scale(rho_sum(sub(grad_p, grad_q)), cfg.seam_gamma)))
    return total


def reshape(a, shape) -> tape.Node:
    """``a`` with the same entries in a new shape."""
    a = as_node(a)
    old = a.value.shape
    return op(a.value.reshape(shape), (a,), (lambda g: g.reshape(old),))


# ---------------------------------------------------------------------------
# the array calls of coopdiff, and the pieces of a rollout step, as nodes
# ---------------------------------------------------------------------------

def mlp_node(mlp, *xs) -> tape.Node:
    """``mlp`` on the input parts ``xs`` (nodes or arrays) as one fused
    node whose VJP is ``Mlp.backward``: a constant part (the time
    features' shared row, say) gets no adjoint, a network with no trained
    weight forms no weight gradient (a frozen weight's is dropped by
    ``fused``), and the input adjoint is formed only over the column
    block that spans the live parts. The node keeps the call's hidden
    activations and, for a trained network, references to the parts; the
    part arrays are never written."""
    xs = [as_node(x) for x in xs]
    inputs = [*xs, *mlp.params()]   # x parts, w0, b0, w1, b1, ...
    flags = live(inputs)
    n_in = len(xs)
    parts = [x.value for x in xs]
    h, hidden = mlp(parts)
    if not any(flags):
        return constant(h)
    if not mlp.trained:
        parts = None                 # only the w0 gradient reads the input
    cols = list(itertools.accumulate((x.value.shape[1] for x in xs),
                                     initial=0))
    parts_live = [j for j in range(n_in) if flags[j]]
    span = ((cols[parts_live[0]], cols[parts_live[-1] + 1])
            if parts_live else None)

    def vjp(g):
        grads, g_in = mlp.backward(hidden, parts, g, span)
        ins = [g_in[:, cols[j] - span[0]:cols[j + 1] - span[0]]
               if flags[j] else None for j in range(n_in)]
        return ins + grads

    return fused(h, inputs, vjp)


def score_node(score_fn, x, t) -> tape.Node:
    """One call of a score model on the rows of ``x`` as one fused node
    over ``x`` and the model's trained weights, whose VJP is the call's
    pullback."""
    x = as_node(x)
    scores, (vjp, leaves) = score_fn(x.value, t)

    def node_vjp(g):
        a_x, a_leaves = vjp(g)
        return [a_x, *a_leaves]

    return fused(scores, [x, *leaves], node_vjp)


def cost_node(psi, y) -> tape.Node:
    """A cost ``psi(y, grad)`` as one ``rowwise`` node on ``y``; no
    gradient is formed when ``y`` requires none."""
    y = as_node(y)
    return rowwise(y, *psi(y.value, live([y])[0]))


def stacked_score(score_fn, xs, t: float) -> tape.Node:
    """One call of a shared score model on (N, B, d) states as N*B rows."""
    xs = as_node(xs)
    n, b, d = xs.value.shape
    return reshape(score_node(score_fn, reshape(xs, (n * b, d)), t),
                   (n, b, d))


def tweedie(x, t: float, score, schedule) -> tape.Node:
    """``scores.tweedie`` as one node with parents ``x`` and ``score``."""
    x, score = as_node(x), as_node(score)
    return fused(scores.tweedie(x.value, t, score.value, schedule),
                      (x, score),
                      lambda g: scores.tweedie_adjoint(g, t, schedule))


def aggregate(agg, states) -> tape.Node:
    """``aggregation.aggregate`` as one node; its VJP is the scatter."""
    states = as_node(states)
    return op(aggregation.aggregate(agg, states.value), (states,),
                   (lambda g: aggregation.scatter_adjoint(agg, g),))


def reverse_drift(x, t: float, score, schedule) -> tape.Node:
    """``sde.reverse_drift`` as one node with parents ``x`` and ``score``."""
    x, score = as_node(x), as_node(score)
    return fused(sde.reverse_drift(x.value, t, score.value, schedule),
                      (x, score),
                      lambda g: sde.reverse_drift_adjoint(g, t, schedule))


def em_step(x, dt: float, drift, g: float, noise, control=None) -> tape.Node:
    """``sde.em_step`` as one node over x, the drift and the control (when
    there is one)."""
    x, drift = as_node(x), as_node(drift)
    parents, u = [x, drift], None
    if control is not None:
        control = as_node(control)
        parents.append(control)
        u = control.value
    out = sde.em_step(x.value, dt, drift.value, g, noise, control=u)
    return fused(out, parents,
                      lambda a: sde.em_step_adjoint(a, dt, g)[:len(parents)])
