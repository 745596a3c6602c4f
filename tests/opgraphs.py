"""Tape ops that no production module builds graphs from.

* Elementary ops, which the tape's own tests use as finite-difference
  oracles, and the terminal-cost pieces as compositions of them: the
  graphs the fused nodes replace, kept as references for their values and
  gradients, with the one non-elementary op they use, ``logsumexp``.
* The pieces of a rollout step as tape nodes: ``tweedie``, ``aggregate``,
  ``reverse_drift`` and ``em_step`` are each one node over the array
  function of the same name in ``coopdiff``, with that function's
  plain-array adjoint helper as its VJP, and ``stacked_score`` is one
  call of a shared score model on (N, B, d) states. ``oracles`` builds
  its taped reference rollouts from them.
"""
import numpy as np

from coopdiff import aggregation, scores, sde, tape


def neg(a) -> tape.Node:
    a = tape.as_node(a)
    return tape.op(-a.value, (a,), (lambda g: -g,))


def matmul(a, b) -> tape.Node:
    a, b = tape.as_node(a), tape.as_node(b)
    av, bv = a.value, b.value
    return tape.op(
        av @ bv,
        (a, b),
        (lambda g: g @ bv.T, lambda g: av.T @ g),
    )


def tanh(a) -> tape.Node:
    a = tape.as_node(a)
    y = np.tanh(a.value)
    return tape.op(y, (a,), (lambda g: g * (1.0 - y * y),))


def exp(a) -> tape.Node:
    a = tape.as_node(a)
    y = np.exp(a.value)
    return tape.op(y, (a,), (lambda g: g * y,))


def log(a) -> tape.Node:
    a = tape.as_node(a)
    av = a.value
    return tape.op(np.log(av), (a,), (lambda g: g / av,))


def sqrt(a) -> tape.Node:
    a = tape.as_node(a)
    y = np.sqrt(a.value)
    return tape.op(y, (a,), (lambda g: g * (0.5 / y),))


def concat(nodes, axis: int = 1) -> tape.Node:
    nodes = [tape.as_node(n) for n in nodes]
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

    return tape.op(y, tuple(nodes), tuple(make_vjp(i) for i in range(len(nodes))))


def stack(nodes) -> tape.Node:
    """Stack same-shape nodes along a new leading axis."""
    nodes = [tape.as_node(n) for n in nodes]
    vjps = tuple((lambda g, i=i: g[i]) for i in range(len(nodes)))
    return tape.op(np.stack([n.value for n in nodes]), tuple(nodes), vjps)


def index(a, i: int) -> tape.Node:
    """The slice ``a[i]`` along the leading axis."""
    a = tape.as_node(a)
    shape = a.value.shape

    def vjp(g):
        out = np.zeros(shape)
        out[i] = g
        return out

    return tape.op(a.value[i], (a,), (vjp,))


def gather_cols(a, idx) -> tape.Node:
    """Select columns ``a[:, idx]`` of a 2-D node."""
    a = tape.as_node(a)
    idx = np.asarray(idx, dtype=np.intp)
    shape = a.value.shape
    y = a.value[:, idx]

    def vjp(g):
        out = np.zeros(shape)
        np.add.at(out, (slice(None), idx), g)
        return out

    return tape.op(y, (a,), (vjp,))


def stopgrad(a) -> tape.Node:
    """Same forward value, zero adjoint flow: the result is a constant."""
    a = tape.as_node(a)
    return tape.constant(a.value)


def logsumexp(a, axis: int = 1, keepdims: bool = True):
    """Numerically stable log-sum-exp along one axis, one op."""
    a = tape.as_node(a)
    av = a.value
    amax = np.max(av, axis=axis, keepdims=True)
    y = np.log(np.sum(np.exp(av - amax), axis=axis, keepdims=True)) + amax
    softmax = np.exp(av - y)
    if not keepdims:
        y = np.squeeze(y, axis=axis)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return gg * softmax

    return tape.op(y, (a,), (vjp,))


def classifier_nll_ops(logits, labels):
    """logsumexp(logits) - logits[label] per row, for one label or one
    label per row, one elementary op at a time. The label's logit is the
    row sum of logits * onehot, which adds zeros to it and so is exact."""
    logits = tape.as_node(logits)
    rows, n_classes = logits.value.shape
    onehot = np.eye(n_classes)[np.broadcast_to(labels, (rows,))]
    picked = tape.reduce_sum(tape.mul(logits, tape.constant(onehot)),
                             axis=1, keepdims=True)
    return tape.sub(logsumexp(logits, axis=1, keepdims=True), picked)


def seam_loss_ops(y, agg, cfg):
    """``costs.seam_loss`` built from gather/sub/sqrt/sum ops per seam pair."""
    h, w = agg.image_hw
    y = tape.as_node(y)
    batch = y.value.shape[0]
    eps = cfg.charbonnier_eps

    def row(r):
        return gather_cols(y, np.arange(r * w, (r + 1) * w))

    def rho_sum(x):
        rho = sqrt(tape.add(tape.mul(x, x), tape.constant(eps * eps)))
        return tape.reduce_sum(rho, axis=1, keepdims=True)

    zeros = tape.constant(np.zeros((batch, w)))
    total = tape.constant(np.zeros((batch, 1)))
    for rp, rq in agg.seam_pairs:
        upper, lower = row(rp), row(rq)
        grad_p = tape.sub(upper, row(rp - 1)) if rp >= 1 else zeros
        grad_q = tape.sub(row(rq + 1), lower) if rq + 1 <= h - 1 else zeros
        total = tape.add(total, tape.add(
            tape.scale(rho_sum(tape.sub(upper, lower)), cfg.seam_beta),
            tape.scale(rho_sum(tape.sub(grad_p, grad_q)), cfg.seam_gamma)))
    return total


def reshape(a, shape) -> tape.Node:
    """``a`` with the same entries in a new shape."""
    a = tape.as_node(a)
    old = a.value.shape
    return tape.op(a.value.reshape(shape), (a,), (lambda g: g.reshape(old),))


# ---------------------------------------------------------------------------
# the pieces of a rollout step as tape nodes
# ---------------------------------------------------------------------------

def stacked_score(score_fn, xs, t: float) -> tape.Node:
    """One call of a shared score model on (N, B, d) states as N*B rows."""
    xs = tape.as_node(xs)
    n, b, d = xs.value.shape
    return reshape(score_fn(reshape(xs, (n * b, d)), t), (n, b, d))


def tweedie(x, t: float, score, schedule) -> tape.Node:
    """``scores.tweedie`` as one node with parents ``x`` and ``score``."""
    x, score = tape.as_node(x), tape.as_node(score)
    return tape.fused(scores.tweedie(x.value, t, score.value, schedule),
                      (x, score),
                      lambda g: scores.tweedie_adjoint(g, t, schedule))


def aggregate(agg, states) -> tape.Node:
    """``aggregation.aggregate`` as one node; its VJP is the scatter."""
    states = tape.as_node(states)
    return tape.op(aggregation.aggregate(agg, states.value), (states,),
                   (lambda g: aggregation.scatter_adjoint(agg, g),))


def reverse_drift(x, t: float, score, schedule) -> tape.Node:
    """``sde.reverse_drift`` as one node with parents ``x`` and ``score``."""
    x, score = tape.as_node(x), tape.as_node(score)
    return tape.fused(sde.reverse_drift(x.value, t, score.value, schedule),
                      (x, score),
                      lambda g: sde.reverse_drift_adjoint(g, t, schedule))


def em_step(x, dt: float, drift, g: float, noise, control=None) -> tape.Node:
    """``sde.em_step`` as one node over x, the drift and the control (when
    there is one)."""
    x, drift = tape.as_node(x), tape.as_node(drift)
    parents, u = [x, drift], None
    if control is not None:
        control = tape.as_node(control)
        parents.append(control)
        u = control.value
    out = sde.em_step(x.value, dt, drift.value, g, noise, control=u)
    return tape.fused(out, parents,
                      lambda a: sde.em_step_adjoint(a, dt, g)[:len(parents)])
