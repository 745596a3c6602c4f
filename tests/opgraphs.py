"""The terminal-cost pieces as compositions of elementary tape ops: the
graphs the fused nodes replace, kept as references for their values and
gradients, with the one non-elementary op they use, ``logsumexp``."""
import numpy as np

from coopdiff import tape


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
        return tape.gather_cols(y, np.arange(r * w, (r + 1) * w))

    def rho_sum(x):
        rho = tape.sqrt(tape.add(tape.mul(x, x), tape.constant(eps * eps)))
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
