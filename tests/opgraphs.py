"""The terminal-cost pieces as compositions of elementary tape ops: the
graphs the fused nodes replace, kept as references for their values and
gradients."""
import numpy as np

from coopdiff import tape


def classifier_nll_ops(logits, label):
    """logsumexp(logits) - logits[label], one elementary op at a time."""
    logits = tape.as_node(logits)
    return tape.sub(tape.logsumexp(logits, axis=1, keepdims=True),
                    tape.gather_cols(logits, [label]))


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
