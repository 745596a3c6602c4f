"""Reference samplers, losses and metrics that only tests use."""
import numpy as np

from coopdiff import tape
from coopdiff.aggregation import aggregate
from coopdiff.optimize import sample_poe_naive
from coopdiff.sde import marginal_coeffs


def sample_reverse_sde(score_fn, grid, schedule, seed, batch, dim):
    """Ordinary single-model sampling: the one-expert case of
    ``sample_poe_naive``."""
    return sample_poe_naive([score_fn], grid, schedule, seed, batch, dim)


def confusion_matrix(classifier, images, labels):
    """Counts of (true label, predicted label) pairs, shape (C, C)."""
    with tape.no_grad():
        pred = classifier(images).value.argmax(axis=1)
    n = classifier.out_dim
    out = np.zeros((n, n), dtype=np.int64)
    np.add.at(out, (labels, pred), 1)
    return out


def dsm_loss(score_fn, batch, times, noises, schedule, eps=1e-3):
    """Monte Carlo denoising score-matching loss.

    mean over the batch of || -noise/sigma(t) - S(x_t, t) ||^2 where
    x_t = alpha(t) x_0 + sigma(t) noise. Times are clamped to [eps, 1]
    to avoid the sigma -> 0 singularity of the conditional score.
    """
    x0 = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if x0.shape[0] == 0:
        raise ValueError("dsm_loss needs a non-empty batch")
    t = np.clip(np.asarray(times, dtype=np.float64).reshape(-1), eps, 1.0)
    eps_arr = np.asarray(noises, dtype=np.float64)
    if eps_arr.shape != x0.shape or t.size != x0.shape[0]:
        raise ValueError("batch, times and noises must agree in length/shape")
    alpha, sigma = marginal_coeffs(schedule, t)
    x_t = alpha[:, None] * x0 + sigma[:, None] * eps_arr
    target = -eps_arr / sigma[:, None]
    pred = score_fn(tape.constant(x_t), t)
    resid = tape.sub(pred, tape.constant(target))
    per_sample = tape.square_norm(resid, axis=1, keepdims=True)
    return tape.scale(tape.reduce_sum(per_sample), 1.0 / x0.shape[0])


def selection_matrix(agg):
    """The dense selection matrix M of shape (d, N*d), Y = M vec(X)."""
    m = np.zeros((agg.dim, agg.num_agents * agg.dim))
    for i, s in enumerate(agg.index_sets):
        for j in s:
            m[j, i * agg.dim + j] = 1.0
    return m


def aggregate_np(agg, states):
    """``aggregate`` on arrays, as an array."""
    with tape.no_grad():
        return aggregate(agg, states).value


def masked_control_energy(agg, controls):
    """|| M vec(u) ||^2: the energy the aggregate actually sees."""
    y = aggregate_np(agg, controls)
    return float((y * y).sum())
