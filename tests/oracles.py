"""Reference samplers, losses, metrics and rollouts that only tests use."""
import numpy as np

from coopdiff import tape
from coopdiff.aggregation import aggregate, scatter_adjoint
from coopdiff.control import StateGuidance, tweedie_guidance
from coopdiff.costs import ClassifierNll, QuadraticWell, SeamAugmented, SocConfig
from coopdiff.nn import time_features
from coopdiff.optimize import sample_poe_naive
from coopdiff.sde import STREAM_INIT, STREAM_STEP, marginal_coeffs
import opgraphs as ops
from opgraphs import classifier_nll_ops, seam_loss_ops


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


def gmm_score_np(gmm, x, t, schedule):
    """Tape-free diffused-mixture score, vectorised over per-row times:
    the reference for ``scores.gmm_score``."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1), (x.shape[0],))
    alpha, sigma = marginal_coeffs(schedule, t)
    d = gmm.dim
    means = alpha[:, None, None] * gmm.means[None, :, :]          # (B, C, d)
    var = alpha[:, None] ** 2 * gmm.variances[None, :] + sigma[:, None] ** 2
    diff = x[:, None, :] - means                                  # (B, C, d)
    sq = (diff * diff).sum(axis=2)                                # (B, C)
    log_comp = (
        np.log(gmm.weights)[None, :]
        - 0.5 * d * np.log(2.0 * np.pi * var)
        - 0.5 * sq / var
    )
    lmax = log_comp.max(axis=1, keepdims=True)
    resp = np.exp(log_comp - lmax)
    resp /= resp.sum(axis=1, keepdims=True)
    return (resp[:, :, None] * (-diff / var[:, :, None])).sum(axis=1)


def row_time_gmm_score(gmm, schedule):
    """The mixture's score model at one time per row (score-matching
    evaluation): ``gmm_score_np`` as a constant node."""
    return lambda x, t: tape.constant(
        gmm_score_np(gmm, tape.as_node(x).value, t, schedule))


def selection_matrix(agg):
    """The dense selection matrix M of shape (d, N*d), Y = M vec(X)."""
    m = np.zeros((agg.dim, agg.num_agents * agg.dim))
    for i, s in enumerate(agg.index_sets):
        for j in s:
            m[j, i * agg.dim + j] = 1.0
    return m


def masked_control_energy(agg, controls):
    """|| M vec(u) ||^2: the energy the aggregate actually sees."""
    y = aggregate(agg, controls)
    return float((y * y).sum())


class ZeroCost:
    """psi identically zero (place-holder for cost-free dynamics), one
    ``rowwise`` node with a zero gradient."""

    def __call__(self, y):
        y = tape.as_node(y)
        return tape.rowwise(y, np.zeros((y.value.shape[0], 1)),
                            np.zeros_like(y.value))


class GaussianNll:
    """Negative log density of an isotropic target Gaussian, one
    ``rowwise`` node with the gradient (y - mean) / variance."""

    def __init__(self, mean, variance: float):
        self.mean = np.asarray(mean, dtype=np.float64).reshape(-1)
        if variance <= 0:
            raise ValueError("variance must be positive")
        self.variance = float(variance)

    def __call__(self, y):
        y = tape.as_node(y)
        diff = y.value - self.mean
        log_norm = 0.5 * self.mean.size * np.log(2.0 * np.pi * self.variance)
        value = ((diff * diff).sum(axis=1, keepdims=True)
                 * (0.5 / self.variance) + np.array([log_norm]))
        return tape.rowwise(y, value, diff * (1.0 / self.variance))


def soc_objective(record, cfg: SocConfig, psi) -> float:
    """Recompute hat-J from a stored rollout, tape-free.

    ``record`` must expose dts, times, controls[k] (N, B, d), y0_hats[k],
    terminal_y, batch and num_agents (see ``rollout_history.History``).
    Used to cross-check the fused objective assembled during the
    differentiable rollout.
    """
    if record.batch == 0:
        raise ValueError("empty batch")
    lambdas = cfg.lambda_weights(record.num_agents)
    with tape.no_grad():
        control_term = 0.0
        run_term = 0.0
        for k, dt in enumerate(record.dts):
            u = np.asarray(record.controls[k])
            control_term += float(lambdas @ (u * u).sum(axis=2).mean(axis=1)) * dt
            psi_hat = psi(tape.constant(record.y0_hats[k])).value
            run_term += cfg.running_weight(record.times[k]) * float(psi_hat.mean()) * dt
        term = float(psi(tape.constant(record.terminal_y)).value.mean())
    return control_term + run_term + term


def taped_control(policy, x, y, t, guidance):
    """u = NN1([x, Y, g, feats]) + NN2(feats) * g from tape nodes (the two
    ``Mlp`` calls, a ``mul`` and an ``add``), with g a constant."""
    g = tape.constant(guidance)
    feats = time_features(t, policy.temb_width, batch=g.value.shape[0])
    drift = policy.nn1(x, y, g, feats)
    return tape.add(drift, tape.mul(policy.nn2(feats[:1]), g))


def taped_rollout(policies, score_fn, agg, cfg, grid, psi, schedule, noise,
                  batch):
    """hat-J of a learned-control rollout (update 0) built on the generic
    tape, one node per piece, as the rollout was before it kept its own
    step records: the reference its reverse sweep is checked against.

    The forward arithmetic is the rollout's, so the objective is
    bit-equal to it; the gradients come from the pieces' own VJPs, the
    control's and the energy's from elementary ops.
    """
    n, d = agg.num_agents, agg.dim
    lambdas = cfg.lambda_weights(n)
    sigma0 = float(schedule.sigma(grid.times[0]))
    xs = tape.constant(sigma0 * noise.normal((STREAM_INIT, 0, 0), (n, batch, d)))
    terms, running_sum, control_sum = [], 0.0, 0.0
    for k in range(grid.times.size - 1):
        t, dt = float(grid.times[k]), float(grid.dts[k])
        y = ops.aggregate(agg, xs)
        scores = ops.stacked_score(score_fn, xs, t)
        y0_hat = ops.aggregate(agg, ops.tweedie(xs, t, scores, schedule))
        psi_value, grad = tweedie_guidance(psi, y0_hat)
        weight = cfg.running_weight(t) * dt
        running = psi_value.sum() * (1.0 / batch) * weight
        running_sum = running_sum + running
        terms.append(tape.rowwise(y0_hat, running,
                                  grad * (weight * (1.0 / batch))))
        guidance = scatter_adjoint(agg, grad)
        controls = ops.stack([
            taped_control(p, ops.index(xs, i), y, t, guidance[i])
            for i, p in enumerate(policies)])
        u = controls.value
        control_sum = control_sum + (
            (u * u).sum(axis=2).sum(axis=1) * (1.0 / batch)
            * (lambdas * dt)).sum()
        scale = (lambdas * dt / batch)[:, None, None]
        terms.append(tape.reduce_sum(tape.mul(tape.mul(controls, controls),
                                              scale)))
        xi = noise.normal((STREAM_STEP, 0, k), (n, batch, d))
        mu = ops.reverse_drift(xs, t, scores, schedule)
        xs = ops.em_step(xs, dt, mu, float(schedule.g(t)), xi,
                         control=controls)
    psi_term = psi(ops.aggregate(agg, xs))
    terminal = tape.scale(tape.reduce_sum(psi_term), 1.0 / batch)
    parents = [p for p in (terminal, *terms) if p.requires_grad]
    return tape.fused(terminal.value + running_sum + control_sum, parents,
                      lambda g: (g,) * len(parents))


def taped_state_guidance(score_fn, agg, psi, schedule, x_values, t):
    """``control.state_guidance`` as one sub-tape on a detached state leaf
    and ``tape.backward``, as it was before it ran on plain arrays: the
    reference it is checked against."""
    with tape.grad_enabled():
        xs = tape.leaf(tape.as_node(x_values).value)
        scores = ops.stacked_score(score_fn, xs, t)
        y0_hat = ops.aggregate(agg, ops.tweedie(xs, t, scores, schedule))
        psi_y0 = psi(y0_hat)
        tape.backward(tape.reduce_sum(psi_y0))
    grad = xs.grad if xs.grad is not None else np.zeros_like(xs.value)
    return StateGuidance(scores.value, y0_hat.value, psi_y0.value, grad)


def taped_cost(psi):
    """A cost from ``costs`` as a graph of elementary tape ops and ``Mlp``
    calls: the reference for its closed-form value and gradient."""
    if isinstance(psi, SeamAugmented):
        base = taped_cost(psi.base)
        return lambda y: tape.add(base(y), seam_loss_ops(y, psi.agg, psi.cfg))
    if isinstance(psi, ClassifierNll):
        return lambda y: classifier_nll_ops(psi.classifier(y), psi.label)
    if isinstance(psi, QuadraticWell):
        return lambda y: tape.square_norm(
            tape.sub(y, tape.constant(psi.target)), axis=1, keepdims=True)
    raise TypeError(f"no tape reference for {type(psi).__name__}")
