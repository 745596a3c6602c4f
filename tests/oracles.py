"""Reference samplers, losses, metrics, rollouts and readers that only
tests use."""
from pathlib import Path

import numpy as np

from coopdiff import tape
from coopdiff.aggregation import aggregate, scatter_adjoint
from coopdiff.control import tweedie_guidance
from coopdiff.costs import ClassifierNll, QuadraticWell, SeamAugmented, SocConfig
from coopdiff.nn import dense, time_features
from coopdiff.optimize import sample_poe_naive
from coopdiff.scores import GaussianMixture
from coopdiff.sde import STREAM_INIT, STREAM_STEP, NoiseStream, marginal_coeffs
import opgraphs as ops
from opgraphs import classifier_nll_ops, seam_loss_ops


def sample_reverse_sde(score_fn, grid, schedule, seed, batch, dim):
    """Ordinary single-model sampling through ``src``: the one-expert case
    of ``sample_poe_naive``, a one-agent ``coupled_rollout``."""
    return sample_poe_naive([score_fn], dim, SocConfig(), grid, ZeroCost(),
                            schedule, seed, batch).terminal_y


def reverse_sde_reference(score_fn, grid, schedule, seed, batch, dim):
    """Euler-Maruyama sampling of the reverse SDE of one score model, step
    by step, independent of ``sample_poe_naive`` and ``coupled_rollout``:
    x' = x + (0.5 beta x + beta s) dt + sqrt(beta dt) xi, with the
    arithmetic of ``reverse_drift`` and ``em_step`` in their order and the
    noise keys of a one-agent rollout at noise index 0."""
    noise = NoiseStream(seed)
    times, dts = grid.times, grid.dts
    sigma0 = float(schedule.sigma(times[0]))
    x = sigma0 * noise.normal((STREAM_INIT, 0, 0), (1, batch, dim))[0]
    for k in range(times.size - 1):
        t, dt = float(times[k]), float(dts[k])
        b = float(schedule.beta(t))
        mu = x * (0.5 * b) + score_fn(x, t)[0] * b
        xi = noise.normal((STREAM_STEP, 0, k), (1, batch, dim))[0]
        x = (x + mu * dt) + (float(schedule.g(t)) * np.sqrt(dt)) * xi
    return x


def gmm_sample(gmm, rng, n):
    """``n`` draws from the mixture ``gmm``: a component by its weight,
    then a draw from that component."""
    comp = rng.choice(gmm.num_components, size=n, p=gmm.weights)
    eps = rng.standard_normal((n, gmm.dim))
    return gmm.means[comp] + np.sqrt(gmm.variances[comp])[:, None] * eps


def gmm_diffused(gmm, t, schedule):
    """The time-t diffused mixture of ``gmm``."""
    means, variances = gmm.diffused_params(t, schedule)
    return GaussianMixture(weights=gmm.weights, means=means,
                           variances=variances)


def gmm_log_density(gmm, x):
    """log p(x) of the mixture ``gmm`` for the rows of x, stabilised with
    log-sum-exp."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    d = gmm.dim
    sq = ((x[:, None, :] - gmm.means[None, :, :]) ** 2).sum(axis=2)  # (B, C)
    log_comp = (
        np.log(gmm.weights)[None, :]
        - 0.5 * d * np.log(2.0 * np.pi * gmm.variances)[None, :]
        - 0.5 * sq / gmm.variances[None, :]
    )
    lmax = log_comp.max(axis=1, keepdims=True)
    return (np.log(np.exp(log_comp - lmax).sum(axis=1, keepdims=True)) + lmax)[:, 0]


def read_pgm(path):
    """The uint8 pixels of a binary PGM (P5) file that
    ``harness.gridio.write_pgm`` wrote, exactly."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM file")
    # header: magic, width, height, maxval; comments start with '#'
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos] in b" \t\r\n":
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos] not in b" \t\r\n":
            pos += 1
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    w, h, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pixels = np.frombuffer(data[pos:pos + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise ValueError(f"{path}: truncated pixel data")
    return pixels.reshape(h, w).copy()


def confusion_matrix(classifier, images, labels):
    """Counts of (true label, predicted label) pairs, shape (C, C)."""
    pred = classifier([images])[0].argmax(axis=1)
    n = classifier.out_dim
    out = np.zeros((n, n), dtype=np.int64)
    np.add.at(out, (labels, pred), 1)
    return out


def dsm_loss(score_fn, batch, times, noises, schedule, eps=1e-3):
    """Monte Carlo denoising score-matching loss, a float.

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
    resid = score_fn(x_t, t)[0] - target
    return float((resid * resid).sum(axis=1, keepdims=True).sum()
                 * (1.0 / x0.shape[0]))


def taped_denoiser_loss(score_net, batch, times, noises, schedule,
                        eps=1e-3):
    """``scores.denoiser_loss`` as a tape graph: the denoiser head x_t + r
    on the fused Mlp call, and the batch mean of ||head - x_0||^2 from
    elementary ops. ``opgraphs.backward`` on it fills the weights' ``.grad``."""
    x0 = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    t = np.clip(np.asarray(times, dtype=np.float64).reshape(-1), eps, 1.0)
    alpha, sigma = marginal_coeffs(schedule, t)
    x_t = ops.constant(alpha[:, None] * x0
                       + sigma[:, None] * np.asarray(noises, dtype=np.float64))
    feats = time_features(t, score_net.temb_width)
    resid = ops.sub(ops.add(x_t, ops.mlp_node(score_net.mlp, x_t, feats)),
                    ops.constant(x0))
    per_sample = ops.square_norm(resid, axis=1, keepdims=True)
    return ops.scale(ops.reduce_sum(per_sample), 1.0 / x0.shape[0])


def taped_classifier_loss(model, images, labels):
    """``classifier.batch_loss`` as a tape graph: the batch mean of
    ``opgraphs.classifier_nll`` on the fused Mlp call."""
    per_row = ops.classifier_nll(ops.mlp_node(model, images), labels)
    return ops.scale(ops.reduce_sum(per_row), 1.0 / images.shape[0])


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


def taped_mlp_score(net, x, t):
    """``MlpScore``'s call at a scalar time as two tape nodes: the fused
    Mlp on [x, time features] and the residual/affine tail
    (alpha (x + r) - x) / sigma^2 as one op on x and r. Its
    ``opgraphs.pullback`` is the reference for the call's pullback."""
    x = ops.as_node(x)
    feats = time_features(t, net.temb_width)
    r = ops.mlp_node(net.mlp, x, feats)
    alpha, sigma = marginal_coeffs(net.schedule, t)
    a, inv = float(alpha), 1.0 / float(max(sigma ** 2, 1e-8))
    value = ((x.value + r.value) * a - x.value) * inv

    def vjp_x(g):
        g = g * inv
        return g * a - g

    return ops.op(value, (x, r), (vjp_x, lambda g: (g * inv) * a))


def taped_gmm_score(gmm, x, t, schedule):
    """The diffused mixture's score at one time from elementary ops, in
    ``scores.gmm_score``'s order of operations, so its value is bit-equal.
    Its tape adjoint is autodiff's J^T g, which the symmetric Jacobian
    makes the closed-form J g of the score's pullback, up to rounding."""
    alpha, sigma = marginal_coeffs(schedule, t)
    means = alpha * gmm.means
    variances = alpha * alpha * gmm.variances + sigma * sigma
    log_w = (np.log(gmm.weights)
             - 0.5 * gmm.dim * np.log(2.0 * np.pi * variances))
    diffs = [ops.sub(x, m) for m in means]
    comp = [ops.scale(diff, -1.0 / v) for diff, v in zip(diffs, variances)]
    if gmm.num_components == 1:
        return comp[0]
    logits = ops.concat([
        ops.add(ops.scale(ops.square_norm(diff, axis=1, keepdims=True),
                          -0.5 / v), np.array([lw]))
        for diff, v, lw in zip(diffs, variances, log_w)], axis=1)
    resp = ops.exp(ops.sub(logits, ops.logsumexp(logits)))
    out = ops.mul(ops.gather_cols(resp, [0]), comp[0])
    for i in range(1, len(comp)):
        out = ops.add(out, ops.mul(ops.gather_cols(resp, [i]), comp[i]))
    return out


def row_time_gmm_score(gmm, schedule):
    """The mixture's score model at one time per row (score-matching
    evaluation): ``gmm_score_np``, with no pullback."""
    return lambda x, t: (gmm_score_np(gmm, x, t, schedule), None)


def row_time_mlp_score(net):
    """A score network at one time per row (score-matching evaluation):
    ``MlpScore``'s scores (alpha (x + r) - x) / sigma^2 with alpha and
    sigma per row, from ``net.mlp``, with no pullback."""
    def score(x, t):
        r = net.mlp([x, time_features(t, net.temb_width)])[0]
        alpha, sigma = marginal_coeffs(net.schedule, t)
        a = np.asarray(alpha).reshape(-1, 1)
        inv = (1.0 / np.maximum(np.asarray(sigma) ** 2, 1e-8)).reshape(-1, 1)
        return ((x + r) * a - x) * inv, None
    return score


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
    """psi identically zero (place-holder for cost-free dynamics), with a
    zero gradient."""

    def __call__(self, y, grad=True):
        return np.zeros((y.shape[0], 1)), (np.zeros_like(y) if grad else None)


class GaussianNll:
    """Negative log density of an isotropic target Gaussian, with the
    gradient (y - mean) / variance."""

    def __init__(self, mean, variance: float):
        self.mean = np.asarray(mean, dtype=np.float64).reshape(-1)
        if variance <= 0:
            raise ValueError("variance must be positive")
        self.variance = float(variance)

    def __call__(self, y, grad=True):
        diff = y - self.mean
        log_norm = 0.5 * self.mean.size * np.log(2.0 * np.pi * self.variance)
        value = ((diff * diff).sum(axis=1, keepdims=True)
                 * (0.5 / self.variance) + np.array([log_norm]))
        return value, (diff * (1.0 / self.variance) if grad else None)


def soc_objective(record, cfg: SocConfig, psi) -> float:
    """Recompute hat-J from a stored rollout, tape-free.

    ``record`` must expose dts, times, controls[k] (N, B, d), y0_hats[k],
    terminal_y, batch and num_agents (see ``rollout_history.History``).
    Used to cross-check the fused objective assembled during the
    differentiable rollout.
    """
    if record.batch == 0:
        raise ValueError("empty batch")
    energy_weight = cfg.control_weight / record.num_agents
    control_term = 0.0
    run_term = 0.0
    for k, dt in enumerate(record.dts):
        u = np.asarray(record.controls[k])
        energy = float((u * u).sum(axis=2).mean(axis=1).sum())
        control_term += energy_weight * energy * dt
        psi_hat = psi(record.y0_hats[k], grad=False)[0]
        run_term += (cfg.running_weight(record.times[k])
                     * float(psi_hat.mean()) * dt)
    term = float(psi(record.terminal_y, grad=False)[0].mean())
    return control_term + run_term + term


def lq_costs(mean, variance, target, agg, cfg: SocConfig, grid, schedule):
    """The exact expected hat-J of the coupled rollout on the
    linear-quadratic task, by the backward Riccati recursion on the EM grid.

    The task: one Gaussian component N(mean, variance I) as the score
    model, a partition mask ``agg`` and the quadratic well psi(Y) =
    ||Y - target||^2. The analytic score, Tweedie, the aggregate, the
    drift and the EM step are then affine in the states, and every cost is
    quadratic, so each coordinate j is a scalar LQ problem for the agent
    that owns it: x' = A x + c + B u + w with w ~ N(0, beta dt), step cost
    alpha_t dt (p x + q - target_j)^2 + (lambda / N) dt u^2, terminal cost
    (x - target_j)^2, and x_0 ~ N(0, sigma(t_0)^2). A coordinate's other
    agents see no cost of it, so their optimal control there is 0. The
    cost-to-go is V_k(x) = P x^2 + 2 r x + s.

    Returns (J*, J_zero, gains, offsets): the optimal and the zero-control
    expected costs, and the optimal feedback u_j = -(gains[k, j] x_j +
    offsets[k, j]) of coordinate j's owner at step k, each (K, d).
    """
    mean = np.asarray(mean, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    lam = cfg.control_weight / agg.num_agents
    steps = grid.times.size - 1
    gains, offsets = np.zeros((steps, agg.dim)), np.zeros((steps, agg.dim))
    # (P, r, s) of the optimal and of the zero control, from V_K
    best = zero = (np.ones(agg.dim), -target, target * target)
    for k in range(steps - 1, -1, -1):
        t, dt = float(grid.times[k]), float(grid.dts[k])
        alpha, sigma = (float(v) for v in marginal_coeffs(schedule, t))
        var = alpha * alpha * variance + sigma * sigma   # diffused variance
        beta = float(schedule.beta(t))
        # the score -(x - alpha mean) / var in the drift and in Tweedie
        a = 1.0 + (0.5 * beta - beta / var) * dt
        c = beta * alpha * mean / var * dt
        b = float(schedule.g(t)) * dt
        p = (1.0 - sigma * sigma / var) / alpha
        q = sigma * sigma * mean / var - target
        w = cfg.running_weight(t) * dt
        out = []
        for (big_p, r, s), optimal in ((best, True), (zero, False)):
            qxx = w * p * p + big_p * a * a
            qx = w * p * q + a * (big_p * c + r)
            qc = w * q * q + big_p * c * c + 2.0 * r * c + s + big_p * beta * dt
            if optimal:
                quu = lam * dt + big_p * b * b
                qxu, qu = big_p * a * b, b * (big_p * c + r)
                gains[k], offsets[k] = qxu / quu, qu / quu
                qxx, qx, qc = (qxx - qxu * qxu / quu, qx - qxu * qu / quu,
                               qc - qu * qu / quu)
            out.append((qxx, qx, qc))
        best, zero = out
    sigma0 = float(schedule.sigma(grid.times[0]))
    j_star, j_zero = (float((big_p * sigma0 * sigma0 + s).sum())
                      for big_p, _, s in (best, zero))
    return j_star, j_zero, gains, offsets


class LinearFeedback:
    """A control source for the tests: the feedback u = -(gains[k] x +
    offsets[k]) on the coordinates each agent owns, zero on the others,
    keyed by the step index; it reads no cost gradient."""

    guidance = None
    params = list            # no parameters: params() is []

    def __init__(self, agg, gains, offsets):
        self.masks = agg.masks[:, None, :]
        self.gains, self.offsets = gains, offsets

    def __call__(self, k, t, xs, y, grad):
        return -(xs * self.gains[k] + self.offsets[k]) * self.masks, None


class PerAgentControls:
    """The learned controls as a loop over the agents' policies, each
    called on its own (B, d) rows: one ``forward``, ``control`` and
    ``backward`` per agent per step, as the rollout ran them before the
    policies were stacked. The reference ``optimize.PolicyControls``' one
    stacked policy is checked against; its tensors are the leaves
    themselves, so ``split`` only folds their sums."""

    guidance = "tweedie"

    def __init__(self, policies, agg):
        self.policies, self.agg = list(policies), agg

    def params(self):
        return [p for policy in self.policies for p in policy.params()]

    def __call__(self, k, t, xs, y, grad_psi):
        guidance = scatter_adjoint(self.agg, grad_psi)
        us = np.empty_like(xs)
        caches = []
        for i, policy in enumerate(self.policies):
            us[i], cache = policy.forward(xs[i], y, guidance[i], t)
            caches.append(cache)
        return us, caches

    def backward(self, caches, t, xs, y, grad_psi, a_u, energy, a_x=None):
        guidance = scatter_adjoint(self.agg, grad_psi)
        d = self.agg.dim
        span = (0, 2 * d) if a_x is not None else None
        grads, a_y = [], None
        for i, (policy, cache) in enumerate(zip(self.policies, caches)):
            half = policy.control(cache, xs[i], y, guidance[i], t) * energy
            a_u[i] += half + half
            g, g_in = policy.backward(cache, xs[i], y, guidance[i], t,
                                      a_u[i], span)
            grads += g
            if span:
                a_x[i] += g_in[:, :d]
                a_y = g_in[:, d:] if a_y is None else a_y + g_in[:, d:]
        return grads, a_y

    def split(self, sums):
        return {id(p): dense(sums[j]) for j, p in enumerate(self.params())
                if j in sums}


def taped_control(policy, x, y, t, guidance):
    """u = NN1([x, Y, g, feats]) + NN2(feats) * g from tape nodes (the two
    ``Mlp`` calls, a ``mul`` and an ``add``), with g a constant."""
    g = ops.constant(guidance)
    feats = time_features(t, policy.temb_width)
    drift = ops.mlp_node(policy.nn1, x, y, g, feats)
    return ops.add(drift, ops.mul(ops.mlp_node(policy.nn2, feats), g))


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
    energy_weight = cfg.control_weight / n
    sigma0 = float(schedule.sigma(grid.times[0]))
    xs = ops.constant(sigma0 * noise.normal((STREAM_INIT, 0, 0),
                                            (n, batch, d)))
    terms, running_sum, control_sum = [], 0.0, 0.0
    for k in range(grid.times.size - 1):
        t, dt = float(grid.times[k]), float(grid.dts[k])
        y = ops.aggregate(agg, xs)
        scores = ops.stacked_score(score_fn, xs, t)
        y0_hat = ops.aggregate(agg, ops.tweedie(xs, t, scores, schedule))
        psi_value, grad = tweedie_guidance(psi, y0_hat.value)
        weight = cfg.running_weight(t) * dt
        running = psi_value.sum() * (1.0 / batch) * weight
        running_sum = running_sum + running
        terms.append(ops.rowwise(y0_hat, running,
                                 grad * (weight * (1.0 / batch))))
        guidance = scatter_adjoint(agg, grad)
        controls = ops.stack([
            taped_control(p, ops.index(xs, i), y, t, guidance[i])
            for i, p in enumerate(policies)])
        u = controls.value
        control_sum = control_sum + (
            (u * u).sum(axis=2).sum(axis=1) * (1.0 / batch)
            * (energy_weight * dt)).sum()
        scale = np.full((n, 1, 1), (energy_weight * dt) * (1.0 / batch))
        terms.append(ops.reduce_sum(ops.mul(ops.mul(controls, controls),
                                              scale)))
        xi = noise.normal((STREAM_STEP, 0, k), (n, batch, d))
        mu = ops.reverse_drift(xs, t, scores, schedule)
        xs = ops.em_step(xs, dt, mu, float(schedule.g(t)), xi,
                         control=controls)
    psi_term = ops.cost_node(psi, ops.aggregate(agg, xs))
    terminal = ops.scale(ops.reduce_sum(psi_term), 1.0 / batch)
    parents = [p for p in (terminal, *terms) if p.requires_grad]
    return ops.fused(terminal.value + running_sum + control_sum, parents,
                      lambda g: (g,) * len(parents))


def taped_state_guidance(score_fn, agg, psi, schedule, x_values, t):
    """The cdps state gradient as one sub-tape on a detached state leaf and
    ``opgraphs.backward``, as it was before it ran on plain arrays: the
    reference the rollout's step is checked against. Returns (scores,
    Y0_hat, psi(Y0_hat), grad_X psi(Y0_hat))."""
    with ops.grad_enabled():
        xs = tape.leaf(ops.as_node(x_values).value)
        scores = ops.stacked_score(score_fn, xs, t)
        y0_hat = ops.aggregate(agg, ops.tweedie(xs, t, scores, schedule))
        psi_y0 = ops.cost_node(psi, y0_hat)
        ops.backward(ops.reduce_sum(psi_y0))
    grad = xs.grad if xs.grad is not None else np.zeros_like(xs.value)
    return scores.value, y0_hat.value, psi_y0.value, grad


def taped_cost(psi):
    """A cost from ``costs`` as a graph of elementary tape ops and ``Mlp``
    calls: the reference for its closed-form value and gradient."""
    if isinstance(psi, SeamAugmented):
        base = taped_cost(psi.base)
        return lambda y: ops.add(base(y), seam_loss_ops(y, psi.agg, psi.cfg))
    if isinstance(psi, ClassifierNll):
        return lambda y: classifier_nll_ops(ops.mlp_node(psi.classifier, y),
                                            psi.label)
    if isinstance(psi, QuadraticWell):
        return lambda y: ops.square_norm(
            ops.sub(y, ops.constant(psi.target)), axis=1, keepdims=True)
    raise TypeError(f"no tape reference for {type(psi).__name__}")
