"""Score functions: analytic Gaussian-mixture scores, a trainable score
network, denoising score matching, and the Tweedie denoiser.

A diffused isotropic GMM is again a GMM: component i with weight w_i, mean
mu_i and variance s_i^2 becomes, at diffusion time t, a component with mean
alpha(t) mu_i and variance alpha(t)^2 s_i^2 + sigma(t)^2. Its score is exact
and is used as the oracle-grade score model for low-dimensional tasks.

A score model is called on a (rows, d) array of states at one time,
``score_fn(x, t)``, and returns the scores and their pullback, in the
``jax.vjp`` idiom: ``(vjp, leaves)``, where ``leaves`` are the model's
weights that require grad (none for the analytic mixture and for a frozen
network) and ``vjp(g)`` returns the states' adjoint and one adjoint per
leaf. The mixture's ``vjp`` is the Hessian-vector product of the diffused
log density; the network's pushes ``g`` through its residual/affine tail
and ``Mlp.backward``. ``tweedie`` maps arrays to an array; its adjoint is
``tweedie_adjoint``. The score network's fit calls the network the same
way: ``denoiser_loss`` returns the loss and its weight gradients, the
loss's closed-form adjoint pushed through ``Mlp.backward`` and folded to
arrays with ``nn.dense``, in the network's dtype (float32 during the
fit, see ``harness.experiment.train_score_model``). Nothing here builds
a tape node: a pullback only names its trained weights, as ``leaves``,
for the training rollout's objective (``optimize``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Mlp, dense, time_features
from .sde import NoiseSchedule, marginal_coeffs

Array = np.ndarray

ALPHA_FLOOR = 1e-12


@dataclass(frozen=True)
class GaussianMixture:
    """Isotropic Gaussian mixture in R^d."""

    weights: Array   # (C,), simplex
    means: Array     # (C, d)
    variances: Array # (C,), > 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        v = np.asarray(self.variances, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)
        if w.ndim != 1 or m.shape[0] != w.size or v.shape != w.shape:
            raise ValueError("inconsistent mixture shapes")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must form a simplex, got sum {w.sum()!r}")
        if np.any(v <= 0):
            raise ValueError("component variances must be positive")

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def num_components(self) -> int:
        return self.weights.size

    def diffused_params(self, t: float, schedule: NoiseSchedule):
        """(means, variances) of the time-t diffused mixture; its weights
        are this mixture's. No mixture is built, so nothing is validated
        again on the hot path."""
        alpha, sigma = marginal_coeffs(schedule, t)
        return alpha * self.means, alpha * alpha * self.variances + sigma * sigma


def gmm_score(gmm: GaussianMixture, x: Array, t: float,
              schedule: NoiseSchedule):
    """Exact score of the time-t diffused mixture at the rows of ``x``,
    and its Hessian-vector product ``hvp(g)`` = J g, the closed form of
    the VJP of the diffused log density's gradient: with responsibilities
    r_i, component scores s_i = -(x - m_i) / v_i and the score
    s_bar = sum_i r_i s_i, the Jacobian is the symmetric
    J = sum_i r_i (-I / v_i) + sum_i r_i s_i s_i^T - s_bar s_bar^T.
    """
    means, variances = gmm.diffused_params(t, schedule)
    d = gmm.dim
    log_w = np.log(gmm.weights) - 0.5 * d * np.log(2.0 * np.pi * variances)
    diffs = [x - means[i] for i in range(gmm.num_components)]
    if gmm.num_components == 1:
        c = float(-1.0 / variances[0])
        return diffs[0] * c, lambda g: g * c

    logits = [
        (diff * diff).sum(axis=1, keepdims=True) * float(-0.5 / v)
        + np.array([lw])
        for diff, v, lw in zip(diffs, variances, log_w)
    ]
    logit_mat = np.concatenate(logits, axis=1)                  # (B, C)
    amax = np.max(logit_mat, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(logit_mat - amax), axis=1, keepdims=True)) + amax
    resp = np.exp(logit_mat - lse)                              # (B, C)
    comp = [diff * float(-1.0 / v) for diff, v in zip(diffs, variances)]
    out = resp[:, [0]] * comp[0]
    for i in range(1, len(comp)):
        out = out + resp[:, [i]] * comp[i]

    def hvp(g):
        # J g, with J symmetric
        jg = g * (resp @ (-1.0 / variances))[:, None]
        for i, s_i in enumerate(comp):
            jg += (resp[:, i] * (s_i * g).sum(axis=1))[:, None] * s_i
        jg -= (out * g).sum(axis=1, keepdims=True) * out
        return jg

    return out, hvp


class AnalyticGmmScore:
    """Score model backed by a closed-form mixture, at a scalar time; it
    has no weights, so its pullback has no leaves."""

    def __init__(self, gmm: GaussianMixture, schedule: NoiseSchedule):
        self.gmm = gmm
        self.schedule = schedule

    def __call__(self, x: Array, t):
        scores, hvp = gmm_score(self.gmm, x, float(np.asarray(t).reshape(())),
                                self.schedule)
        return scores, (lambda g: (hvp(g), []), [])


def summed_score(score_fns):
    """The score model whose scores are the experts' scores added in list
    order. Its pullback is the sum of theirs: the states' adjoints added
    in the same order, and every expert's leaves with their adjoints.

    An expert listed more than once (the same object) is called, and its
    pullback run, once per call; its scores and states' adjoint are added
    once per entry, and its leaves and leaf adjoints appear at each entry
    (as the same objects)."""
    if not score_fns:
        raise ValueError("need at least one score model")
    first = {}                  # id -> the expert's index in ``distinct``
    slots = [first.setdefault(id(fn), len(first)) for fn in score_fns]
    distinct = list({id(fn): fn for fn in score_fns}.values())

    def score_fn(x: Array, t):
        calls = [fn(x, t) for fn in distinct]
        outs = [calls[k] for k in slots]

        def vjp(g):
            pulled = [pull[0](g) for _, pull in calls]
            adjs = [pulled[k] for k in slots]
            return (sum((a for a, _ in adjs[1:]), adjs[0][0]),
                    [a for _, a_leaves in adjs for a in a_leaves])

        return (sum((s for s, _ in outs[1:]), outs[0][0]),
                (vjp, [leaf for _, pull in outs for leaf in pull[1]]))

    return score_fn


class MlpScore:
    """Trainable score network with a denoiser head.

    The Mlp maps [x, time_features(t)] to a residual r(x, t); the denoised
    estimate is m(x, t) = x + r(x, t) and the score is the
    conjugate-Gaussian form

        S(x, t) = (alpha(t) m(x, t) - x) / sigma(t)^2.

    The residual head makes m exactly representable near t = 0 (where the
    truth is the identity), and the parametrisation bakes in the correct
    linear tail (mean reversion far outside the data region), which a
    free-form network output cannot give with saturating activations.

    Like ``AnalyticGmmScore``, a call is at one float time for all its
    rows; the fit, whose rows have one time each, calls ``mlp`` itself.
    """

    def __init__(self, dim: int, hidden, temb_width: int, rng: np.random.Generator,
                 schedule: NoiseSchedule | None = None):
        self.temb_width = int(temb_width)
        self.schedule = schedule if schedule is not None else NoiseSchedule()
        self.mlp = Mlp([dim + temb_width, *hidden, dim], rng, name="score")

    def __call__(self, x: Array, t: float):
        """The scores (alpha (x + r) - x) / sigma^2 at the one float time
        ``t`` shared by every row, r = Mlp([x, time features]), and their
        pullback. ``vjp(g)`` forms the states' adjoint (g inv) a - g inv
        plus the network's input adjoint of (g inv) a, and the trained
        weights' adjoints. The time features are the time's one row,
        which the network shares across the rows of ``x``. ``vjp`` keeps
        the network's cache, and the input parts only when the network is
        trained."""
        parts = [x, time_features(t, self.temb_width)]
        r, cache = self.mlp(parts)
        alpha, sigma = marginal_coeffs(self.schedule, t)
        a, inv = float(alpha), 1.0 / max(float(sigma) ** 2, 1e-8)
        value = ((x + r) * a - x) * inv
        params = self.mlp.params()
        keep = [p.requires_grad for p in params]
        leaves = [p for p, k in zip(params, keep) if k]
        kept = parts if leaves else None   # only w0's gradient reads them
        span = (0, x.shape[1])

        def vjp(g):
            g = g * inv
            g_r = g * a
            np.subtract(g_r, g, out=g)          # the tail's own part
            grads, g_in = Mlp.backward(cache, kept, g_r, bool(leaves), span)
            g += g_in
            return g, [w for w, k in zip(grads, keep) if k]

        return value, (vjp, leaves)

    def params(self):
        return self.mlp.params()

    def state_dict(self):
        return self.mlp.state_dict()

    def load_state_dict(self, state) -> None:
        self.mlp.load_state_dict(state)


def denoiser_loss(score_net: MlpScore, batch: Array, times: Array,
                  noises: Array, schedule: NoiseSchedule,
                  eps: float = 1e-3) -> tuple[float, list[Array]]:
    """Denoising regression, mean ||m(x_t, t) - x_0||^2, and its gradient.

    A signal-to-noise reweighting of the score-matching objective; O(1)
    across t, which keeps training well conditioned where the raw
    score-matching integrand diverges like 1/sigma^2. Returns the loss and
    one gradient per ``score_net.params()`` entry: the loss's closed-form
    adjoint 2 (m - x_0) / B through the network's backward pass.

    The loss runs in the network's dtype, that of its first parameter
    (float64 for a network without parameters): x_t is formed in float64
    and cast, with x_0 and the time features, once; the forward and
    backward passes and the gradients are then in that dtype.
    """
    x0 = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if x0.shape[0] == 0:
        raise ValueError("denoiser_loss needs a non-empty batch")
    t = np.clip(np.asarray(times, dtype=np.float64).reshape(-1), eps, 1.0)
    eps_arr = np.asarray(noises, dtype=np.float64)
    alpha, sigma = marginal_coeffs(schedule, t)
    params = score_net.params()
    dtype = params[0].value.dtype if params else np.float64
    x_t = alpha[:, None] * x0 + sigma[:, None] * eps_arr
    temb = time_features(t, score_net.temb_width)
    x_t, x0, temb = (a.astype(dtype, copy=False) for a in (x_t, x0, temb))
    parts = [x_t, temb]
    r, cache = score_net.mlp(parts)
    resid = (x_t + r) - x0
    rows = x0.shape[0]
    loss = (resid * resid).sum(axis=1, keepdims=True).sum() * (1.0 / rows)
    grads, _ = Mlp.backward(cache, parts, resid * (2.0 / rows), True)
    return float(loss), [dense(g) for g in grads]


def tweedie(x: Array, t: float, score: Array,
            schedule: NoiseSchedule) -> Array:
    """Posterior-mean denoiser x0_hat = (x + sigma(t)^2 score) / alpha(t)."""
    inv, s2 = _tweedie_coeffs(t, schedule)
    return (x + score * s2) * inv


def tweedie_adjoint(g: Array, t: float, schedule: NoiseSchedule):
    """The adjoints of ``tweedie``'s x and score given x0_hat's ``g``."""
    inv, s2 = _tweedie_coeffs(t, schedule)
    g_x = g * inv
    return g_x, g_x * s2


def _tweedie_coeffs(t: float, schedule: NoiseSchedule):
    """(1 / alpha(t), sigma(t)^2) as floats."""
    alpha, sigma = marginal_coeffs(schedule, t)
    alpha = float(alpha)
    if alpha < ALPHA_FLOOR:
        raise FloatingPointError(
            f"alpha(t) = {alpha} below floor at t = {t}; increase the "
            "terminal cutoff"
        )
    return 1.0 / alpha, float(sigma) ** 2
