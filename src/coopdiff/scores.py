"""Score functions: analytic Gaussian-mixture scores, a trainable score
network, denoising score matching, and the Tweedie denoiser.

A diffused isotropic GMM is again a GMM: component i with weight w_i, mean
mu_i and variance s_i^2 becomes, at diffusion time t, a component with mean
alpha(t) mu_i and variance alpha(t)^2 s_i^2 + sigma(t)^2. Its score is exact
and is used as the oracle-grade score model for low-dimensional tasks.

On the tape, the mixture score is one node whose VJP is the Hessian-vector
product of the diffused log density, and a score network call is two (the
fused Mlp and its residual/affine tail): a score model is called with a
``Node``. The rollouts call it through ``score_pullback``, which keeps the
call's VJP and no node. ``tweedie`` maps arrays to an array; its adjoint
is ``tweedie_adjoint``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .nn import Mlp, time_features
from .sde import NoiseSchedule, marginal_coeffs
from .tape import Node

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

    def sample(self, rng: np.random.Generator, n: int) -> Array:
        comp = rng.choice(self.num_components, size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        return self.means[comp] + np.sqrt(self.variances[comp])[:, None] * eps

    def diffused_params(self, t: float, schedule: NoiseSchedule):
        """(means, variances) of the time-t diffused mixture; its weights
        are this mixture's. No mixture is built, so nothing is validated
        again on the hot path."""
        alpha, sigma = marginal_coeffs(schedule, t)
        return alpha * self.means, alpha * alpha * self.variances + sigma * sigma

    def diffused(self, t: float, schedule: NoiseSchedule) -> "GaussianMixture":
        means, variances = self.diffused_params(t, schedule)
        return GaussianMixture(
            weights=self.weights, means=means, variances=variances
        )

    def log_density(self, x: Array) -> Array:
        """log p(x) for rows of x, stabilised with log-sum-exp."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        d = self.dim
        sq = ((x[:, None, :] - self.means[None, :, :]) ** 2).sum(axis=2)  # (B, C)
        log_comp = (
            np.log(self.weights)[None, :]
            - 0.5 * d * np.log(2.0 * np.pi * self.variances)[None, :]
            - 0.5 * sq / self.variances[None, :]
        )
        lmax = log_comp.max(axis=1, keepdims=True)
        return (np.log(np.exp(log_comp - lmax).sum(axis=1, keepdims=True)) + lmax)[:, 0]


def gmm_score(gmm: GaussianMixture, x, t: float, schedule: NoiseSchedule) -> Node:
    """Exact score of the time-t diffused mixture, recorded on the tape.

    One node whose VJP is the closed-form Hessian-vector product of the
    diffused log density: with responsibilities r_i, component scores
    s_i = -(x - m_i) / v_i and the score s_bar = sum_i r_i s_i, the
    Jacobian is the symmetric
    J = sum_i r_i (-I / v_i) + sum_i r_i s_i s_i^T - s_bar s_bar^T.
    """
    means, variances = gmm.diffused_params(t, schedule)
    x = tape.as_node(x)
    xv = x.value
    d = gmm.dim
    log_w = np.log(gmm.weights) - 0.5 * d * np.log(2.0 * np.pi * variances)
    diffs = [xv - means[i] for i in range(gmm.num_components)]
    if gmm.num_components == 1:
        c = float(-1.0 / variances[0])
        return tape.op(diffs[0] * c, (x,), (lambda g: g * c,))

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

    def vjp(g):
        # J g, with J symmetric
        jg = g * (resp @ (-1.0 / variances))[:, None]
        for i, s_i in enumerate(comp):
            jg += (resp[:, i] * (s_i * g).sum(axis=1))[:, None] * s_i
        jg -= (out * g).sum(axis=1, keepdims=True) * out
        return jg

    return tape.op(out, (x,), (vjp,))


class AnalyticGmmScore:
    """Score provider backed by a closed-form mixture, recorded on the
    tape at a scalar time (BPTT needs the dependence on x)."""

    def __init__(self, gmm: GaussianMixture, schedule: NoiseSchedule):
        self.gmm = gmm
        self.schedule = schedule

    @property
    def dim(self) -> int:
        return self.gmm.dim

    def __call__(self, x, t) -> Node:
        return gmm_score(self.gmm, x, float(np.asarray(t).reshape(())),
                         self.schedule)

    def params(self) -> list[Node]:
        return []

    def log_density(self, x: Array, t: float) -> Array:
        return self.gmm.diffused(t, self.schedule).log_density(x)


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
    """

    def __init__(self, dim: int, hidden, temb_width: int, rng: np.random.Generator,
                 schedule: NoiseSchedule | None = None, name: str = "score"):
        self.dim = int(dim)
        self.temb_width = int(temb_width)
        self.schedule = schedule if schedule is not None else NoiseSchedule()
        self.mlp = Mlp([dim + temb_width, *hidden, dim], rng, name=name)

    def denoiser_head(self, x, t) -> Node:
        x = tape.as_node(x)
        feats = time_features(t, self.temb_width, batch=x.value.shape[0])
        return tape.add(x, self.mlp(x, feats))

    def __call__(self, x, t) -> Node:
        """Two nodes: the fused Mlp on [x, time features], and the
        residual/affine tail (alpha (x + r) - x) / sigma^2."""
        x = tape.as_node(x)
        feats = time_features(t, self.temb_width, batch=x.value.shape[0])
        r = self.mlp(x, feats)
        alpha, sigma = marginal_coeffs(self.schedule, t)
        sig2 = np.maximum(np.asarray(sigma) ** 2, 1e-8)
        if np.ndim(alpha) == 0:
            a, inv = float(alpha), 1.0 / float(sig2)
        else:
            a = np.asarray(alpha).reshape(-1, 1)
            inv = (1.0 / sig2).reshape(-1, 1)
        value = ((x.value + r.value) * a - x.value) * inv

        def vjp_x(g):
            g = g * inv
            return g * a - g

        return tape.op(value, (x, r), (vjp_x, lambda g: (g * inv) * a))

    def params(self) -> list[Node]:
        return self.mlp.params()

    def named_params(self):
        return self.mlp.named_params()

    def state_dict(self):
        return self.mlp.state_dict()

    def load_state_dict(self, state) -> None:
        self.mlp.load_state_dict(state)


def denoiser_loss(score_net: MlpScore, batch: Array, times: Array,
                  noises: Array, schedule: NoiseSchedule,
                  eps: float = 1e-3) -> Node:
    """Denoising regression, mean ||m(x_t, t) - x_0||^2.

    A signal-to-noise reweighting of the score-matching objective; O(1)
    across t, which keeps training well conditioned where the raw
    score-matching integrand diverges like 1/sigma^2.
    """
    x0 = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if x0.shape[0] == 0:
        raise ValueError("denoiser_loss needs a non-empty batch")
    t = np.clip(np.asarray(times, dtype=np.float64).reshape(-1), eps, 1.0)
    eps_arr = np.asarray(noises, dtype=np.float64)
    alpha, sigma = marginal_coeffs(schedule, t)
    x_t = alpha[:, None] * x0 + sigma[:, None] * eps_arr
    resid = tape.sub(score_net.denoiser_head(tape.constant(x_t), t),
                     tape.constant(x0))
    per_sample = tape.square_norm(resid, axis=1, keepdims=True)
    return tape.scale(tape.reduce_sum(per_sample), 1.0 / x0.shape[0])


def score_pullback(score_fn, xs: Array, t: float, wrt_x: bool = True):
    """One call of a shared score model on (N, B, d) state arrays as N*B
    rows: the scores, as an array, and their pullback ``(vjp, leaves)``
    (see ``tape.pullback``), with the states' leaf given as None, or None
    when nothing the call read requires grad. The states are a leaf with
    ``wrt_x``, else only trained score weights are differentiated."""
    rows = xs.reshape(-1, xs.shape[2])
    with tape.grad_enabled():
        x = tape.leaf(rows) if wrt_x else tape.constant(rows)
        scores = score_fn(x, t)
    leaves, vjp = tape.pullback(scores)
    pull = (vjp, [None if n is x else n for n in leaves]) if leaves else None
    return scores.value.reshape(xs.shape), pull


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
