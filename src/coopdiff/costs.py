"""Cost terms for the control objective.

A terminal cost is any callable mapping a (batch, dim) node Y to a
(batch, 1) node of per-sample costs; the objective averages over the batch.
The running cost re-uses the terminal cost, evaluated at the aggregated
Tweedie estimate and scaled by a time weight.

Objective layout (hat-J for one batch):

    hat_J = sum_i lambda_i * sum_k ||u_i_k||^2 dt_k        (control energy)
          + sum_k alpha_t(t_k) * psi(Y0_hat_k) dt_k        (running cost)
          + psi(Y_terminal)                                (terminal cost)

with lambda_i = control_weight / N unless per-agent weights are given.

Each terminal-cost piece is one tape node with its closed-form gradient:
the quadratic well, the classifier NLL (VJP g * (softmax - onehot)) and
the seam loss (rho'(x) = x / rho(x)). Their values repeat the per-op
arithmetic in the same order, so they are bit-identical to it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .aggregation import MaskAggregator
from .nn import Mlp
from .tape import Node

Array = np.ndarray


@dataclass(frozen=True)
class SocConfig:
    """Weights of the control objective."""

    control_weight: float = 10.0      # lambda
    running_scale: float = 1.0        # alpha
    running_ramp: str = "constant"    # "constant" or "linear" (alpha * (1 - t))
    agent_weights: tuple | None = None
    seam_beta: float = 0.0
    seam_gamma: float = 0.0
    charbonnier_eps: float = 1e-3

    def __post_init__(self):
        if self.control_weight < 0 or self.running_scale < 0:
            raise ValueError("cost weights must be non-negative")
        if self.seam_beta < 0 or self.seam_gamma < 0:
            raise ValueError("seam weights must be non-negative")
        if self.charbonnier_eps <= 0:
            raise ValueError("charbonnier_eps must be positive")
        if self.running_ramp not in ("constant", "linear"):
            raise ValueError(
                f"running_ramp must be 'constant' or 'linear', got "
                f"{self.running_ramp!r}"
            )
        if self.agent_weights is not None:
            w = tuple(float(x) for x in self.agent_weights)
            if any(x < 0 for x in w):
                raise ValueError("per-agent weights must be non-negative")
            object.__setattr__(self, "agent_weights", w)

    def lambda_weights(self, num_agents: int) -> Array:
        """Per-agent control weights; default lambda / N for every agent."""
        if self.agent_weights is None:
            return np.full(num_agents, self.control_weight / num_agents)
        if len(self.agent_weights) != num_agents:
            raise ValueError(
                f"{len(self.agent_weights)} agent weights for "
                f"{num_agents} agents"
            )
        return np.asarray(self.agent_weights, dtype=np.float64)

    def running_weight(self, t: float) -> float:
        """Time scaling alpha_t of the running cost."""
        if self.running_ramp == "linear":
            return self.running_scale * (1.0 - float(t))
        return self.running_scale


# ---------------------------------------------------------------------------
# terminal costs
# ---------------------------------------------------------------------------

class ZeroCost:
    """psi identically zero (place-holder for cost-free dynamics)."""

    def __call__(self, y) -> Node:
        y = tape.as_node(y)
        return tape.constant(np.zeros((y.value.shape[0], 1)))


class QuadraticWell:
    """psi(Y) = || Y - target ||^2, per sample."""

    def __init__(self, target: Array):
        self.target = np.asarray(target, dtype=np.float64).reshape(-1)

    def __call__(self, y) -> Node:
        y = tape.as_node(y)
        diff = y.value - self.target
        return tape.rowwise(y, (diff * diff).sum(axis=1, keepdims=True),
                            2.0 * diff)


class GaussianNll:
    """Negative log density of an isotropic target Gaussian."""

    def __init__(self, mean: Array, variance: float):
        self.mean = np.asarray(mean, dtype=np.float64).reshape(-1)
        if variance <= 0:
            raise ValueError("variance must be positive")
        self.variance = float(variance)

    def __call__(self, y) -> Node:
        d = self.mean.size
        diff = tape.sub(y, tape.constant(self.mean))
        quad = tape.scale(
            tape.square_norm(diff, axis=1, keepdims=True), 0.5 / self.variance
        )
        log_norm = 0.5 * d * np.log(2.0 * np.pi * self.variance)
        return tape.add(quad, tape.constant(np.array([log_norm])))


class ClassifierNll:
    """Softmax cross-entropy of a classifier at a fixed target label."""

    def __init__(self, classifier: Mlp, label: int):
        self.classifier = classifier
        n_classes = classifier.out_dim
        if not (0 <= int(label) < n_classes):
            raise ValueError(
                f"label {label} outside the classifier's {n_classes} classes"
            )
        self.label = int(label)

    def __call__(self, y) -> Node:
        logits = self.classifier(y)
        return classifier_nll(logits, self.label)


def classifier_nll(logits, label: int) -> Node:
    """-log softmax(logits)[label] = logsumexp(logits) - logits[label],
    one node with the gradient softmax - onehot."""
    logits = tape.as_node(logits)
    lv = logits.value
    n_classes = lv.shape[1]
    if not (0 <= int(label) < n_classes):
        raise ValueError(f"label {label} outside [0, {n_classes})")
    label = int(label)
    amax = np.max(lv, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(lv - amax), axis=1, keepdims=True)) + amax
    value = lse - lv[:, [label]]
    if not tape.live([logits])[0]:
        return tape.constant(value)
    grad = np.exp(lv - lse)
    grad[:, label] -= 1.0
    return tape.rowwise(logits, value, grad)


class SeamAugmented:
    """base cost plus the seam-continuity loss of the same image layout."""

    def __init__(self, base, agg: MaskAggregator, cfg: SocConfig):
        if agg.image_hw is None:
            raise ValueError("seam loss needs an image layout")
        self.base = base
        self.agg = agg
        self.cfg = cfg

    def __call__(self, y) -> Node:
        return tape.add(self.base(y), seam_loss(y, self.agg, self.cfg))


def with_seam(base, agg: MaskAggregator, cfg: SocConfig):
    """Attach the seam loss when it is active for this layout."""
    if (cfg.seam_beta > 0 or cfg.seam_gamma > 0) and agg.seam_pairs:
        return SeamAugmented(base, agg, cfg)
    return base


# ---------------------------------------------------------------------------
# seam-continuity loss
# ---------------------------------------------------------------------------

def seam_loss(y, agg: MaskAggregator, cfg: SocConfig) -> Node:
    """Charbonnier intensity and vertical-gradient mismatch across seams.

    For each seam pair (r_p, r_q) with r_q = r_p + 1 the loss adds, summed
    over columns,

        beta  * rho(Y[r_p] - Y[r_q])
      + gamma * rho(grad(r_p) - grad(r_q)),   rho(x) = sqrt(x^2 + eps^2),

    where grad is the one-sided vertical difference taken inside each
    stripe (grad(r_p) = Y[r_p] - Y[r_p - 1], grad(r_q) = Y[r_q + 1] -
    Y[r_q]), clamped to zero at the image border. Comparing interior
    slopes avoids counting the seam jump twice.

    One ``rowwise`` node: the gradient is accumulated in closed form,
    rho'(x) = x / rho(x), into the rows each term reads.
    """
    if agg.image_hw is None:
        raise ValueError("seam loss needs an image layout")
    h, w = agg.image_hw
    y = tape.as_node(y)
    if y.value.shape[1] != h * w:
        raise ValueError(
            f"state dimension {y.value.shape[1]} does not match image "
            f"{h}x{w}"
        )
    batch = y.value.shape[0]
    # rows[r] is image row r as a (w, batch) block: the columns are summed
    # one after another, in the order of the per-op graph this node
    # replaced, so the value is bit-identical to it
    rows = np.ascontiguousarray(y.value.T).reshape(h, w, batch)
    eps2 = cfg.charbonnier_eps * cfg.charbonnier_eps
    live = tape.live([y])[0]
    grad = np.zeros((h, w, batch)) if live else None
    border = np.zeros((w, batch))
    total = np.zeros((batch, 1))
    for (rp, rq) in agg.seam_pairs:
        if rq != rp + 1:
            raise ValueError(f"seam pair {(rp, rq)} is not adjacent")
        upper, lower = rows[rp], rows[rq]
        jump = upper - lower
        rho_jump = np.sqrt(jump * jump + eps2)
        grad_p = upper - rows[rp - 1] if rp >= 1 else border
        grad_q = rows[rq + 1] - lower if rq + 1 <= h - 1 else border
        kink = grad_p - grad_q
        rho_kink = np.sqrt(kink * kink + eps2)
        total = total + (rho_jump.sum(axis=0)[:, None] * cfg.seam_beta
                         + rho_kink.sum(axis=0)[:, None] * cfg.seam_gamma)
        if live:
            d_jump = cfg.seam_beta * jump / rho_jump
            grad[rp] += d_jump
            grad[rq] -= d_jump
            d_kink = cfg.seam_gamma * kink / rho_kink
            if rp >= 1:
                grad[rp] += d_kink
                grad[rp - 1] -= d_kink
            if rq + 1 <= h - 1:
                grad[rq + 1] -= d_kink
                grad[rq] += d_kink
    if not live:
        return tape.constant(total)
    return tape.rowwise(y, total, grad.reshape(h * w, batch).T)


# ---------------------------------------------------------------------------
# objective recomputation
# ---------------------------------------------------------------------------

def soc_objective(record, cfg: SocConfig, psi) -> float:
    """Recompute hat-J from a stored rollout, tape-free.

    ``record`` must expose dts, times, controls[k] (N, B, d), y0_hats[k],
    terminal_y and batch (see optimize.RolloutRecord). Used to cross-check
    the fused objective assembled during the differentiable rollout.
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
