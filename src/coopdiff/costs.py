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

Each terminal cost is one ``rowwise`` tape node on its input, from its
closed-form ``value_and_grad``: the quadratic well, the classifier NLL
(softmax - onehot pushed through the frozen classifier's backward pass)
and the seam loss (rho'(x) = x / rho(x)); ``SeamAugmented`` sums a base
cost's and the seam loss's. So grad psi is the node's one VJP. The
values repeat the per-op arithmetic in order, so they are bit-identical
to it. ``_nll`` (the softmax cross-entropy and its gradient softmax -
onehot) is also the classifier's training loss, on arrays.
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
        for name in ("control_weight", "running_scale", "seam_beta",
                     "seam_gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got "
                                 f"{getattr(self, name)!r}")
        if self.charbonnier_eps <= 0:
            raise ValueError(f"charbonnier_eps must be > 0, got "
                             f"{self.charbonnier_eps!r}")
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

def _rowwise(y, value_and_grad) -> Node:
    """One ``rowwise`` node on ``y`` from a cost's closed-form
    ``value_and_grad(y_array, grad)``; no gradient is formed when ``y``
    requires none."""
    y = tape.as_node(y)
    return tape.rowwise(y, *value_and_grad(y.value, tape.live([y])[0]))


class QuadraticWell:
    """psi(Y) = || Y - target ||^2, per sample."""

    def __init__(self, target: Array):
        self.target = np.asarray(target, dtype=np.float64).reshape(-1)

    def value_and_grad(self, y: Array, grad: bool = True):
        diff = y - self.target
        return (diff * diff).sum(axis=1, keepdims=True), (
            2.0 * diff if grad else None)

    def __call__(self, y) -> Node:
        return _rowwise(y, self.value_and_grad)


class ClassifierNll:
    """Softmax cross-entropy of a frozen classifier at a fixed target
    label; the classifier's weights get no gradient through it."""

    def __init__(self, classifier: Mlp, label: int):
        self.classifier = classifier
        n_classes = classifier.out_dim
        if not (0 <= int(label) < n_classes):
            raise ValueError(
                f"label {label} outside the classifier's {n_classes} classes"
            )
        self.label = int(label)

    def value_and_grad(self, y: Array, grad: bool = True):
        """The NLL per row and, with ``grad``, softmax - onehot pushed
        through the classifier's own backward pass to its input."""
        logits, cache = self.classifier.forward([y])
        value, d_logits = _nll(logits, self.label)
        if not grad:
            return value, None
        frozen = [False] * len(self.classifier.params())
        return value, Mlp.backward(cache, None, d_logits, frozen,
                                   (0, y.shape[1]))[1]

    def __call__(self, y) -> Node:
        return _rowwise(y, self.value_and_grad)


def _nll(lv: Array, labels):
    """-log softmax(lv)[label] = logsumexp(lv) - lv[label] per row, for one
    label (an int) or one label per row, and its gradient softmax -
    onehot."""
    rows, n_classes = lv.shape
    labels = np.asarray(labels, dtype=np.intp)
    if np.any((labels < 0) | (labels >= n_classes)):
        raise ValueError(f"labels outside [0, {n_classes})")
    picked = (np.arange(rows), labels)       # one label broadcasts
    amax = np.max(lv, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(lv - amax), axis=1, keepdims=True)) + amax
    grad = np.exp(lv - lse)
    grad[picked] -= 1.0
    return lse - lv[picked][:, None], grad


class SeamAugmented:
    """base cost plus the seam-continuity loss of the same image layout,
    one node: their values and gradients are summed."""

    def __init__(self, base, agg: MaskAggregator, cfg: SocConfig):
        if agg.image_hw is None:
            raise ValueError("seam loss needs an image layout")
        self.base = base
        self.agg = agg
        self.cfg = cfg

    def value_and_grad(self, y: Array, grad: bool = True):
        value, d_base = self.base.value_and_grad(y, grad)
        seam, d_seam = _seam(y, self.agg, self.cfg, grad)
        return value + seam, (d_base + d_seam if grad else None)

    def __call__(self, y) -> Node:
        return _rowwise(y, self.value_and_grad)


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
    return _rowwise(y, lambda v, grad: _seam(v, agg, cfg, grad))


def _seam(y: Array, agg: MaskAggregator, cfg: SocConfig, live: bool):
    """``seam_loss`` on an array: the value and, with ``live``, the
    gradient."""
    if agg.image_hw is None:
        raise ValueError("seam loss needs an image layout")
    h, w = agg.image_hw
    if y.shape[1] != h * w:
        raise ValueError(
            f"state dimension {y.shape[1]} does not match image {h}x{w}"
        )
    batch = y.shape[0]
    # rows[r] is image row r as a (w, batch) block: the columns are summed
    # one after another, in the order of the per-op graph this node
    # replaced, so the value is bit-identical to it
    rows = np.ascontiguousarray(y.T).reshape(h, w, batch)
    eps2 = cfg.charbonnier_eps * cfg.charbonnier_eps
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
    return total, (grad.reshape(h * w, batch).T if live else None)
