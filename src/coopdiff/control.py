"""Per-agent control policies and the training-free gradient baseline.

A learned control combines a free-form drift correction with an explicit
reward-gradient term:

    u_i(x_i, Y, g_i, t) = NN1([x_i, Y, g_i, time_feats]) + NN2(t) * g_i

where g_i is the gradient of the cost at the aggregated Tweedie estimate
with respect to agent i's own Tweedie estimate, treated as a constant
input (no adjoint flows through it). NN1 is zero-initialised in its final
layer and NN2 starts as a constant, so a fresh policy is exactly
NN2_const * g_i, and exactly zero for the default constant 0.

The baseline control instead scales the gradient of the same cost with
respect to the *state*, which differentiates through the Tweedie map and
the score model (the expensive path the learned parametrisation avoids).
``state_guidance`` computes it in one sub-tape that also returns the
step's scores, Tweedie aggregate and psi, so a baseline rollout step runs
the score model and psi once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tape
from .aggregation import MaskAggregator, aggregate
from .nn import Mlp, time_features
from .scores import stacked_score, tweedie
from .sde import NoiseSchedule
from .tape import Node

Array = np.ndarray


@dataclass
class ControlPolicy:
    """Parameters of one agent's control."""

    agent_index: int
    nn1: Mlp             # [x, Y, guidance, time feats] -> R^d
    nn2: Mlp             # time feats -> R^1 (broadcast gain on the guidance)
    temb_width: int

    @property
    def dim(self) -> int:
        return self.nn1.out_dim

    def params(self) -> list[Node]:
        return self.nn1.params() + self.nn2.params()

    def named_params(self) -> list[tuple[str, Node]]:
        return self.nn1.named_params() + self.nn2.named_params()

    def state_dict(self) -> dict[str, Array]:
        return {name: p.value.copy() for name, p in self.named_params()}

    def load_state_dict(self, state: dict[str, Array]) -> None:
        self.nn1.load_state_dict(state)
        self.nn2.load_state_dict(state)


def make_policy(
    dim: int,
    agent_index: int,
    rng: np.random.Generator,
    hidden=(64, 64),
    gain_hidden=(32,),
    temb_width: int = 16,
    guidance_gain_init: float = 0.0,
) -> ControlPolicy:
    """Fresh policy whose control field is guidance_gain_init * guidance."""
    nn1 = Mlp(
        [3 * dim + temb_width, *hidden, dim],
        rng,
        zero_final=True,
        name=f"agent{agent_index}.nn1",
    )
    nn2 = Mlp(
        [temb_width, *gain_hidden, 1],
        rng,
        zero_final=True,
        final_bias=guidance_gain_init,
        name=f"agent{agent_index}.nn2",
    )
    return ControlPolicy(agent_index, nn1, nn2, temb_width)


def eval_control(policy: ControlPolicy, x, y, t: float, guidance) -> Node:
    """u_i = NN1([x, Y, g, feats]) + NN2(t) * g, with g held constant."""
    x = tape.as_node(x)
    y = tape.as_node(y)
    guidance = tape.stopgrad(tape.as_node(guidance))
    d = policy.dim
    for name, v in (("state", x), ("aggregate", y), ("guidance", guidance)):
        if v.value.shape[-1] != d:
            raise ValueError(
                f"{name} has dimension {v.value.shape[-1]}, policy expects {d}"
            )
    batch = x.value.shape[0]
    feats = time_features(t, policy.temb_width, batch=batch)
    drift = policy.nn1(x, y, guidance, feats)
    gain = policy.nn2(feats[:1])      # (1, 1), shared across the batch
    gv = guidance.value
    # one node for drift + gain * g; the gain's adjoint sums over the batch,
    # then the coordinates
    return tape.op(
        drift.value + gain.value * gv,
        (drift, gain),
        (lambda g: g,
         lambda g: (g * gv).sum(axis=0, keepdims=True).sum(axis=1, keepdims=True)),
    )


def cdps_control(x_i, t: float, guidance_wrt_state, alpha_guid: float) -> Node:
    """u_hat = -alpha_guid * grad_x psi(Y0_hat); no learnable parameters.

    ``guidance_wrt_state`` is the gradient of the cost psi, so with
    alpha_guid > 0 the control pushes the state DOWN the cost (classifier
    guidance semantics); the scale alone sets the strength.
    """
    x_i = tape.as_node(x_i)
    guidance_wrt_state = tape.as_node(guidance_wrt_state)
    if x_i.value.shape != guidance_wrt_state.value.shape:
        raise ValueError(
            f"guidance shape {guidance_wrt_state.value.shape} does not match "
            f"state shape {x_i.value.shape}"
        )
    return tape.scale(guidance_wrt_state, -float(alpha_guid))


# ---------------------------------------------------------------------------
# guidance gradients
# ---------------------------------------------------------------------------

def tweedie_guidance(psi, y0_hat) -> tuple[Array, Array]:
    """psi and its per-row gradient at the aggregated Tweedie estimate.

    One sub-tape on a detached Y0_hat leaf gives both psi(Y0_hat), shape
    (B, 1), and grad psi(Y0_hat), shape (B, d), as plain arrays. Rows are
    independent, so one backward from the batch sum yields every row's
    gradient. The aggregate routes dY to agent i as dY * mask_i, so the
    learned control's guidance is ``scatter_adjoint(agg, grad)`` =
    masks * grad psi(Y0_hat); the rollout's running cost takes the same
    gradient as its VJP.
    """
    with tape.grad_enabled():
        y0 = tape.leaf(tape.as_node(y0_hat).value)
        psi_y0 = psi(y0)
        tape.backward(tape.reduce_sum(psi_y0))
    grad = y0.grad if y0.grad is not None else np.zeros_like(y0.value)
    return psi_y0.value, grad


class StateGuidance(NamedTuple):
    """One step's values from the state-gradient pass, as plain arrays."""

    scores: Array    # (N, B, d) score model at the states
    y0_hat: Array    # (B, d) aggregated Tweedie estimate
    psi: Array       # (B, 1) psi(Y0_hat)
    grad: Array      # (N, B, d) grad of psi(Y0_hat) w.r.t. the states


def state_guidance(
    score_fn,
    agg: MaskAggregator,
    psi,
    schedule: NoiseSchedule,
    x_values,
    t: float,
) -> StateGuidance:
    """grad of psi(aggregate(tweedie(x, score(x)))) w.r.t. the (N, B, d)
    agent states, with the forward values it passes through.

    Unlike ``tweedie_guidance`` this differentiates through the score model
    and the Tweedie map; it is the gradient the training-free baseline uses.
    The one sub-tape on a detached state leaf also yields the step's
    scores, Y0_hat and psi(Y0_hat), so the baseline's rollout evaluates
    the score model and psi once per step. Only arrays are returned, so
    the sub-tape is freed when this returns.
    """
    with tape.grad_enabled():
        xs = tape.leaf(tape.as_node(x_values).value)
        scores = stacked_score(score_fn, xs, t)
        y0_hat = aggregate(agg, tweedie(xs, t, scores, schedule))
        psi_y0 = psi(y0_hat)
        tape.backward(tape.reduce_sum(psi_y0))
    grad = xs.grad if xs.grad is not None else np.zeros_like(xs.value)
    return StateGuidance(scores.value, y0_hat.value, psi_y0.value, grad)
