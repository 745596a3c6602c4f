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

    def forward(self, x: Array, y: Array, guidance: Array, t: float):
        """u = NN1([x, Y, g, feats]) + NN2(feats) * g on (B, d) arrays, and
        both networks' caches (what ``backward`` reads besides the
        inputs)."""
        feats = time_features(t, self.temb_width, batch=x.shape[0])
        drift, cache1 = self.nn1.forward([x, y, guidance, feats])
        gain, cache2 = self.nn2.forward([feats[:1]])    # (1, 1), one per batch
        return drift + gain * guidance, (cache1, cache2)

    def backward(self, cache, x, y, guidance, t: float, g, live, span=None):
        """Adjoints of a ``forward`` call given the control adjoint ``g``,
        with the same inputs: one per parameter of ``params()`` (None where
        ``live`` is False) and, with ``span``, the input adjoint over those
        columns of [x, Y] (the guidance is held constant). The gain's
        adjoint sums over the batch, then the coordinates."""
        cache1, cache2 = cache
        feats = time_features(t, self.temb_width, batch=x.shape[0])
        n1 = 2 * len(self.nn1.weights)
        grads, g_in = Mlp.backward(cache1, [x, y, guidance, feats], g,
                                   live[:n1], span)
        g_gain = (g * guidance).sum(axis=0, keepdims=True).sum(
            axis=1, keepdims=True)
        grads += Mlp.backward(cache2, [feats[:1]], g_gain, live[n1:])[0]
        return grads, g_in


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
    """u_i = NN1([x, Y, g, feats]) + NN2(t) * g as one fused node over x,
    Y and the policy's weights, with g held constant: ``forward``, with
    ``backward`` as its VJP. The training rollout calls those two
    directly."""
    x, y = tape.as_node(x), tape.as_node(y)
    g = tape.as_node(guidance).value
    inputs = [x, y, *policy.params()]
    live = tape.live(inputs)
    u, cache = policy.forward(x.value, y.value, g, t)
    d = policy.dim

    def vjp(a):
        grads, g_in = policy.backward(cache, x.value, y.value, g, t, a,
                                      live[2:], (0, 2 * d))
        return [g_in[:, :d], g_in[:, d:], *grads]

    return tape.fused(u, inputs, vjp)


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
    """psi(Y0_hat), shape (B, 1), and grad psi(Y0_hat), shape (B, d), as
    plain arrays: a cost is one op node on its input (each cost in
    ``costs`` is a ``rowwise`` node), so the gradient is that node's VJP
    at a unit adjoint per row. The learned control's guidance is
    ``scatter_adjoint(agg, grad)`` = masks * grad psi(Y0_hat)."""
    with tape.grad_enabled():
        y0 = tape.leaf(tape.as_node(y0_hat).value)
        psi_y0 = psi(y0)
    if type(psi_y0) is not Node or psi_y0.parents != (y0,):
        raise TypeError("a cost must return one op node on its input, such "
                        "as a rowwise node (see costs)")
    return psi_y0.value, psi_y0.vjps[0](np.ones_like(psi_y0.value))


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
