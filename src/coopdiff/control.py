"""Per-agent control policies and the guidance gradients.

A learned control combines a free-form drift correction with an explicit
reward-gradient term:

    u_i(x_i, Y, g_i, t) = NN1([x_i, Y, g_i, time_feats]) + NN2(t) * g_i

where g_i is the gradient of the cost at the aggregated Tweedie estimate
with respect to agent i's own Tweedie estimate, treated as a constant
input (no adjoint flows through it). NN1 is zero-initialised in its final
layer and NN2 starts as a constant, so a fresh policy is exactly
NN2_const * g_i, and exactly zero for the default constant 0. NN1 takes
its four inputs as parts and NN2 the time's one feature row, which the
batch shares; each network's adjoints are formed when its one
``Mlp.trained`` flag is set. Over the agents' stacked networks
(``Mlp.stack``) the same lines run all policies at once on (N, B, d).

The training-free baseline (``optimize.CdpsControls``) instead scales the
gradient of the same cost with respect to the *state*, which
differentiates through the Tweedie map and the score model (the
expensive path the learned parametrisation avoids).
``state_guidance`` computes it on arrays: the rollout's step forms the
scores, the Tweedie aggregate and psi as it does for every control
source, and hands it the score call's pullback and grad psi, which it
pulls back through the aggregate, Tweedie and the score model. So a
baseline step runs the score model and psi once and keeps no graph.
``eval_control`` is the one tape form left: a learned control as one
fused node over x, Y and its policy's weights, for the tests' reference
graphs (the training rollout calls ``forward`` and ``backward``
directly).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .aggregation import (
    MaskAggregator,
    aggregate,  # noqa: F401  (bench/tracing.py times it under this name)
    scatter_adjoint,
)
from .nn import Mlp, time_features
from .scores import (
    tweedie,  # noqa: F401  (bench/tracing.py times it under this name)
    tweedie_adjoint,
)
from .sde import NoiseSchedule
from .tape import Node

Array = np.ndarray


@dataclass
class ControlPolicy:
    """Parameters of one agent's control (of all, stacked: index None)."""

    agent_index: int | None
    nn1: Mlp             # [x, Y, guidance, time feats] -> R^d
    nn2: Mlp             # time feats -> R^1 (broadcast gain on the guidance)
    temb_width: int

    def params(self) -> list[Node]:
        return self.nn1.params() + self.nn2.params()

    def state_dict(self) -> dict[str, Array]:
        return {**self.nn1.state_dict(), **self.nn2.state_dict()}

    def load_state_dict(self, state: dict[str, Array]) -> None:
        self.nn1.load_state_dict(state)
        self.nn2.load_state_dict(state)

    def forward(self, x: Array, y: Array, guidance: Array, t: float):
        """u = NN1([x, Y, g, feats]) + NN2(feats) * g on (B, d) arrays (x, g
        (N, B, d) when stacked), and both networks' caches (what
        ``backward`` reads besides the inputs); ``feats`` is one row."""
        feats = time_features(t, self.temb_width)
        drift, cache1 = self.nn1([x, y, guidance, feats])
        gain, cache2 = self.nn2([feats])    # (1, 1), one per batch (agent)
        return drift + gain * guidance, (cache1, cache2)

    def control(self, cache, x, y, guidance, t: float) -> Array:
        """The control a ``forward`` call returned for these inputs,
        rebuilt from its cache with the forward's ops: NN1's and NN2's
        last layers, then drift + gain * g."""
        cache1, cache2 = cache
        feats = time_features(t, self.temb_width)
        drift = self.nn1.output(cache1, [x, y, guidance, feats])
        gain = self.nn2.output(cache2, [feats])
        return drift + gain * guidance

    def backward(self, cache, x, y, guidance, t: float, g, span=None):
        """Adjoints of a ``forward`` call given the control adjoint ``g``,
        with the same inputs: one per parameter of ``params()``, None for
        a network with no trained parameter, and, with ``span``, the input
        adjoint over those columns of [x, Y] (the guidance is held
        constant). The gain's adjoint sums over the batch, then the
        coordinates (each agent's, for a stack)."""
        cache1, cache2 = cache
        feats = time_features(t, self.temb_width)
        grads, g_in = Mlp.backward(cache1, [x, y, guidance, feats], g,
                                   self.nn1.trained, span)
        g_gain = (g * guidance).sum(axis=-2, keepdims=True).sum(
            axis=-1, keepdims=True)
        grads += Mlp.backward(cache2, [feats], g_gain, self.nn2.trained)[0]
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
    x = x if isinstance(x, Node) else Node(x)
    y = y if isinstance(y, Node) else Node(y)
    g = np.asarray(guidance, dtype=np.float64)
    u, cache = policy.forward(x.value, y.value, g, t)
    d = x.value.shape[1]

    def vjp(a):
        grads, g_in = policy.backward(cache, x.value, y.value, g, t, a,
                                      (0, 2 * d))
        return [g_in[:, :d], g_in[:, d:], *grads]

    return tape.fused(u, [x, y, *policy.params()], vjp)


# ---------------------------------------------------------------------------
# guidance gradients
# ---------------------------------------------------------------------------

def tweedie_guidance(psi, y0_hat: Array) -> tuple[Array, Array]:
    """psi(Y0_hat), shape (B, 1), and grad psi(Y0_hat), shape (B, d): one
    call of the cost. The learned control's guidance is
    ``scatter_adjoint(agg, grad)`` = masks * grad psi(Y0_hat)."""
    return psi(y0_hat)


def state_guidance(agg: MaskAggregator, schedule: NoiseSchedule, vjp,
                   grad_y: Array, t: float) -> Array:
    """grad of psi(aggregate(tweedie(X, S(X)))) w.r.t. the (N, B, d) agent
    states X, given the score call's pullback ``vjp`` and ``grad_y`` =
    grad psi(Y0_hat), both from the rollout's step.

    Unlike ``tweedie_guidance`` this differentiates through the score model
    and the Tweedie map; it is the gradient the training-free baseline uses.
    It is the adjoint half of the step only: the adjoints of the aggregate
    and of Tweedie, then the pullback's states' adjoint. So the baseline's
    rollout evaluates the score model and psi once per step, on the lines
    every control source runs, and keeps no graph.
    """
    grad, a_s = tweedie_adjoint(scatter_adjoint(agg, grad_y), t, schedule)
    grad += vjp(a_s.reshape(-1, grad.shape[2]))[0].reshape(grad.shape)
    return grad
