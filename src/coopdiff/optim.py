"""Adam updates with bias correction, over lists of tape leaves.

An update keeps each parameter's dtype: the moments are made like the
parameter and a gradient is cast to it, so the float32 score fit runs
float32 Adam and every other caller float64 Adam.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tape import Node

Array = np.ndarray

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators, step count and
    learning rate (the trainers halve it after a failed update)."""

    lr: float = 1e-4
    step: int = 0
    m: list[Array] = field(default_factory=list)
    v: list[Array] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[Node], lr: float = 1e-4) -> "AdamState":
        state = cls(lr=lr)
        state.m = [np.zeros_like(p.value) for p in params]
        state.v = [np.zeros_like(p.value) for p in params]
        return state


def adam_step(params: list[Node], grads: list[Array],
              state: AdamState) -> AdamState:
    """One Adam update; rebinds each parameter's ``.value``.

    update = lr * m_hat / (sqrt(v_hat) + eps), with the betas ``BETA1``
    and ``BETA2`` and eps = ``EPS``.

    The moment buffers are updated in place, and the update is formed in
    two scratch buffers, in the textbook's op order, in the parameter's
    dtype (a gradient is cast to it). ``.value`` is rebound to a new
    array, so a graph that holds the old weights stays valid.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError(
            f"got {len(params)} params, {len(grads)} grads, "
            f"{len(state.m)} moment buffers"
        )
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(g, dtype=p.value.dtype)
        if g.shape != p.value.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"shape {p.value.shape}"
            )
        num = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += num                                 # beta1 m + (1 - beta1) g
        den = np.multiply(g, g)
        den *= 1.0 - BETA2
        v *= BETA2
        v += den                                 # beta2 v + (1 - beta2) g^2
        np.divide(m, bc1, out=num)
        num *= state.lr                          # lr * m_hat
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += EPS                               # sqrt(v_hat) + eps
        num /= den
        p.value = p.value - num
    return state
