"""Small tanh MLPs with sinusoidal time features.

An ``Mlp`` has two plain-numpy halves: ``forward`` returns the output and
a cache (the weights it read, the hidden activations), and ``backward``
runs the layer-by-layer reverse pass from it for the parameters flagged
live, and for the input columns asked for. A training rollout calls the
two directly and keeps the caches in its step records; the score and
classifier fits call them with their losses' closed-form output
adjoints. The weights are tape leaves, because a training rollout is one
tape node over its policies' weights and a score model is called on a
``Node``. Calling the ``Mlp`` records one fused tape node on the column
concatenation of its inputs, whose VJP is ``backward``: frozen weights
get no weight gradient, a constant input part no input adjoint, and the
input adjoint is formed only over the column block that spans the live
parts. The node keeps no copy of its input: a trained first-layer
weight's gradient term keeps references to the input parts, which the
fold of that weight's terms reads directly. A trained weight's gradient
``a.T @ g`` is a ``tape.OuterSum`` term, so a weight used at every
rollout step is summed with one gemm per block of steps: exactly
``a.T @ g`` for a single use (``tape.dense`` folds it), and a
summation-order difference in the last bits for many.

Two construction modes matter for control policies:
  * ``zero_final=True`` zero-initialises the last linear layer, so the
    network output is exactly 0 at construction;
  * ``final_bias=c`` additionally sets the last bias to a constant, so a
    zero-final network outputs exactly ``c`` everywhere.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from . import tape
from .tape import Node

Array = np.ndarray


@functools.lru_cache(maxsize=None)
def _frequencies(half: int) -> Array:
    freqs = np.exp(np.linspace(np.log(1.0), np.log(400.0), half))
    freqs.setflags(write=False)
    return freqs


def _features(tt: Array, width: int) -> Array:
    """The sin/cos features of the (rows, 1) times ``tt``."""
    ang = tt * _frequencies(width // 2)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@functools.lru_cache(maxsize=4096)
def _time_row(t: float, width: int) -> Array:
    row = _features(np.array([[t]]), width)
    row.setflags(write=False)
    return row


def time_features(t, width: int, batch: int = 1) -> Array:
    """Sinusoidal features of diffusion time, shape (batch, width).

    ``t`` may be a scalar (shared across the batch) or a length-``batch``
    vector. Frequencies are geometric in [1, 400], covering t in [0, 1];
    they are computed once per width. The row of a float time is memoised
    per (t, width), so the calls of one rollout step (each policy and the
    score net) share it; with ``batch = 1`` that read-only row is the
    result.
    """
    if width % 2 != 0:
        raise ValueError(f"time feature width must be even, got {width}")
    if isinstance(t, float) and batch >= 1:
        feats = _time_row(t, width)
    else:
        tt = np.atleast_1d(np.asarray(t, dtype=np.float64)).reshape(-1, 1)
        if tt.shape[0] != batch and not (tt.shape[0] == 1 and batch >= 1):
            raise ValueError(f"got {tt.shape[0]} times for batch {batch}")
        feats = _features(tt, width)
    if feats.shape[0] == 1 and batch > 1:
        return np.repeat(feats, batch, axis=0)
    return feats


def _columns(parts: list[Array]) -> Array:
    """The column concatenation of 2-D ``parts`` (a lone part as is)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


class Mlp:
    """Fully connected network, tanh hidden activations, linear output."""

    def __init__(
        self,
        sizes,
        rng: np.random.Generator,
        zero_final: bool = False,
        final_bias: float | None = None,
        name: str = "mlp",
    ):
        if len(sizes) < 2:
            raise ValueError("an Mlp needs at least input and output sizes")
        self.sizes = [int(s) for s in sizes]
        self.name = name
        self.weights: list[Node] = []
        self.biases: list[Node] = []
        n_layers = len(self.sizes) - 1
        for i, (m, n) in enumerate(zip(self.sizes[:-1], self.sizes[1:])):
            last = i == n_layers - 1
            if last and zero_final:
                w = np.zeros((m, n))
                b = np.full(n, 0.0 if final_bias is None else float(final_bias))
            else:
                # Xavier-style scaling keeps tanh pre-activations O(1)
                w = rng.standard_normal((m, n)) * np.sqrt(1.0 / m)
                b = np.zeros(n)
            self.weights.append(tape.leaf(w, name=f"{name}.w{i}"))
            self.biases.append(tape.leaf(b, name=f"{name}.b{i}"))

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def forward(self, parts: list[Array]) -> tuple[Array, tuple]:
        """The network on the column concatenation of the 2-D arrays
        ``parts``: the output, and the cache ``backward`` reads besides
        the parts, (the weights read, the hidden activations), where
        ``hidden[i]`` is the input of layer i + 1."""
        ws = [w.value for w in self.weights]
        h = _columns(parts)
        hidden = []
        for i, (w, b) in enumerate(zip(ws, self.biases)):
            h = h @ w
            h += b.value
            if i < len(ws) - 1:
                np.tanh(h, out=h)
                hidden.append(h)
        return h, (ws, hidden)

    def output(self, cache, parts: list[Array]) -> Array:
        """A ``forward`` call's output rebuilt from its cache with the
        forward's last-layer ops, so bit for bit; ``parts`` are read only
        by a network without hidden layers. The bias is the network's own,
        which is the one the forward read until a parameter is rebound."""
        ws, hidden = cache
        h = (hidden[-1] if hidden else _columns(parts)) @ ws[-1]
        h += self.biases[-1].value
        return h

    @staticmethod
    def backward(cache, parts, g, live, span=None):
        """Adjoints of a ``forward`` call, from its cache and parts, given
        its output adjoint ``g``; ``live`` flags the parameters (w0, b0,
        w1, ...) that get one. Returns those adjoints (None where not
        live) and, with ``span = (lo, hi)``, the input adjoint over input
        columns lo:hi (else None). A weight's adjoint is a ``tape.OuterSum``
        term, or ``a.T @ g`` if ``g`` has no fewer rows than columns (the
        term would fold at once); the first layer's reads ``parts``. The
        pass stops at the lowest layer it has to reach."""
        ws, hidden = cache
        grads = [None] * len(live)
        if not (span or any(live)):
            return grads, None
        bottom = 0 if span else live.index(True) // 2
        for i in range(len(ws) - 1, bottom - 1, -1):
            if live[2 * i]:          # folded at once when as tall as wide
                a = [hidden[i - 1]] if i > 0 else parts
                grads[2 * i] = (tape.OuterSum(a, g) if len(g) < g.shape[1]
                                else _columns(a).T @ g)
            if live[2 * i + 1]:
                grads[2 * i + 1] = g.sum(axis=0)
            if i > bottom:
                g = g @ ws[i].T
                d = hidden[i - 1] * hidden[i - 1]
                np.subtract(1.0, d, out=d)
                g *= d
            elif span:
                g = g @ ws[0][span[0]:span[1]].T
        return grads, (g if span else None)

    def __call__(self, *xs) -> Node:
        """The network on the column concatenation of ``xs`` (nodes or
        arrays): one fused node, so a constant part (time features, say)
        costs no concat node and gets no adjoint. It keeps what its VJP
        reads (see the module notes); the part arrays are never written."""
        xs = [tape.as_node(x) for x in xs]
        inputs = [*xs, *self.params()]   # x parts, w0, b0, w1, b1, ...
        live = tape.live(inputs)
        n_in = len(xs)
        parts = [x.value for x in xs]
        h, cache = self.forward(parts)
        if not any(live):
            return tape.constant(h)
        p_live = live[n_in:]
        if not p_live[0]:
            parts = None                 # only the w0 gradient reads the input
        cols = list(itertools.accumulate((x.value.shape[1] for x in xs),
                                         initial=0))
        # the input adjoint is formed only over the column block that
        # spans the live parts
        parts_live = [j for j in range(n_in) if live[j]]
        span = ((cols[parts_live[0]], cols[parts_live[-1] + 1])
                if parts_live else None)

        def vjp(g):
            grads, g_in = self.backward(cache, parts, g, p_live, span)
            ins = [g_in[:, cols[j] - span[0]:cols[j + 1] - span[0]]
                   if live[j] else None for j in range(n_in)]
            return ins + grads

        return tape.fused(h, inputs, vjp)

    def params(self) -> list[Node]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def named_params(self) -> list[tuple[str, Node]]:
        return [(p.name, p) for p in self.params()]

    def state_dict(self) -> dict[str, Array]:
        return {name: p.value.copy() for name, p in self.named_params()}

    def load_state_dict(self, state: dict[str, Array]) -> None:
        for name, p in self.named_params():
            if name not in state:
                raise KeyError(f"checkpoint is missing tensor {name!r}")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"checkpoint {arr.shape} vs model {p.value.shape}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"tensor {name!r} holds non-finite values")
            p.value = arr
