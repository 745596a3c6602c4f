"""Small tanh MLPs with sinusoidal time features, built on the tape.

One call of an ``Mlp`` is one fused tape node, on the column concatenation
of its inputs. The node keeps the hidden activations and no copy of its
input: a trained first-layer weight's gradient term keeps references to
the input parts, which the fold of that weight's terms reads directly
(see ``tape.OuterSum``). The VJP runs the layer-by-layer backward in
plain numpy for the parents that require grad: frozen weights get no
weight gradient, and a constant input part no input adjoint; the input
adjoint is formed only over the column block that spans the live parts.
A trained weight's gradient ``a.T @ g`` is returned as a ``tape.OuterSum``
term, so a weight used at every rollout step is summed with one gemm per
block of steps: exactly ``a.T @ g`` for a single use, and a
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
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def __call__(self, *xs) -> Node:
        """The network on the column concatenation of ``xs`` (nodes or
        arrays): one fused node, so a constant part (time features, say)
        costs no concat node and gets no adjoint.

        The node keeps the hidden activations its VJP reads and no copy of
        the concatenated input. With the first-layer weight frozen (the
        pretrained networks) it keeps nothing of the input. With that
        weight trained it keeps references to the part arrays, and the
        weight's gradient term hands them to the fold, which fills the same
        block of rows a kept copy would give. The part arrays are never
        written, so they cannot change under the reference, and releasing
        a part's node (``tape.release``) drops only the node's reference.
        """
        xs = [tape.as_node(x) for x in xs]
        inputs = [*xs, *self.params()]   # x parts, w0, b0, w1, b1, ...
        live = tape.live(inputs)
        n_in = len(xs)
        x_live = any(live[:n_in])
        n_layers = len(self.weights)
        ws = [w.value for w in self.weights]
        parts = [x.value for x in xs]
        h = _columns(parts)
        hidden = []                      # hidden[i] is the input of layer i + 1
        for i, (w, b) in enumerate(zip(ws, self.biases)):
            h = h @ w
            h += b.value
            if i < n_layers - 1:
                np.tanh(h, out=h)
                hidden.append(h)
        if not any(live):
            return tape.constant(h)
        if not live[n_in]:
            parts = None                 # only the w0 gradient reads the input
        # the lowest layer the adjoint has to reach
        bottom = 0 if x_live else (live.index(True, n_in) - n_in) // 2
        cols = list(itertools.accumulate((x.value.shape[1] for x in xs),
                                         initial=0))
        # the input adjoint is formed only over the column block that
        # spans the live parts
        parts_live = [j for j in range(n_in) if live[j]]
        lo = cols[parts_live[0]] if x_live else 0
        hi = cols[parts_live[-1] + 1] if x_live else 0
        w_in = ws[0][lo:hi]

        def vjp(g):
            grads = [None] * len(live)
            for i in range(n_layers - 1, bottom - 1, -1):
                if live[n_in + 2 * i]:
                    a = (hidden[i - 1],) if i > 0 else parts
                    grads[n_in + 2 * i] = tape.OuterSum(a, g)
                if live[n_in + 2 * i + 1]:
                    grads[n_in + 2 * i + 1] = g.sum(axis=0)
                if i > bottom:
                    g = g @ ws[i].T
                    d = hidden[i - 1] * hidden[i - 1]
                    np.subtract(1.0, d, out=d)
                    g *= d
                elif x_live:
                    g = g @ w_in.T
            for j in range(n_in):
                if live[j]:
                    grads[j] = g[:, cols[j] - lo:cols[j + 1] - lo]
            return tuple(gr for gr, keep in zip(grads, live) if keep)

        return tape.fused(h, [n for n, keep in zip(inputs, live) if keep], vjp)

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
            p.value = arr
