"""Small tanh MLPs with sinusoidal time features, and the lazy weight
adjoint sums their backward passes return.

An ``Mlp`` has two plain-numpy halves: calling it returns the output and
a cache (the weights it read, the hidden activations), and ``backward``
runs the layer-by-layer reverse pass from that cache, for every
parameter when the network's one ``trained`` flag is set, and for the
input columns asked for. Every network call goes through them: a
training rollout keeps the policies' caches in its step records, a
score model's pullback and a cost's gradient call ``backward`` with
their output adjoints, and the fits with their losses' closed-form
ones. A call takes its input as parts, each multiplied by its own rows
of the first-layer weight, so nothing is concatenated and a one-row part
(a rollout step's time features) serves the whole batch. A first-layer
weight's gradient term keeps references to the parts, which the fold of
that weight's terms reads directly. Every trained weight's gradient
``a.T @ g`` is an ``OuterSum`` term (one with at least as many rows as
columns folds at once), so a weight used at every rollout step is summed
with one gemm per block of steps (``accumulate``): exactly ``a.T @ g``
for a single use (``dense`` folds it), and a summation-order difference
in the last bits for many. The weights are tape leaves, because the
training objective is one tape node over the policies' weights.
``Mlp.stack`` runs N networks as one over (N, ...) tensors that store
their weights: a layer's lines index only its last two axes.

Two construction modes matter for control policies:
  * ``zero_final=True`` zero-initialises the last linear layer, so the
    network output is exactly 0 at construction;
  * ``final_bias=c`` additionally sets the last bias to a constant, so a
    zero-final network outputs exactly ``c`` everywhere.
"""
from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from . import tape
from .tape import Node

Array = np.ndarray


def time_features(t, width: int) -> Array:
    """Sinusoidal features of diffusion time, one row per time.

    A float ``t`` gives its one row, (1, width), memoised read-only per
    (t, width): the calls of one rollout step (each policy and the score
    net) pass it as an input part that their whole batch shares. A
    vector of times (the score fit's, one per row) gives a fresh
    (len(t), width) array. Frequencies are geometric in [1, 400],
    covering t in [0, 1].
    """
    if width % 2 != 0:
        raise ValueError(f"time feature width must be even, got {width}")
    if isinstance(t, float):
        return _time_row(t, width)
    tt = np.atleast_1d(np.asarray(t, dtype=np.float64)).reshape(-1, 1)
    ang = tt * np.exp(np.linspace(np.log(1.0), np.log(400.0), width // 2))
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@functools.lru_cache(maxsize=4096)
def _time_row(t: float, width: int) -> Array:
    row = time_features(np.array([t]), width)
    row.setflags(write=False)
    return row


def _first_layer(w: Array, parts: Sequence[Array]) -> Array:
    """sum_j parts[j] @ w[rows_j], added in part order: each input part
    times its own rows of the first-layer weight ``w``, a one-row part
    shared by the batch's rows. No product spans two parts, so the sum
    does not depend on how a BLAS splits a wide product over threads."""
    rows = max(p.shape[-2] for p in parts)
    if (sum(p.shape[-1] for p in parts) != w.shape[-2]
            or any(p.shape[-2] not in (1, rows) for p in parts)):
        raise ValueError(f"input parts {[p.shape for p in parts]} do not "
                         f"fit a first layer of {w.shape[-2]} rows")
    h, lo = None, 0
    for p in parts:
        term = p @ w[..., lo:lo + p.shape[-1], :]
        lo += p.shape[-1]
        h = term if h is None else np.add(
            h, term, out=h if h.shape[-2] == rows else None)
    return h


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

    @classmethod
    def stack(cls, mlps: Sequence["Mlp"]) -> "Mlp":
        """``mlps`` (of equal sizes) as one network of (N, ...) tensors,
        trained where a leaf is, whose row i is member i's leaf; leaves
        not all rows of one array (a rebound one) are restacked."""
        if any(m.sizes != mlps[0].sizes for m in mlps):
            raise ValueError(f"cannot stack sizes {[m.sizes for m in mlps]}")
        net, tensors = cls.__new__(cls), []
        for leaves in zip(*(m.params() for m in mlps)):
            stack = leaves[0].value.base
            if not (isinstance(stack, np.ndarray) and len(stack) == len(mlps)
                    and all(p.value.__array_interface__
                            == stack[i].__array_interface__
                            for i, p in enumerate(leaves))):
                stack = np.stack([p.value for p in leaves])
                for i, p in enumerate(leaves):
                    p.value = stack[i]
            trained = any(p.requires_grad for p in leaves)
            tensors.append((tape.leaf if trained else Node)(stack))
        net.sizes, net.weights, net.biases = (mlps[0].sizes, tensors[0::2],
                                              tensors[1::2])
        return net

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    @property
    def trained(self) -> bool:          # the one flag ``backward`` takes
        return any(p.requires_grad for p in self.params())

    def __call__(self, parts: list[Array]) -> tuple[Array, tuple]:
        """The network on the input ``parts`` (``_first_layer``): the
        output, and the cache ``backward`` reads besides the parts, (the
        weights read, the hidden activations), where ``hidden[i]`` is the
        input of layer i + 1. The last layer is ``output``, so a rebuild
        from the cache equals the call."""
        ws = [w.value for w in self.weights]
        hidden = []
        for w, b in zip(ws[:-1], self.biases):
            h = hidden[-1] @ w if hidden else _first_layer(w, parts)
            h += b.value[..., None, :]
            np.tanh(h, out=h)
            hidden.append(h)
        cache = (ws, hidden)
        return self.output(cache, parts), cache

    def output(self, cache, parts: list[Array]) -> Array:
        """A call's output from its cache: the last layer on the last
        hidden activations (on ``parts`` for a network without hidden
        layers). The bias is the network's own, which is the one the call
        read until a parameter is rebound."""
        ws, hidden = cache
        h = hidden[-1] @ ws[-1] if hidden else _first_layer(ws[-1], parts)
        h += self.biases[-1].value[..., None, :]
        return h

    @staticmethod
    def backward(cache, parts, g, trained: bool, span=None):
        """Adjoints of a call, from its cache and parts, given its output
        adjoint ``g``: one per parameter (w0, b0, w1, ...) when
        ``trained``, else all None, and, with ``span = (lo, hi)``, the
        input adjoint over input columns lo:hi (else None). A weight's
        adjoint is an ``OuterSum`` term (folded at once into ``a.T @ g``
        when ``g`` has no fewer rows than columns); the first layer's
        reads ``parts``, where a one-row part stands for every row."""
        ws, hidden = cache
        grads = [None] * (2 * len(ws))
        if not (trained or span):
            return grads, None
        for i in range(len(ws) - 1, -1, -1):
            if trained:
                grads[2 * i] = OuterSum([hidden[i - 1]] if i else parts, g)
                grads[2 * i + 1] = g.sum(axis=-2)
            if i:
                g = g @ ws[i].swapaxes(-1, -2)
                d = hidden[i - 1] * hidden[i - 1]
                np.subtract(1.0, d, out=d)
                g *= d
            elif span:
                g = g @ ws[0][..., span[0]:span[1], :].swapaxes(-1, -2)
        return grads, (g if span else None)

    def params(self) -> list[Node]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def state_dict(self) -> dict[str, Array]:
        return {p.name: p.value.copy() for p in self.params()}

    def load_state_dict(self, state: dict[str, Array]) -> None:
        for p in self.params():
            name = p.name
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


# ---------------------------------------------------------------------------
# lazy weight adjoints
# ---------------------------------------------------------------------------

class OuterSum:
    """The lazy weight adjoint sum_k a_k.T @ g_k.

    A weight used at K steps of a rollout gets one ``a_k.T @ g_k`` per
    step, each a skinny gemm (inner dimension = the batch) followed by a
    full-size add. ``Mlp.backward`` instead returns ``OuterSum(a, g)``,
    and ``accumulate`` adds the terms of later contributions into the
    first with ``add``: the pending (a_k, g_k) pairs are folded into a
    dense sum with one ``concatenate(a).T @ concatenate(g)`` whenever their
    rows reach the weight's column count. Pending rows thus stay below the
    column count (the pending ``a_k`` hold fewer bytes than the dense
    sum), and the weight costs one well-shaped gemm and one add per block
    of steps.

    ``a`` is given as its column parts, a sequence of arrays whose
    column concatenation is ``a``, a one-row part standing for ``g``'s
    rows (an ``Mlp``'s input parts, or one hidden layer): a term keeps
    references to the parts, and the fold fills its block of rows
    straight from them, in the terms' dtype (float32 in the score fit),
    so no term copies its input. A single one-part term folds to
    exactly ``a.T @ g`` (a stack's, one per member); a longer sum
    differs from the step-by-step one only in summation order. The parts
    and the ``g_k`` are only read, never written.
    """

    __slots__ = ("pairs", "rows", "cols", "dense")

    def __init__(self, a: Sequence[Array], g: Array):
        self.pairs: list[tuple] = []                  # pending (a_k, g_k)
        self.rows = 0                                 # rows of the pending a_k
        self.cols = g.shape[-1]
        self.dense: Array | None = None               # the folded terms
        self._push(a, g)

    def add(self, other: "OuterSum") -> None:
        """Add the terms of ``other`` into this sum, taking ``other`` over
        (its dense part may become this sum's)."""
        if other.dense is not None:
            self._fold_in(other.dense)
        for a, g in other.pairs:
            self._push(a, g)

    def array(self) -> Array:
        """The sum as an array (folds what is pending)."""
        if self.pairs:
            parts, g = self.pairs[0]
            if len(self.pairs) == 1 and len(parts) == 1:
                part = parts[0].swapaxes(-1, -2) @ g
            else:
                # the pending a_k as one block, filled from their parts
                block = np.empty((*g.shape[:-2], self.rows,
                                  sum(p.shape[-1] for p in parts)),
                                 dtype=np.result_type(g, *parts))
                r = 0
                for parts, g in self.pairs:
                    c = 0
                    for p in parts:
                        block[..., r:r + g.shape[-2], c:c + p.shape[-1]] = p
                        c += p.shape[-1]
                    r += g.shape[-2]
                gs = [g for _, g in self.pairs]
                g = gs[0] if len(gs) == 1 else np.concatenate(gs, axis=-2)
                part = block.swapaxes(-1, -2) @ g
            self.pairs, self.rows = [], 0
            self._fold_in(part)
        return self.dense

    def _push(self, a: Sequence[Array], g: Array) -> None:
        self.pairs.append((a, g))
        self.rows += g.shape[-2]
        if self.rows >= self.cols:
            self.array()

    def _fold_in(self, part: Array) -> None:
        if self.dense is None:
            self.dense = part
        else:
            self.dense += part


def dense(g):
    """An adjoint as an array: an ``OuterSum`` term folded, an array as
    is."""
    return g.array() if type(g) is OuterSum else g


def accumulate(grads: dict, owned: set, key, contrib) -> None:
    """Add the adjoint contribution ``contrib`` into ``grads[key]``.

    The first contribution is kept as given (it may be shared); the second
    makes a new sum array that later ones are added into in place (``owned``
    holds the keys whose array is the caller's), so the sums need no
    allocation per contribution and never write into an array a VJP
    returned. A key's contributions are all arrays (biases, states) or all
    ``OuterSum`` terms (weights), which are added lazily and folded
    blockwise.
    """
    acc = grads.get(key)
    if acc is None:
        grads[key] = contrib
        return
    if type(acc) is OuterSum:
        acc.add(contrib)
        return
    if key in owned and acc.shape == contrib.shape:
        acc += contrib
    else:
        acc = acc + contrib
        owned.add(key)
    grads[key] = acc
