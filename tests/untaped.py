"""Tape-free reference computations for cross-checks."""
import numpy as np


def forward_plain(mlp, x):
    """``Mlp.__call__`` in plain numpy, reading the weights' values."""
    h = np.asarray(x, dtype=np.float64)
    n_layers = len(mlp.weights)
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = h @ w.value + b.value
        if i < n_layers - 1:
            h = np.tanh(h)
    return h


def backward_plain(mlp, x, g):
    """Adjoints of ``forward_plain(mlp, x)`` given the output adjoint ``g``:
    (input adjoint, [dW0, db0, dW1, db1, ...]), by textbook backprop."""
    hs = [np.asarray(x, dtype=np.float64)]      # layer inputs
    zs = []                                     # pre-activations
    for w, b in zip(mlp.weights, mlp.biases):
        zs.append(hs[-1] @ w.value + b.value)
        hs.append(np.tanh(zs[-1]))
    grads = []
    for i in reversed(range(len(mlp.weights))):
        if i < len(mlp.weights) - 1:
            g = g / np.cosh(zs[i]) ** 2
        grads[:0] = [hs[i].T @ g, g.sum(axis=0)]
        g = g @ mlp.weights[i].value.T
    return g, grads
