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
