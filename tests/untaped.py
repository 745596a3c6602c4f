"""Tape-free reference computations for cross-checks."""
import numpy as np


def first_layer_plain(w, parts):
    """sum_j parts[j] @ w[rows_j] in part order, each part's product on its
    own rows of ``w`` (a one-row part broadcasts over the batch)."""
    h, lo = 0.0, 0
    for p in parts:
        p = np.asarray(p, dtype=np.float64)
        h = h + p @ w[lo:lo + p.shape[1]]
        lo += p.shape[1]
    return h


def forward_plain(mlp, *parts):
    """An ``Mlp`` call's output on the input ``parts`` in plain numpy,
    reading the weights' values."""
    n_layers = len(mlp.weights)
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = (h @ w.value if i else first_layer_plain(w.value, parts)) + b.value
        if i < n_layers - 1:
            h = np.tanh(h)
    return h


def backward_plain(mlp, parts, g):
    """Adjoints of ``forward_plain(mlp, *parts)`` given the output adjoint
    ``g``: (input adjoint over all the parts' columns, [dW0, db0, dW1,
    db1, ...]), by textbook backprop, tanh' = 1 - tanh^2. The first
    layer's weight adjoint is the parts' concatenation (one-row parts
    repeated over the batch) times ``g``."""
    hs = []                                     # hidden activations
    for i, (w, b) in enumerate(zip(mlp.weights[:-1], mlp.biases)):
        z = (hs[-1] @ w.value if i else first_layer_plain(w.value, parts))
        hs.append(np.tanh(z + b.value))
    rows = g.shape[0]
    x = np.concatenate([np.broadcast_to(p, (rows, p.shape[1]))
                        for p in parts], axis=1)
    hs.insert(0, x)
    grads = []
    for i in reversed(range(len(mlp.weights))):
        grads[:0] = [hs[i].T @ g, g.sum(axis=0)]
        g = g @ mlp.weights[i].value.T
        if i > 0:
            g = g * (1.0 - hs[i] * hs[i])
    return g, grads


def adam_plain(value, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook Adam update of one array over a sequence of gradients,
    with fresh arrays at every step; returns the final value."""
    m = np.zeros_like(value)
    v = np.zeros_like(value)
    for step, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** step)
        v_hat = v / (1.0 - beta2 ** step)
        value = value - lr * m_hat / (np.sqrt(v_hat) + eps)
    return value
