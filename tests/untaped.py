"""Tape-free reference computations for cross-checks."""
import numpy as np


def forward_plain(mlp, x):
    """An ``Mlp`` call's output in plain numpy, reading the weights'
    values."""
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
