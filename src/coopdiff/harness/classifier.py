"""Classifier training for the terminal cost.

A small tanh MLP trained with the batch mean of ``costs._nll`` (softmax
cross-entropy) on arrays: ``batch_loss`` pushes its gradient softmax -
onehot through ``Mlp.backward``, and no graph is built. The trained
network feeds the same negative log-likelihood as the terminal cost, and
the accuracy metric.
"""
from __future__ import annotations

import numpy as np

from .. import tape
from ..costs import _nll
from ..nn import Mlp
from ..optim import AdamState, adam_step
from ..sde import derive_rng
from .shapes import ShapesDataset

Array = np.ndarray


class ClassifierTrainingError(RuntimeError):
    """Held-out accuracy never reached the target; carries the curve."""

    def __init__(self, message: str, curve: list):
        super().__init__(message)
        self.curve = curve


def accuracy(classifier: Mlp, images: Array, labels: Array) -> float:
    logits = classifier.forward([images])[0]
    return float((logits.argmax(axis=1) == labels).mean())


def batch_loss(model: Mlp, images: Array, labels: Array):
    """The batch mean of the softmax cross-entropy, and one gradient per
    ``model.params()`` entry: (softmax - onehot) / batch pushed through
    the network's backward pass."""
    parts = [images]
    logits, cache = model.forward(parts)
    per_row, d_logits = _nll(logits, labels)
    scale = 1.0 / images.shape[0]
    grads, _ = Mlp.backward(cache, parts, d_logits * scale,
                            [True] * len(model.params()))
    return float(per_row.sum() * scale), [tape.dense(g) for g in grads]


def train_classifier(
    dataset: ShapesDataset,
    seed: int = 0,
    hidden=(64,),
    lr: float = 1e-3,
    batch: int = 64,
    max_steps: int = 4000,
    target_accuracy: float = 0.95,
) -> Mlp:
    """Train until held-out accuracy >= target (raises if never reached).

    The guard catches degenerate datasets: when the images carry no class
    signal (for example all-constant images), accuracy stalls at the class
    prior and training errors out instead of shipping a useless cost.
    """
    x_train, y_train = dataset.train()
    x_held, y_held = dataset.heldout()
    dim = x_train.shape[1]
    model = Mlp([dim, *hidden, dataset.num_classes], derive_rng(seed, 42),
                name="classifier")
    adam = AdamState.for_params(model.params(), lr=lr)
    data_rng = derive_rng(seed, 43)
    curve: list[tuple[int, float, float]] = []
    check_every = 200
    for step in range(max_steps):
        pick = data_rng.integers(0, x_train.shape[0], size=batch)
        loss_value, grads = batch_loss(model, x_train[pick], y_train[pick])
        adam_step(model.params(), grads, adam)
        if (step + 1) % check_every == 0 or step == max_steps - 1:
            acc = accuracy(model, x_held, y_held)
            curve.append((step + 1, loss_value, acc))
            if acc >= target_accuracy:
                return model
    raise ClassifierTrainingError(
        f"held-out accuracy stuck below {target_accuracy:.0%} after "
        f"{max_steps} steps (last checkpoints: {curve[-3:]})",
        curve,
    )
