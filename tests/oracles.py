"""Reference samplers and metrics that only tests use."""
import numpy as np

from coopdiff import tape
from coopdiff.optimize import sample_poe_naive


def sample_reverse_sde(score_fn, grid, schedule, seed, batch, dim):
    """Ordinary single-model sampling: the one-expert case of
    ``sample_poe_naive``."""
    return sample_poe_naive([score_fn], grid, schedule, seed, batch, dim)


def confusion_matrix(classifier, images, labels):
    """Counts of (true label, predicted label) pairs, shape (C, C)."""
    with tape.no_grad():
        pred = classifier(images).value.argmax(axis=1)
    n = classifier.out_dim
    out = np.zeros((n, n), dtype=np.int64)
    np.add.at(out, (labels, pred), 1)
    return out
