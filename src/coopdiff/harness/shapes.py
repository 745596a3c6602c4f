"""Procedural 16x16 grayscale shape images.

Four linearly well-separated classes on a -1 background: horizontal bar,
vertical bar, cross, ring. Bars jitter in position and thickness, rings in
radius and centre, and every image gets its own stroke intensity plus a
little pixel noise, so the score model sees a distribution rather than
four templates. Pixel values always stay inside [-1, 1].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sde import derive_rng

Array = np.ndarray

IMAGE_H = 16
IMAGE_W = 16
CLASS_NAMES = ("hbar", "vbar", "cross", "ring")


def _draw(kind: int, rng: np.random.Generator) -> Array:
    img = np.full((IMAGE_H, IMAGE_W), -1.0)
    stroke = rng.uniform(0.65, 1.0)
    thickness = int(rng.integers(2, 4))

    def hbar():
        r0 = int(rng.integers(3, IMAGE_H - 3 - thickness))
        img[r0:r0 + thickness, 1:-1] = stroke

    def vbar():
        c0 = int(rng.integers(3, IMAGE_W - 3 - thickness))
        img[1:-1, c0:c0 + thickness] = stroke

    if kind == 0:
        hbar()
    elif kind == 1:
        vbar()
    elif kind == 2:
        hbar()
        vbar()
    elif kind == 3:
        cy = IMAGE_H / 2 - 0.5 + rng.uniform(-1.5, 1.5)
        cx = IMAGE_W / 2 - 0.5 + rng.uniform(-1.5, 1.5)
        radius = rng.uniform(3.5, 5.5)
        yy, xx = np.mgrid[0:IMAGE_H, 0:IMAGE_W]
        dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
        img[np.abs(dist - radius) < 1.0] = stroke
    else:
        raise ValueError(f"unknown class id {kind}")
    img += rng.normal(0.0, 0.04, size=img.shape)
    return np.clip(img, -1.0, 1.0)


@dataclass(frozen=True)
class ShapesDataset:
    """Flattened images in [-1, 1], balanced labels, fixed split."""

    images: Array          # (M, 256)
    labels: Array          # (M,), int
    train_idx: Array
    heldout_idx: Array

    def train(self) -> tuple[Array, Array]:
        return self.images[self.train_idx], self.labels[self.train_idx]

    def heldout(self) -> tuple[Array, Array]:
        return self.images[self.heldout_idx], self.labels[self.heldout_idx]


def generate_shapes(n_per_class: int = 500, seed: int = 0,
                    heldout_fraction: float = 0.2) -> ShapesDataset:
    rng = derive_rng(seed, 41)
    images = []
    labels = []
    for kind in range(len(CLASS_NAMES)):
        for _ in range(n_per_class):
            images.append(_draw(kind, rng).reshape(-1))
            labels.append(kind)
    images = np.asarray(images)
    labels = np.asarray(labels, dtype=np.int64)
    order = rng.permutation(images.shape[0])
    images, labels = images[order], labels[order]
    n_heldout = int(round(heldout_fraction * images.shape[0]))
    idx = np.arange(images.shape[0])
    return ShapesDataset(
        images=images,
        labels=labels,
        train_idx=idx[n_heldout:],
        heldout_idx=idx[:n_heldout],
    )
