"""Sample-grid export as binary PGM (P5).

PGM is lossless 8-bit grayscale with a trivial header, so round-tripping
written pixels is exact and needs no imaging dependency. Pixel mapping:
[-1, 1] -> [0, 255] linear, clipped then rounded.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ..aggregation import MaskAggregator

Array = np.ndarray


def quantize(images: Array) -> Array:
    """float images in [-1, 1] (clipped) to uint8."""
    x = np.clip(np.asarray(images, dtype=np.float64), -1.0, 1.0)
    return np.rint((x + 1.0) * 127.5).astype(np.uint8)


def write_pgm(path, image: Array) -> None:
    image = np.asarray(image)
    if image.dtype != np.uint8 or image.ndim != 2:
        raise ValueError("write_pgm expects a 2-D uint8 array")
    h, w = image.shape
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def tile_grid(images: Array, pad: int = 1, pad_value: int = 0) -> Array:
    """Tile (M, H, W) uint8 images into a near-square grid image."""
    images = np.asarray(images)
    if images.ndim != 3:
        raise ValueError("tile_grid expects (count, height, width)")
    m, h, w = images.shape
    cols = int(math.ceil(math.sqrt(m)))
    rows = int(math.ceil(m / cols))
    out = np.full(
        (rows * h + (rows + 1) * pad, cols * w + (cols + 1) * pad),
        pad_value,
        dtype=np.uint8,
    )
    for idx in range(m):
        r, c = divmod(idx, cols)
        top = pad + r * (h + pad)
        left = pad + c * (w + pad)
        out[top:top + h, left:left + w] = images[idx]
    return out


def annotate_region(image: Array, agg: MaskAggregator, agent: int) -> Array:
    """Outline the rows/columns an agent controls at max intensity."""
    if agg.image_hw is None:
        raise ValueError("annotation needs an image layout")
    h, w = agg.image_hw
    out = image.copy()
    mask = agg.masks[agent].reshape(h, w) > 0
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    r0, r1 = int(rows[0]), int(rows[-1])
    c0, c1 = int(cols[0]), int(cols[-1])
    out[r0, c0:c1 + 1] = 255
    out[r1, c0:c1 + 1] = 255
    out[r0:r1 + 1, c0] = 255
    out[r0:r1 + 1, c1] = 255
    return out


def export_grid(
    samples: Array,
    path,
    image_hw: tuple,
    agg: MaskAggregator | None = None,
    agent: int | None = None,
) -> None:
    """Write flattened samples as one PGM grid.

    With ``agg`` and ``agent`` given, each tile is outlined around the
    region that agent controls (used for the per-agent panels).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    h, w = image_hw
    if samples.shape[1] != h * w:
        raise ValueError(
            f"samples have dimension {samples.shape[1]}, expected {h * w}"
        )
    tiles = quantize(samples).reshape(-1, h, w)
    if agg is not None and agent is not None:
        tiles = np.stack([annotate_region(t, agg, agent) for t in tiles])
    write_pgm(path, tile_grid(tiles))
