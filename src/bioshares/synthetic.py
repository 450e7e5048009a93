"""Deterministic textured test images.

Each image blends value noise (a bilinearly upsampled coarse grid of
SplitMix64 bytes) with a sinusoidal ridge pattern whose frequency and phase
depend on the image index. The result is smooth, non-constant, and has a
wide histogram, which is what the desk-scale distortion checks need. No
dataset download required.
"""

from __future__ import annotations

import math

import numpy as np

from .images import GrayImage
from .prng import mix_seed, random_bytes

TEXTURE_BASE_SEED = 0x7E0A5EED
_GRID = 9


def textured_image(index: int, width: int = 64, height: int = 64) -> GrayImage:
    """The index-th synthetic texture at the given size."""
    grid_seed = mix_seed(TEXTURE_BASE_SEED, index)
    grid = random_bytes(grid_seed, _GRID * _GRID).astype(np.float64).reshape(_GRID, _GRID)

    xs = np.linspace(0.0, _GRID - 1, width)
    ys = np.linspace(0.0, _GRID - 1, height)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, _GRID - 1)
    y1 = np.minimum(y0 + 1, _GRID - 1)
    fx = xs - x0
    fy = ys - y0
    a = grid[np.ix_(y0, x0)]
    b = grid[np.ix_(y0, x1)]
    c = grid[np.ix_(y1, x0)]
    d = grid[np.ix_(y1, x1)]
    top = a * (1.0 - fx)[None, :] + b * fx[None, :]
    bottom = c * (1.0 - fx)[None, :] + d * fx[None, :]
    noise = top * (1.0 - fy)[:, None] + bottom * fy[:, None]

    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    fx_cycles = (index % 5) + 2
    fy_cycles = (index % 3) + 1
    ridges = 127.5 + 127.5 * np.sin(
        2.0 * math.pi * (fx_cycles * xx + fy_cycles * yy) / float(max(width, height)) + index
    )

    img = 0.75 * noise + 0.25 * ridges
    return GrayImage.adopt(width, height, np.clip(np.rint(img), 0, 255).astype(np.uint8).ravel())
