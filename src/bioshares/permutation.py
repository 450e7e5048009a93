"""Seed-keyed pixel permutations.

A permutation is produced by a Fisher-Yates shuffle whose draws come from
SplitMix64 (see the prng module), so a (seed, length) pair names the same
bijection on every platform. Re-issuing a template is just a matter of
choosing new seeds; without the seed the permutation cannot be undone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .images import GrayImage
from .prng import SEED_MAX, splitmix64


@dataclass(frozen=True)
class PermutationKey:
    """A (seed, length) pair selecting one bijection on {0..length-1}."""

    seed: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= SEED_MAX:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.length <= 0:
            raise ValueError(f"permutation length must be positive, got {self.length}")


def derive_permutation(key: PermutationKey) -> np.ndarray:
    """The bijection selected by the key, as a read-only int64 index array.

    Nothing is memoised: the array is key material and lives only as long as
    its caller keeps it.
    """
    # Fisher-Yates, descending: at step i swap with j = draw mod (i + 1)
    length = key.length
    draws = splitmix64(key.seed, length - 1)
    bounds = np.arange(length, 1, -1, dtype=np.uint64)
    perm = list(range(length))
    i = length - 1
    for j in (draws % bounds).tolist():
        perm[i], perm[j] = perm[j], perm[i]
        i -= 1
    out = np.asarray(perm, dtype=np.int64)
    out.setflags(write=False)
    return out


def _require_length(img: GrayImage, key: PermutationKey) -> None:
    if key.length != img.pixel_count:
        raise ValueError(
            f"permutation length {key.length} does not match image pixel count {img.pixel_count}"
        )


def permute_image(img: GrayImage, key: PermutationKey) -> GrayImage:
    """Scramble pixels: output pixel j is input pixel perm[j]."""
    _require_length(img, key)
    perm = derive_permutation(key)
    return GrayImage(img.width, img.height, img.data[perm])


def inverse_permute_image(img: GrayImage, key: PermutationKey) -> GrayImage:
    """Undo permute_image with the same key, bit-exactly."""
    _require_length(img, key)
    perm = derive_permutation(key)
    out = np.empty(img.pixel_count, dtype=np.uint8)
    out[perm] = img.data
    return GrayImage(img.width, img.height, out)
