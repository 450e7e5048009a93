"""Deterministic 64-bit pseudo-random generator used for all keyed randomness.

The generator is SplitMix64 (Steele, Lea & Vigna), fully specified by the
three constants below: the k-th output for seed s is

    mix(s + (k + 1) * 0x9E3779B97F4A7C15)   mod 2**64

where mix xor-shifts by 30/27/31 and multiplies by 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB. Outputs depend only on the seed, so every derived
permutation, cover texture and batch seed reproduces bit-exactly across
platforms and Python versions.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

SEED_BITS = 64
SEED_MAX = _MASK


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First `count` SplitMix64 outputs for `seed`, as a uint64 array."""
    if count < 0:
        raise ValueError("count must be non-negative")
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + np.uint64(_GOLDEN) * steps
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def mix_seed(seed: int, index: int) -> int:
    """Child seed number `index` of `seed`: the index-th SplitMix64 output,
    computed directly in O(1)."""
    return int(splitmix64((seed + index * _GOLDEN) & _MASK, 1)[0])


def seed_sequence(master: int, count: int) -> list[int]:
    """Expand a master seed into `count` independent child seeds."""
    return splitmix64(master, count).tolist()


def random_bytes(seed: int, count: int) -> np.ndarray:
    """`count` uint8 values, one low byte per SplitMix64 output."""
    return (splitmix64(seed, count) & np.uint64(0xFF)).astype(np.uint8)
