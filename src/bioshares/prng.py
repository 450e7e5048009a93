"""Deterministic 64-bit pseudo-random generator used for all keyed randomness.

The generator is SplitMix64 (Steele, Lea & Vigna), fully specified by the
three constants below: output number m = 1, 2, ... for seed s is

    mix(s + m * 0x9E3779B97F4A7C15)   mod 2**64

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

SEED_MAX = _MASK


def parse_seed(text: str) -> int:
    """A seed of ASCII decimal digits only (no sign, space or `_`) up to SEED_MAX."""
    if not (text.isascii() and text.isdigit()) or int(text) > SEED_MAX:
        raise ValueError(f"seed must be decimal digits within 0..{SEED_MAX}, got {text!r}")
    return int(text)


def splitmix64(seed: int, count: int, first: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 outputs number first, first + 1, ... for `seed`, `count` of
    them (by default the first `count`), as a uint64 array.

    With `out`, a uint64 array of `count` entries, the outputs are written
    into it, so a caller can fill its own buffer a block at a time. Every
    step of the formula runs in place; the xor-shifts write their shifted
    copy into one scratch buffer.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    z = np.arange(first, first + count, dtype=np.uint64)
    if out is None:
        shifted = np.empty_like(z)
    else:  # the output numbers' buffer becomes the scratch
        out[...] = z
        z, shifted = out, z
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def mix_seed(seed: int, index: int) -> int:
    """Child seed number `index` of `seed`: SplitMix64 output number
    `index + 1` (mod 2**64), computed directly in O(1)."""
    return int(splitmix64(seed, 1, (index + 1) & _MASK)[0])


def seed_sequence(master: int, count: int) -> list[int]:
    """Expand a master seed into `count` independent child seeds."""
    return splitmix64(master, count).tolist()


def random_bytes(seed: int, count: int) -> np.ndarray:
    """`count` uint8 values, one low byte per SplitMix64 output (the
    narrowing cast keeps the low byte)."""
    return splitmix64(seed, count).astype(np.uint8)
