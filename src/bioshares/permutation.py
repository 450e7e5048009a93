"""Seed-keyed pixel permutations.

A permutation is exactly the one a sequential Fisher-Yates shuffle produces
when its draws come from SplitMix64 (see the prng module), so a
(seed, length) pair names the same bijection on every platform. It is
computed without the swap loop, by one sort and pointer doubling over whole
arrays. Re-issuing a template is just a matter of choosing new seeds;
without the seed the permutation cannot be undone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .images import GrayImage
from .prng import SEED_MAX, splitmix64


MAX_LENGTH = 2**31
"""Longest permutation a key may select. derive_permutation sorts its steps
by target << 32 | step, which fits an int64 while every index is below
2**31."""


@dataclass(frozen=True)
class PermutationKey:
    """A (seed, length) pair selecting one bijection on {0..length-1}.

    Raises ValueError unless 0 <= seed < 2**64 and 1 <= length <= MAX_LENGTH.
    """

    seed: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= SEED_MAX:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not 1 <= self.length <= MAX_LENGTH:
            raise ValueError(f"permutation length must be in 1..{MAX_LENGTH}, got {self.length}")


def derive_permutation(key: PermutationKey) -> np.ndarray:
    """The bijection selected by the key, as a read-only int64 index array.

    The result is exactly the sequential Fisher-Yates shuffle of
    0..length-1: for k = length-1 down to 1, swap positions k and
    t[k] = draw mod (k + 1), the draws being the key's SplitMix64 outputs in
    order. It is computed without the loop. Since t[k] <= k, step k is the
    last to write position k, so out[k] is the value at t[k] just before
    step k: the value left there by the previous writer of t[k] (the next
    larger step with the same target), or t[k] itself if there was none.
    Step k' leaves at its target the value V(k') that position k' held
    before step k', and V(p) = V(smallest step that targets p), or p if no
    step does. That chain climbs strictly except at a self-swap
    (t[p] == p), where V(p) reads as p; no step reads V(p) then, because
    only larger steps can target p. One sort by (target, step) groups the
    steps by target in step order, and pointer doubling resolves every
    chain in O(log length) whole-array rounds.

    The passes reuse their buffers: the targets become the sort key in
    place and the key becomes the steps in place, the group heads are found
    once and every per-group value is gathered at them, and one scatter
    writes the result.

    Nothing is memoised: the array is key material and lives only as long as
    its caller keeps it.
    """
    length = key.length
    # sort_key[k] = t[k] << 32 | k; step 0 swaps position 0 with itself,
    # so out[0] follows the same rule
    sort_key = np.zeros(length, dtype=np.int64)
    draws = splitmix64(key.seed, length - 1)
    draws %= np.arange(length, 1, -1, dtype=np.uint64)
    sort_key[:0:-1] = draws
    del draws
    sort_key <<= 32
    sort_key |= np.arange(length, dtype=np.int64)
    sort_key.sort()
    group = sort_key >> 32
    step = sort_key
    step &= 0xFFFFFFFF
    # head[i]: entry i is the first, so smallest, step of its target group
    head = np.ones(length, dtype=bool)
    np.not_equal(group[1:], group[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    del head
    firsts = group[heads]  # every target once, in order
    del group
    chain = np.arange(length, dtype=np.int64)
    chain[firsts] = step[heads]
    while True:
        jumped = chain[chain]
        if (jumped == chain).all():
            break
        chain = jumped
    del jumped
    # every entry finds what the next entry of its group left, except the
    # last, the group's first writer in time, which finds the original index
    found = np.empty(length, dtype=np.int64)
    found[:-1] = chain[step[1:]]
    del chain
    lasts = heads  # a group ends where the next begins
    lasts[:-1] = lasts[1:]
    lasts -= 1
    lasts[-1] = length - 1
    found[lasts] = firsts
    out = np.empty(length, dtype=np.int64)
    out[step] = found
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
