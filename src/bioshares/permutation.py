"""Seed-keyed pixel permutations.

A permutation is exactly the one a sequential Fisher-Yates shuffle produces
when its draws come from SplitMix64 (see the prng module), so a
(seed, length) pair names the same bijection on every platform. It is
computed without the swap loop, by one sort and pointer doubling.
Re-issuing a template is just a matter of choosing new seeds; without the
seed the permutation cannot be undone.
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

_BLOCK = 2**15
"""Steps per block while derive_permutation builds its sort key: the key
block, its divisors and splitmix64's scratch take 256 KB each, so together
they stay in L2 cache."""


@dataclass(frozen=True)
class PermutationKey:
    """A (seed, length) pair selecting one bijection on {0..length-1}.

    Raises ValueError unless seed and length are ints (not bools),
    0 <= seed < 2**64 and 1 <= length <= MAX_LENGTH.
    """

    seed: int
    length: int

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("length", self.length)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"permutation {name} must be an integer, got {value!r}")
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
    chain in O(log length) rounds.

    The sort key is built in place a block of steps at a time, so that the
    key block and the block buffers stay in L2 cache. After two
    whole-array jumps only a few percent of the chains are unresolved, so
    later rounds jump just those. The group heads are found once, every
    per-group value is gathered at them, and the result is scattered
    straight into the chain's buffer.

    Nothing is memoised: the array is key material and lives only as long as
    its caller keeps it.
    """
    length = key.length
    # step k draws SplitMix64 output number length - k (step 0, drawing
    # mod 1, swaps position 0 with itself); its sort key t[k] << 32 | k is
    # built at index length - 1 - k, so the draws fill the array in order
    sort_key = np.empty(length, dtype=np.uint64)
    size = min(length, _BLOCK)
    divisors = np.arange(length, length - size, -1, dtype=np.uint64)  # k + 1
    for start in range(0, length, size):
        block = sort_key[start:start + size]
        div = divisors[:block.size]
        splitmix64(key.seed, block.size, start + 1, out=block)
        block %= div
        block <<= np.uint64(32)
        block += div  # the low half is zero, so this sets it to k = div - 1
        block -= np.uint64(1)
        div -= np.uint64(size)  # the next block's; unused after the last
    del divisors
    sort_key = sort_key.view(np.int64)
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
    chain = chain[chain]
    chain = chain[chain]
    # an entry is resolved once it points at a fixed point
    moving = np.flatnonzero(chain[chain] != chain)
    while moving.size:
        ahead = chain[chain[moving]]
        chain[moving] = ahead
        moving = moving[chain[ahead] != ahead]
    # every entry finds what the next entry of its group left, except the
    # last, the group's first writer in time, which finds the original index
    found = chain[step]
    out = chain
    out[step[:-1]] = found[1:]
    del found
    lasts = heads  # a group ends where the next begins
    lasts[:-1] = lasts[1:]
    lasts -= 1
    lasts[-1] = length - 1
    out[step[lasts]] = firsts
    out.setflags(write=False)
    return out


def permute_image(img: GrayImage, seed: int) -> GrayImage:
    """Scramble pixels under the seed's permutation of the image's pixel
    count: output pixel j is input pixel perm[j]."""
    perm = derive_permutation(PermutationKey(seed, img.pixel_count))
    return GrayImage.adopt(img.width, img.height, img.data[perm])


def inverse_permute_image(img: GrayImage, seed: int) -> GrayImage:
    """Undo permute_image with the same seed, bit-exactly."""
    perm = derive_permutation(PermutationKey(seed, img.pixel_count))
    out = np.empty(img.pixel_count, dtype=np.uint8)
    out[perm] = img.data
    return GrayImage.adopt(img.width, img.height, out)
