"""Share generation and exact reconstruction.

The paper builds two XOR chains from a secret S and covers C_1..C_{n-1}:
T_1 = S, T_i = C_{i-1} ^ T_{i-1} and N_1 = T_1, N_i = T_i ^ N_{i-1}. Over
X = (S, C_1, ..., C_{n-1}) they are one recurrence, N_1 = X_1, N_2 = X_2,
N_i = X_i ^ N_{i-2}, since N_i = X_i ^ T_{i-1} ^ N_{i-1} and
T_{i-1} ^ N_{i-1} = N_{i-2}. Share i is a per-pixel bit transform of N_i, so
shares 1 and 2 depend on S and C_1 alone. Authentication inverts the
transform, then X_i = N_i ^ N_{i-2}, and returns the pair (S, (C_1, ...,
C_{n-1})) that enrollment took: bit-exact given all n shares.

Cover strategies:
    m1  secret is the original; covers are the gray images cover_sources
        names, one each (resized to match), or seed-keyed noise textures
    m2  secret is the original; covers are keyed permutations of it
    m3  secret and covers are all keyed permutations of the original
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .images import REVERSE8, BitTransform, GrayImage, bit_transform, require_same_dims, xor_images
from .permutation import inverse_permute_image, permute_image
from .prng import SEED_MAX, random_bytes


class Method(enum.Enum):
    M1 = "m1"
    M2 = "m2"
    M3 = "m3"


def seed_count(method: Method, n: int) -> int:
    """Seeds a method consumes: one per generated cover, plus one for the
    secret under m3. m1 uses this many only when covers are generated."""
    return n if method is Method.M3 else n - 1


@dataclass(frozen=True)
class SchemeParams:
    """Everything needed to regenerate one enrollment deterministically, and
    the one judge of which seeds and covers a method takes."""

    method: Method
    n: int = 4
    bit_transform: BitTransform = REVERSE8
    seeds: tuple[int, ...] = ()
    cover_sources: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "cover_sources", tuple(str(p) for p in self.cover_sources))
        if not isinstance(self.method, Method):
            raise ValueError(f"method must be a Method, got {self.method!r}")
        if not isinstance(self.bit_transform, BitTransform):
            raise ValueError(f"bit transform must be a BitTransform, got {self.bit_transform!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"share count must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"share count must be at least 2, got {self.n}")
        for s in self.seeds:
            if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s <= SEED_MAX:
                raise ValueError("seeds must be unsigned 64-bit integers")
        if self.method is not Method.M1 and self.cover_sources:
            raise ValueError("cover sources apply to method m1 only")
        required = seed_count(self.method, self.n)
        if self.method is Method.M1:
            # m1 takes no seeds when covers are supplied, n-1 when generated
            if self.seeds and self.cover_sources:
                raise ValueError("method m1 takes supplied covers or texture seeds, not both")
            if self.cover_sources and len(self.cover_sources) != required:
                raise ValueError(
                    f"method m1 takes 0 or {required} cover sources, got {len(self.cover_sources)}"
                )
            if self.seeds and len(self.seeds) != required:
                raise ValueError(
                    f"method m1 takes 0 or {required} seeds, got {len(self.seeds)}"
                )
        elif len(self.seeds) != required:
            raise ValueError(
                f"method {self.method.value} takes {required} seeds, got {len(self.seeds)}"
            )


@dataclass(frozen=True)
class ShareSet:
    """The n stored shares, all of one size, and the parameters that produced them."""

    shares: tuple[GrayImage, ...]
    params: SchemeParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "shares", tuple(self.shares))
        if len(self.shares) != self.params.n:
            raise ValueError(
                f"share set is incomplete: expected {self.params.n} shares, got {len(self.shares)}"
            )
        for share in self.shares:
            if share.dims != self.dims:
                raise ValueError(
                    f"share dimensions {share.dims} differ from the first share's {self.dims}"
                )

    @property
    def dims(self) -> tuple[int, int]:
        return self.shares[0].dims


def resize_nearest(img: GrayImage, width: int, height: int) -> GrayImage:
    """Nearest-neighbor resample: source index = floor(dst * src / dst_size)."""
    if (width, height) == img.dims:
        return img
    src = img.rows()
    ys = (np.arange(height) * img.height) // height
    xs = (np.arange(width) * img.width) // width
    return GrayImage.adopt(width, height, src[np.ix_(ys, xs)].ravel())


def noise_cover(width: int, height: int, seed: int) -> GrayImage:
    """Deterministic pseudo-random gray texture (SplitMix64 low bytes)."""
    return GrayImage.adopt(width, height, random_bytes(seed, width * height))


def make_covers(
    original: GrayImage,
    params: SchemeParams,
    supplied: Sequence[GrayImage] = (),
) -> tuple[GrayImage, list[GrayImage]]:
    """Derive the (secret, covers) pair a method feeds into enrollment. `supplied`
    holds one image per `params.cover_sources` name; SchemeParams judged the names."""
    if original.pixel_count < 2:
        raise ValueError("original image must have at least 2 pixels")
    if len(supplied) != len(params.cover_sources):
        raise ValueError(
            f"{len(supplied)} covers supplied for {len(params.cover_sources)} cover sources"
        )
    if params.method is Method.M1:
        if supplied:
            covers = [resize_nearest(c, original.width, original.height) for c in supplied]
        elif params.seeds:
            covers = [noise_cover(original.width, original.height, s) for s in params.seeds]
        else:
            raise ValueError("method m1 needs supplied cover images or texture seeds")
        return original, covers
    keyed = [permute_image(original, s) for s in params.seeds]
    # m3: the first seed keys the secret itself
    return (original, keyed) if params.method is Method.M2 else (keyed[0], keyed[1:])


def enroll(secret: GrayImage, covers: Sequence[GrayImage], params: SchemeParams) -> ShareSet:
    """Run the share-generation chain over a secret and its covers.

    noisy = [secret, *covers], then noisy[i] ^= noisy[i-2] for i >= 2 in
    ascending order: the paper's two chains as one (see the module docstring);
    share[i] = bit transform of noisy[i].
    """
    covers = list(covers)
    if len(covers) != params.n - 1:
        raise ValueError(f"expected {params.n - 1} covers, got {len(covers)}")
    for cover in covers:
        require_same_dims(secret, cover)
    noisy = [secret, *covers]
    for i in range(2, len(noisy)):
        noisy[i] = xor_images(noisy[i], noisy[i - 2])
    shares = tuple(bit_transform(ns, params.bit_transform) for ns in noisy)
    return ShareSet(shares, params)


def authenticate(share_set: ShareSet) -> tuple[GrayImage, tuple[GrayImage, ...]]:
    """Invert the enrollment chain, x[i] = noisy[i] ^ noisy[i-2] for i >= 2, in
    place from the top down; requires the complete set of n shares.
    authenticate(enroll(secret, covers, p)) == (secret, tuple(covers))."""
    inverse = share_set.params.bit_transform.inverse()
    x = [bit_transform(s, inverse) for s in share_set.shares]
    for i in range(len(x) - 1, 1, -1):
        x[i] = xor_images(x[i], x[i - 2])
    return x[0], tuple(x[1:])


def reveal_original(secret: GrayImage, params: SchemeParams) -> GrayImage:
    """Recover the original biometric from a reconstructed secret.

    Identity for m1/m2. For m3 the secret is itself a permuted image, so
    this needs the first enrollment seed; without it the secret stays
    distorted, which is the whole point of the method.
    """
    if params.method is not Method.M3:
        return secret
    if not params.seeds:
        raise ValueError("method m3 needs the secret permutation seed to undo the distortion")
    return inverse_permute_image(secret, params.seeds[0])


def generate_shares(
    original: GrayImage,
    params: SchemeParams,
    covers: Sequence[GrayImage] = (),
) -> ShareSet:
    """Full enrollment pipeline: derive covers for the method, then chain.
    `covers` are the images `params.cover_sources` names, one each."""
    return enroll(*make_covers(original, params, covers), params)
