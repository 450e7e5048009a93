"""Share generation and exact reconstruction.

The paper builds two XOR chains from a secret S and covers C_1..C_{n-1}:
T_1 = S, T_i = C_{i-1} ^ T_{i-1} and N_1 = T_1, N_i = T_i ^ N_{i-1}. Over
X = (S, C_1, ..., C_{n-1}) they are one recurrence, N_1 = X_1, N_2 = X_2,
N_i = X_i ^ N_{i-2}, since N_i = X_i ^ T_{i-1} ^ N_{i-1} and
T_{i-1} ^ N_{i-1} = N_{i-2}. Share i is a per-pixel bit transform of N_i, so
shares 1 and 2 depend on S and C_1 alone. Authentication inverts the
transform, then X_i = N_i ^ N_{i-2}: bit-exact given all n shares.

Cover strategies:
    m1  secret is the original; covers are externally supplied gray images
        (resized to match) or deterministic seed-keyed noise textures
    m2  secret is the original; covers are keyed permutations of it
    m3  secret and covers are all keyed permutations of the original
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .images import REVERSE8, BitTransform, GrayImage, bit_transform, require_same_dims, xor_images
from .permutation import PermutationKey, inverse_permute_image, permute_image
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
    """Everything needed to regenerate one enrollment deterministically."""

    method: Method
    n: int = 4
    bit_transform: BitTransform = REVERSE8
    seeds: tuple[int, ...] = ()
    cover_sources: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "cover_sources", tuple(str(p) for p in self.cover_sources))
        if self.n < 2:
            raise ValueError(f"share count must be at least 2, got {self.n}")
        for s in self.seeds:
            if not 0 <= s <= SEED_MAX:
                raise ValueError("seeds must be unsigned 64-bit integers")
        required = seed_count(self.method, self.n)
        if self.method is Method.M1:
            # m1 takes no seeds when covers are supplied, n-1 when generated
            if self.seeds and len(self.seeds) != required:
                raise ValueError(
                    f"method m1 takes 0 or {required} seeds, got {len(self.seeds)}"
                )
        elif len(self.seeds) != required:
            raise ValueError(
                f"method {self.method.value} takes {required} seeds, got {len(self.seeds)}"
            )
        if self.method is not Method.M1 and self.cover_sources:
            raise ValueError("cover sources apply to method m1 only")


@dataclass(frozen=True)
class ShareSet:
    """The n stored shares plus the parameters that produced them."""

    shares: tuple[GrayImage, ...]
    params: SchemeParams
    dims: tuple[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shares", tuple(self.shares))
        if len(self.shares) != self.params.n:
            raise ValueError(
                f"share set is incomplete: expected {self.params.n} shares, got {len(self.shares)}"
            )
        for share in self.shares:
            if share.dims != self.dims:
                raise ValueError(
                    f"share dimensions {share.dims} differ from declared {self.dims}"
                )


@dataclass(frozen=True)
class ReconstructionResult:
    """Secret and covers recovered from a complete share set."""

    secret: GrayImage
    covers: tuple[GrayImage, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "covers", tuple(self.covers))
        for cover in self.covers:
            require_same_dims(self.secret, cover)


def resize_nearest(img: GrayImage, width: int, height: int) -> GrayImage:
    """Nearest-neighbor resample: source index = floor(dst * src / dst_size)."""
    if (width, height) == img.dims:
        return img
    src = img.rows()
    ys = (np.arange(height) * img.height) // height
    xs = (np.arange(width) * img.width) // width
    return GrayImage(width, height, src[np.ix_(ys, xs)].ravel())


def noise_cover(width: int, height: int, seed: int) -> GrayImage:
    """Deterministic pseudo-random gray texture (SplitMix64 low bytes)."""
    return GrayImage(width, height, random_bytes(seed, width * height))


def make_covers(
    original: GrayImage,
    params: SchemeParams,
    supplied: Sequence[GrayImage] | None = None,
) -> tuple[GrayImage, list[GrayImage]]:
    """Derive the (secret, covers) pair a method feeds into enrollment."""
    if original.pixel_count < 2:
        raise ValueError("original image must have at least 2 pixels")
    if params.method is Method.M1:
        covers = list(supplied or ())
        if covers:
            if len(covers) != params.n - 1:
                raise ValueError(
                    f"method m1 needs exactly {params.n - 1} covers, got {len(covers)}"
                )
            covers = [resize_nearest(c, original.width, original.height) for c in covers]
        elif params.seeds:
            covers = [noise_cover(original.width, original.height, s) for s in params.seeds]
        else:
            raise ValueError("method m1 needs supplied cover images or texture seeds")
        return original, covers
    if supplied:
        raise ValueError("supplied covers apply to method m1 only")
    keys = [PermutationKey(s, original.pixel_count) for s in params.seeds]
    if params.method is Method.M2:
        return original, [permute_image(original, k) for k in keys]
    # m3: the first seed keys the secret itself
    secret = permute_image(original, keys[0])
    return secret, [permute_image(original, k) for k in keys[1:]]


def enroll(secret: GrayImage, covers: Sequence[GrayImage], params: SchemeParams) -> ShareSet:
    """Run the share-generation chain over a secret and its covers.

    noisy = [secret, *covers], then noisy[i] ^= noisy[i-2] for i >= 2 in
    ascending order: the paper's two chains as one (see the module docstring);
    share[i] = left bit transform of noisy[i].
    """
    covers = list(covers)
    if len(covers) != params.n - 1:
        raise ValueError(f"expected {params.n - 1} covers, got {len(covers)}")
    for cover in covers:
        require_same_dims(secret, cover)
    noisy = [secret, *covers]
    for i in range(2, len(noisy)):
        noisy[i] = xor_images(noisy[i], noisy[i - 2])
    shares = tuple(bit_transform(ns, params.bit_transform, "left") for ns in noisy)
    return ShareSet(shares, params, secret.dims)


def authenticate(share_set: ShareSet) -> ReconstructionResult:
    """Invert the enrollment chain, x[i] = noisy[i] ^ noisy[i-2] for i >= 2, in
    place from the top down; requires the complete set of n shares."""
    x = [bit_transform(s, share_set.params.bit_transform, "right") for s in share_set.shares]
    for i in range(len(x) - 1, 1, -1):
        x[i] = xor_images(x[i], x[i - 2])
    return ReconstructionResult(x[0], x[1:])


def reveal_original(result: ReconstructionResult, params: SchemeParams) -> GrayImage:
    """Recover the original biometric from a reconstruction.

    Identity for m1/m2. For m3 the stored secret is itself a permuted image,
    so this needs the first enrollment seed; without it the reconstruction
    stays distorted, which is the whole point of the method.
    """
    if params.method is not Method.M3:
        return result.secret
    if not params.seeds:
        raise ValueError("method m3 needs the secret permutation seed to undo the distortion")
    key = PermutationKey(params.seeds[0], result.secret.pixel_count)
    return inverse_permute_image(result.secret, key)


def generate_shares(
    original: GrayImage,
    params: SchemeParams,
    covers: Sequence[GrayImage] | None = None,
) -> ShareSet:
    """Full enrollment pipeline: derive covers for the method, then chain."""
    secret, cover_imgs = make_covers(original, params, covers)
    return enroll(secret, cover_imgs, params)
