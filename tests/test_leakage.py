"""What single stored shares give away, pinned for every method, for n in
2..6 and for both bit-transform kinds.

By the recurrence N_1 = S, N_2 = C_1, N_i = X_i ^ N_{i-2}, shares 1 and 2 are
bit transforms of the secret and the first cover alone. The transforms are
public, so under m1 and m2 (where the secret is the original) share 1 gives
back the original exactly, and wherever the secret or the first cover is a
keyed permutation of the original, that share carries the original's exact
histogram. The README's "Security notes" state these facts and no more.
"""

import numpy as np
import pytest

from bioshares import (
    BitTransform,
    GrayImage,
    Method,
    SchemeParams,
    bit_transform,
    enroll,
    make_covers,
    seed_count,
)
from bioshares.prng import seed_sequence

from helpers import random_image

TRANSFORMS = [BitTransform.parse("reverse8"), BitTransform.parse("rotate:3")]


def _enrollment(method, n, transform):
    original = random_image(np.random.default_rng(100 + n), 23, 17)
    params = SchemeParams(
        method, n=n, bit_transform=transform, seeds=seed_sequence(7 + n, seed_count(method, n))
    )
    secret, covers = make_covers(original, params)
    return original, secret, covers, enroll(secret, covers, params).shares


def _histogram(img: GrayImage) -> list[int]:
    return np.bincount(img.data, minlength=256).tolist()


def _unmasked(share: GrayImage, transform: BitTransform) -> GrayImage:
    return bit_transform(share, transform, "right")


CASES = [
    pytest.param(method, n, transform, id=f"{method.value}-n{n}-{transform.descriptor()}")
    for method in Method
    for n in range(2, 7)
    for transform in TRANSFORMS
]


@pytest.mark.parametrize("method,n,transform", CASES)
def test_shares_1_and_2_are_transforms_of_secret_and_first_cover(method, n, transform):
    _, secret, covers, shares = _enrollment(method, n, transform)
    assert shares[0] == bit_transform(secret, transform, "left")
    assert shares[1] == bit_transform(covers[0], transform, "left")


@pytest.mark.parametrize(
    "method,n,transform", [c for c in CASES if c.values[0] is not Method.M3]
)
def test_share_1_gives_back_the_original_under_m1_and_m2(method, n, transform):
    original, _, _, shares = _enrollment(method, n, transform)
    assert _unmasked(shares[0], transform) == original


@pytest.mark.parametrize(
    "method,n,transform", [c for c in CASES if c.values[0] is not Method.M1]
)
def test_permuted_shares_keep_the_original_histogram(method, n, transform):
    # m2: share 2 is the transform of a keyed permutation of the original;
    # m3: shares 1 and 2 both are
    original, _, _, shares = _enrollment(method, n, transform)
    leaking = shares[:2] if method is Method.M3 else shares[1:2]
    for share in leaking:
        assert _histogram(_unmasked(share, transform)) == _histogram(original)
