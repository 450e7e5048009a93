"""The keyed-randomness kernels run in place, gather at group heads and
apply the bit transform as a byte table; each must equal, bit for bit, the
formulation it replaced (kept in helpers.py as a reference)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioshares import (
    GrayImage,
    PermutationKey,
    bit_transform,
    derive_permutation,
    random_bytes,
    splitmix64,
)

from helpers import (
    TRANSFORM_IDS,
    TRANSFORMS,
    bit_transform_reference,
    derive_permutation_reference,
    gray_images,
    random_bytes_reference,
    splitmix64_reference,
)

SEEDS = st.integers(0, 2**64 - 1)


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSplitMix64:
    @given(SEEDS, st.integers(0, 5000))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, seed, count):
        assert same_array(splitmix64(seed, count), splitmix64_reference(seed, count))

    @given(SEEDS, st.integers(0, 5000))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_match_reference(self, seed, count):
        assert same_array(random_bytes(seed, count), random_bytes_reference(seed, count))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 0x0123456789ABCDEF])
    def test_matches_reference_at_2_pow_20_outputs(self, seed):
        assert same_array(splitmix64(seed, 2**20), splitmix64_reference(seed, 2**20))
        assert same_array(random_bytes(seed, 2**20), random_bytes_reference(seed, 2**20))

    @given(SEEDS, st.integers(0, 3000), st.integers(1, 3000), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_block_from_any_first_output(self, seed, count, first, into_out):
        want = splitmix64_reference(seed, first - 1 + count)[first - 1:]
        if into_out:
            buf = np.zeros(count + 2, dtype=np.uint64)
            out = buf[1:-1]
            got = splitmix64(seed, count, first, out=out)
            assert got is out
            assert buf[0] == buf[-1] == 0
        else:
            got = splitmix64(seed, count, first)
        assert same_array(got, want)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            splitmix64(1, -1)


class TestBitTransform:
    # enrollment applies the transform (left), authentication its inverse() (right)
    @pytest.mark.parametrize("direction", ["left", "right"])
    @pytest.mark.parametrize("transform", TRANSFORMS, ids=TRANSFORM_IDS)
    def test_every_byte_value(self, transform, direction):
        if direction == "right":
            transform = transform.inverse()
        img = GrayImage(256, 1, np.arange(256))
        assert bit_transform(img, transform) == bit_transform_reference(img, transform)

    @given(gray_images(max_side=33), st.sampled_from(TRANSFORMS))
    @settings(max_examples=200, deadline=None)
    def test_images_match_reference(self, img, transform):
        out = bit_transform(img, transform)
        assert out.dims == img.dims
        assert same_array(out.data, bit_transform_reference(img, transform).data)


class TestDerivePermutation:
    # 32,768 steps make one block of the sort key's construction
    @pytest.mark.parametrize("length", [1, 2, 3, 10_304, 32_767, 32_768, 32_769, 65_537,
                                        76_800, 2**20])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 0x0123456789ABCDEF])
    def test_matches_reference(self, seed, length):
        key = PermutationKey(seed, length)
        assert same_array(derive_permutation(key), derive_permutation_reference(key))

    def test_traced_peak_at_2_pow_20(self):
        # the key is built in L2-sized blocks, without full-length draws,
        # and the result is scattered into the chain's buffer
        key = PermutationKey(0x0123456789ABCDEF, 2**20)
        tracemalloc.start()
        try:
            perm = derive_permutation(key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert perm.nbytes == 8 * 2**20
        assert peak <= 36 * 2**20

    @given(SEEDS, st.integers(1, 3000))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_at_any_length(self, seed, length):
        key = PermutationKey(seed, length)
        assert same_array(derive_permutation(key), derive_permutation_reference(key))
