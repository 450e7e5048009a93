import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioshares import (
    GrayImage,
    PermutationKey,
    derive_permutation,
    inverse_permute_image,
    permute_image,
)
from bioshares.permutation import MAX_LENGTH

from helpers import filled, fisher_yates, gray_images, random_image


class TestDerivation:
    def test_length_one_is_identity(self):
        for seed in (0, 1, 2**64 - 1):
            assert derive_permutation(PermutationKey(seed, 1)).tolist() == [0]

    @given(st.integers(0, 2**64 - 1), st.integers(1, 3000))
    @settings(max_examples=200, deadline=None)
    def test_matches_sequential_fisher_yates(self, seed, length):
        assert derive_permutation(PermutationKey(seed, length)).tolist() == fisher_yates(seed, length)

    @pytest.mark.parametrize("length", [1, 2, 3, 10_304])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_matches_sequential_fisher_yates_at_edges(self, seed, length):
        assert derive_permutation(PermutationKey(seed, length)).tolist() == fisher_yates(seed, length)

    def test_length_bound_keeps_the_sort_key_in_int64(self):
        # the sort key is target << 32 | step, with target and step below MAX_LENGTH
        assert ((MAX_LENGTH - 1) << 32 | (MAX_LENGTH - 1)) <= np.iinfo(np.int64).max
        assert MAX_LENGTH - 1 <= 0xFFFFFFFF
        assert PermutationKey(2**64 - 1, MAX_LENGTH).length == MAX_LENGTH
        with pytest.raises(ValueError, match=f"1..{MAX_LENGTH}"):
            PermutationKey(0, MAX_LENGTH + 1)

    def test_bijection_over_many_seeds(self):
        rng = np.random.default_rng(7)
        expected = list(range(64))
        for seed in rng.integers(0, 2**63, 1000):
            perm = derive_permutation(PermutationKey(int(seed), 64))
            assert sorted(perm.tolist()) == expected

    def test_deterministic(self):
        a = derive_permutation(PermutationKey(123456789, 16))
        b = derive_permutation(PermutationKey(123456789, 16))
        assert a.tolist() == b.tolist()

    def test_result_is_read_only(self):
        perm = derive_permutation(PermutationKey(5, 8))
        with pytest.raises(ValueError):
            perm[0] = 3

    def test_invalid_key(self):
        with pytest.raises(ValueError, match="length"):
            PermutationKey(1, 0)
        with pytest.raises(ValueError, match="seed"):
            PermutationKey(-1, 4)
        with pytest.raises(ValueError, match="seed"):
            PermutationKey(2**64, 4)
        # a float or bool must not pass for an int, nor fail deep in the
        # derivation with a TypeError
        for seed, length, field in ((1.5, 4, "seed"), (True, 4, "seed"), (1, 4.0, "length"),
                                    (1, True, "length"), (np.int64(1), 4, "seed"),
                                    ("1", 4, "seed")):
            with pytest.raises(ValueError, match=f"permutation {field} must be an integer"):
                PermutationKey(seed, length)

    def test_seed_sensitivity(self):
        # distinct seeds should move almost every position
        n = 1024
        fractions = []
        for k in range(100):
            a = derive_permutation(PermutationKey(1000 + k, n))
            b = derive_permutation(PermutationKey(500_000 + k, n))
            fractions.append(np.mean(a != b))
        assert np.mean(fractions) >= 0.99


class TestApply:
    def test_forward_example(self):
        img = GrayImage(4, 1, [10, 20, 30, 40])
        # stub the derived permutation by finding a seed-free check: apply
        # the documented rule directly through a crafted key is not possible,
        # so verify the rule out[j] = in[perm[j]] against derive_permutation.
        perm = derive_permutation(PermutationKey(99, 4))
        out = permute_image(img, 99)
        assert out.data.tolist() == [img.data[p] for p in perm.tolist()]

    def test_defined_mapping(self):
        # out[j] = in[perm[j]] with perm = [2, 0, 3, 1] gives [30, 10, 40, 20]
        data = np.array([10, 20, 30, 40], dtype=np.uint8)
        perm = np.array([2, 0, 3, 1])
        assert data[perm].tolist() == [30, 10, 40, 20]
        inverse = np.empty(4, dtype=np.uint8)
        inverse[perm] = data[perm]
        assert inverse.tolist() == [10, 20, 30, 40]

    def test_histogram_preserved(self):
        rng = np.random.default_rng(3)
        img = random_image(rng, 16, 8)
        out = permute_image(img, 77)
        assert np.bincount(out.data, minlength=256).tolist() == \
            np.bincount(img.data, minlength=256).tolist()

    def test_constant_image_invariant(self):
        img = filled(8, 8, 42)
        assert permute_image(img, 5) == img

    @given(gray_images())
    @settings(max_examples=50)
    def test_round_trip(self, img):
        seed = 0xDEADBEEF
        assert inverse_permute_image(permute_image(img, seed), seed) == img

    def test_round_trip_many_keys(self):
        rng = np.random.default_rng(11)
        for k in range(100):
            img = random_image(rng, 8, 8)
            seed = int(rng.integers(0, 2**63))
            assert inverse_permute_image(permute_image(img, seed), seed) == img

    def test_wrong_key_does_not_invert(self):
        rng = np.random.default_rng(13)
        for k in range(100):
            img = random_image(rng, 64, 64)
            scrambled = permute_image(img, 2 * k)
            assert inverse_permute_image(scrambled, 2 * k + 1) != img
