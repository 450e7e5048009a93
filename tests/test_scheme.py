import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioshares import (
    DegenerateImageError,
    GrayImage,
    Method,
    SchemeError,
    SchemeParams,
    ShareSet,
    authenticate,
    enroll,
    generate_shares,
    make_covers,
    noise_cover,
    npcr,
    permute_image,
    resize_nearest,
    reveal_original,
    seed_count,
)
from bioshares.prng import seed_sequence

from helpers import TRANSFORM_IDS, TRANSFORMS, random_image


def _rev8(v):
    return int(f"{v:08b}"[::-1], 2)


def closed_form_shares(secret_px, covers_px, n):
    """Independent oracle: share i is the bit-reversed XOR over j<=i of
    (secret ^ cover_1 ^ ... ^ cover_{j-1}), computed per pixel from scratch."""
    num_px = len(secret_px)
    shares = []
    for i in range(1, n + 1):
        acc = [0] * num_px
        for j in range(1, i + 1):
            ts = list(secret_px)
            for cover in covers_px[: j - 1]:
                ts = [a ^ b for a, b in zip(ts, cover)]
            acc = [a ^ b for a, b in zip(acc, ts)]
        shares.append([_rev8(v) for v in acc])
    return shares


class TestParams:
    def test_seed_counts(self):
        assert seed_count(Method.M1, 4) == 3
        assert seed_count(Method.M2, 4) == 3
        assert seed_count(Method.M3, 4) == 4

    def test_n_minimum(self):
        with pytest.raises(ValueError, match="at least 2"):
            SchemeParams(Method.M2, n=1, seeds=())

    @pytest.mark.parametrize("n", [4.0, 2.5, "4", True, None, np.int64(4)],
                             ids=["integral-float", "float", "str", "bool", "none", "numpy"])
    def test_n_must_be_an_integer(self, n):
        # judged before the minimum, so a float n never reaches the share store
        with pytest.raises(ValueError, match="share count must be an integer"):
            SchemeParams(Method.M1, n=n, seeds=(1, 2, 3))

    def test_seed_count_enforced(self):
        with pytest.raises(ValueError, match="takes 3 seeds"):
            SchemeParams(Method.M2, n=4, seeds=(1, 2))
        with pytest.raises(ValueError, match="takes 4 seeds"):
            SchemeParams(Method.M3, n=4, seeds=(1, 2, 3))
        # m1 may carry no seeds (covers supplied) or exactly n-1
        SchemeParams(Method.M1, n=4)
        SchemeParams(Method.M1, n=4, seeds=(1, 2, 3))
        with pytest.raises(ValueError, match="0 or 3 seeds"):
            SchemeParams(Method.M1, n=4, seeds=(1,))

    @pytest.mark.parametrize("fields", [{"method": "m3", "n": 4}, {"method": Method.M3, "n": 1},
                                        {"method": Method.M2, "n": 3, "seeds": (1,)}],
                             ids=["method", "n", "seed-count"])
    def test_refusals_are_scheme_errors(self, fields):
        # the CLI maps SchemeError to a usage error by its type, not its message
        with pytest.raises(SchemeError):
            SchemeParams(**fields)

    def test_cover_sources_m1_only(self):
        with pytest.raises(ValueError, match="m1 only"):
            SchemeParams(Method.M2, n=2, seeds=(1,), cover_sources=("a.pgm",))

    def test_seed_range(self):
        with pytest.raises(ValueError, match="64-bit"):
            SchemeParams(Method.M2, n=2, seeds=(2**64,))

    @pytest.mark.parametrize("seed", [1.9, 2.0, "2", True, None],
                             ids=["float", "integral-float", "str", "bool", "none"])
    def test_seeds_must_be_integers(self, seed):
        # stored as given, so a seed that int() would round or parse is refused
        with pytest.raises(ValueError, match="64-bit integers"):
            SchemeParams(Method.M3, n=2, seeds=(1, seed))

    def test_m1_takes_covers_or_seeds_not_both(self):
        with pytest.raises(ValueError, match="supplied covers or texture seeds, not both"):
            SchemeParams(Method.M1, n=4, seeds=(1, 2, 3), cover_sources=("a", "b", "c"))

    def test_cover_rule_judged_before_seed_count(self):
        # a CLI that passes covers but sources no seeds gets the cover message
        with pytest.raises(ValueError, match="cover sources apply to method m1 only"):
            SchemeParams(Method.M3, n=4, cover_sources=("a.pgm",))

    @pytest.mark.parametrize("rest", [{"n": 4, "seeds": (1, 2, 3, 4)}, {"n": 4, "seeds": (1, 2, 3)},
                                      {"n": 1}], ids=["m3-count", "m2-count", "bad-n"])
    def test_method_must_be_a_method(self, rest):
        # judged first, so a str neither breaks the seed-count message nor
        # passes for m2 and fails later in the chain
        with pytest.raises(ValueError, match="method must be a Method, got 'm3'"):
            SchemeParams("m3", **rest)

    @pytest.mark.parametrize("transform", ["reverse8", "rotate:3", None])
    def test_bit_transform_must_be_a_bit_transform(self, transform):
        with pytest.raises(ValueError, match="bit transform must be a BitTransform"):
            SchemeParams(Method.M3, n=4, seeds=(1, 2, 3, 4), bit_transform=transform)
        with pytest.raises(ValueError, match="bit transform must be a BitTransform"):
            SchemeParams(Method.M3, n=1, bit_transform=transform)

    def test_m1_cover_source_count(self):
        SchemeParams(Method.M1, n=4, cover_sources=("a.pgm", "b.pgm", "c.pgm"))
        for sources in [("a.pgm",), ("a.pgm", "b.pgm"), ("a", "b", "c", "d")]:
            with pytest.raises(ValueError, match=f"0 or 3 cover sources, got {len(sources)}"):
                SchemeParams(Method.M1, n=4, cover_sources=sources)
        # the m1-only and covers-or-seeds rules are judged first
        with pytest.raises(ValueError, match="cover sources apply to method m1 only"):
            SchemeParams(Method.M2, n=4, seeds=(1, 2, 3), cover_sources=("a.pgm",))
        with pytest.raises(ValueError, match="supplied covers or texture seeds, not both"):
            SchemeParams(Method.M1, n=4, seeds=(1, 2, 3), cover_sources=("a.pgm",))


class TestShareSet:
    def test_share_count_enforced(self):
        params = SchemeParams(Method.M1, n=3)
        imgs = [GrayImage.filled(2, 2, v) for v in (1, 2)]
        with pytest.raises(ValueError, match="incomplete"):
            ShareSet(tuple(imgs), params)

    def test_dims_enforced(self):
        params = SchemeParams(Method.M1, n=2)
        imgs = (GrayImage.filled(2, 2, 1), GrayImage.filled(2, 3, 2))
        with pytest.raises(ValueError, match="dimensions"):
            ShareSet(imgs, params)


class TestEnrollChain:
    def test_hand_traced_pair(self):
        secret = GrayImage(1, 1, [170])
        cover = GrayImage(1, 1, [204])
        share_set = enroll(secret, [cover], SchemeParams(Method.M1, n=2))
        assert [int(s.data[0]) for s in share_set.shares] == [85, 51]

    def test_all_zero_inputs_give_all_zero_shares(self):
        zero = GrayImage.filled(4, 4, 0)
        share_set = enroll(zero, [zero, zero], SchemeParams(Method.M1, n=3))
        assert all(s == zero for s in share_set.shares)

    def test_matches_closed_form_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            secret = random_image(rng, 4, 3)
            covers = [random_image(rng, 4, 3) for _ in range(n - 1)]
            share_set = enroll(secret, covers, SchemeParams(Method.M1, n=n))
            expected = closed_form_shares(
                secret.data.tolist(), [c.data.tolist() for c in covers], n
            )
            assert [s.data.tolist() for s in share_set.shares] == expected

    def test_noisy_share_is_prefix_xor_of_temp_shares(self):
        # NS_i == xor of TS_1..TS_i, checked for n=5 through the stored shares
        rng = np.random.default_rng(22)
        n = 5
        secret = random_image(rng, 8, 8)
        covers = [random_image(rng, 8, 8) for _ in range(n - 1)]
        share_set = enroll(secret, covers, SchemeParams(Method.M1, n=n))
        temp = [secret.data.astype(int)]
        for c in covers:
            temp.append(np.bitwise_xor(c.data, temp[-1]))
        rev = np.array([_rev8(v) for v in range(256)], dtype=np.uint8)
        prefix = np.zeros_like(temp[0])
        for i, ts in enumerate(temp):
            prefix = np.bitwise_xor(prefix, ts)
            assert share_set.shares[i].data.tolist() == rev[prefix].tolist()

    def test_cover_count_enforced(self):
        secret = GrayImage.filled(2, 2, 1)
        with pytest.raises(ValueError, match="expected 2 covers"):
            enroll(secret, [secret], SchemeParams(Method.M1, n=3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            enroll(GrayImage.filled(2, 2, 1), [GrayImage.filled(2, 3, 1)],
                   SchemeParams(Method.M1, n=2))


class TestAuthenticate:
    def test_inverse_of_hand_trace(self):
        shares = (GrayImage(1, 1, [85]), GrayImage(1, 1, [51]))
        secret, covers = authenticate(ShareSet(shares, SchemeParams(Method.M1, n=2)))
        assert int(secret.data[0]) == 170
        assert int(covers[0].data[0]) == 204

    @given(st.integers(2, 6), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        secret = random_image(rng, 6, 5)
        covers = [random_image(rng, 6, 5) for _ in range(n - 1)]
        share_set = enroll(secret, covers, SchemeParams(Method.M1, n=n))
        assert authenticate(share_set) == (secret, tuple(covers))

    @pytest.mark.parametrize("transform", TRANSFORMS, ids=TRANSFORM_IDS)
    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_round_trip_every_transform(self, method, transform):
        original = random_image(np.random.default_rng(5), 8, 8)
        seeds = seed_sequence(5, seed_count(method, 4))
        params = SchemeParams(method, n=4, bit_transform=transform, seeds=seeds)
        secret, covers = make_covers(original, params)
        assert authenticate(enroll(secret, covers, params)) == (secret, tuple(covers))
        assert reveal_original(secret, params) == original

    def test_subset_of_shares_refused(self):
        rng = np.random.default_rng(6)
        secret = random_image(rng, 4, 4)
        covers = [random_image(rng, 4, 4) for _ in range(3)]
        share_set = enroll(secret, covers, SchemeParams(Method.M1, n=4))
        with pytest.raises(ValueError):
            ShareSet(share_set.shares[:-1], share_set.params)


class TestMakeCovers:
    def test_m2_covers_are_keyed_permutations(self):
        rng = np.random.default_rng(31)
        original = random_image(rng, 8, 8)
        seeds = (11, 22, 33)
        params = SchemeParams(Method.M2, n=4, seeds=seeds)
        secret, covers = make_covers(original, params)
        assert secret == original
        for seed, cover in zip(seeds, covers):
            assert cover == permute_image(original, seed)

    def test_m3_secret_is_permuted_and_histograms_match(self):
        rng = np.random.default_rng(32)
        original = random_image(rng, 8, 8)
        params = SchemeParams(Method.M3, n=4, seeds=(1, 2, 3, 4))
        secret, covers = make_covers(original, params)
        assert secret == permute_image(original, 1)
        assert secret != original
        hist = np.bincount(original.data, minlength=256).tolist()
        for img in [secret] + covers:
            assert np.bincount(img.data, minlength=256).tolist() == hist

    def test_m1_resizes_supplied_covers(self):
        original = GrayImage.filled(112, 94, 5)
        covers = [GrayImage.filled(50, 50, v) for v in (1, 2, 3)]
        params = SchemeParams(Method.M1, n=4, cover_sources=("a.pgm", "b.pgm", "c.pgm"))
        secret, resized = make_covers(original, params, covers)
        assert secret == original
        assert all(c.dims == (112, 94) for c in resized)
        assert resized[0] == GrayImage.filled(112, 94, 1)

    def test_m1_generates_textures_from_seeds(self):
        original = GrayImage.filled(8, 8, 5)
        params = SchemeParams(Method.M1, n=3, seeds=(7, 8))
        _, covers = make_covers(original, params)
        assert covers == [noise_cover(8, 8, 7), noise_cover(8, 8, 8)]

    def test_m1_without_covers_or_seeds(self):
        with pytest.raises(ValueError, match="cover images or texture seeds"):
            make_covers(GrayImage.filled(4, 4, 0), SchemeParams(Method.M1, n=2))

    @pytest.mark.parametrize("params", [
        SchemeParams(Method.M1, n=4),
        SchemeParams(Method.M1, n=4, seeds=(1, 2, 3)),
        SchemeParams(Method.M2, n=4, seeds=(1, 2, 3)),
    ], ids=["m1-no-sources", "m1-seeds", "m2"])
    def test_supplied_covers_must_match_cover_sources(self, params):
        # SchemeParams judges which covers a method takes; a cover it does not
        # name would be enrolled but never recorded in the manifest
        original = GrayImage.filled(4, 4, 0)
        covers = [GrayImage.filled(4, 4, v) for v in (1, 2, 3)]
        with pytest.raises(ValueError, match="3 covers supplied for 0 cover sources"):
            make_covers(original, params, covers)
        with pytest.raises(ValueError, match="3 covers supplied for 0 cover sources"):
            generate_shares(original, params, covers)

    def test_degenerate_original_rejected(self):
        with pytest.raises(DegenerateImageError, match="^original image must have at least 2 pixels$"):
            make_covers(GrayImage(1, 1, [0]), SchemeParams(Method.M1, n=2, seeds=(1,)))


class TestResize:
    def test_identity_when_same_size(self):
        img = GrayImage(3, 2, [1, 2, 3, 4, 5, 6])
        assert resize_nearest(img, 3, 2) is img

    def test_upscale_2x(self):
        img = GrayImage(2, 1, [10, 20])
        out = resize_nearest(img, 4, 2)
        assert out.rows().tolist() == [[10, 10, 20, 20], [10, 10, 20, 20]]

    def test_downscale(self):
        img = GrayImage(4, 4, np.arange(16, dtype=np.uint8))
        out = resize_nearest(img, 2, 2)
        assert out.rows().tolist() == [[0, 2], [8, 10]]


class TestFullPipeline:
    @pytest.mark.parametrize("method", list(Method))
    def test_round_trip_every_method(self, method):
        rng = np.random.default_rng(41)
        original = random_image(rng, 10, 10)
        n = 4
        seeds = tuple(seed_sequence(97, seed_count(method, n)))
        params = SchemeParams(method, n=n, seeds=seeds)
        secret, covers = make_covers(original, params)
        assert authenticate(enroll(secret, covers, params)) == (secret, tuple(covers))
        revealed = reveal_original(secret, params)
        if method is Method.M1 or method is Method.M2:
            assert revealed == secret == original
        else:
            assert revealed == original

    def test_reveal_wrong_seed_mostly_differs(self):
        rng = np.random.default_rng(42)
        rates = []
        for k in range(100):
            original = random_image(rng, 64, 64)
            params = SchemeParams(Method.M3, n=2, seeds=(2 * k, 1_000_001))
            secret, _ = authenticate(generate_shares(original, params))
            wrong = SchemeParams(Method.M3, n=2, seeds=(2 * k + 1, 1_000_001))
            revealed = reveal_original(secret, wrong)
            rates.append(npcr(original, revealed))
        assert np.mean(rates) >= 95.0

    def test_revocability_distinct_seed_sets(self):
        rng = np.random.default_rng(43)
        original = random_image(rng, 32, 32)
        first = generate_shares(original, SchemeParams(Method.M3, n=4, seeds=seed_sequence(1, 4)))
        second = generate_shares(original, SchemeParams(Method.M3, n=4, seeds=seed_sequence(2, 4)))
        rates = [npcr(a, b) for a, b in zip(first.shares, second.shares)]
        assert np.mean(rates) >= 98.0
