"""Golden vectors: frozen outputs of the keyed-randomness layer and the share
pipeline. Any rewrite of SplitMix64, seed derivation, the Fisher-Yates
permutation or the enrollment chain must reproduce these byte for byte, or
existing manifests and master seeds would stop naming the same shares.

Permutations are digested as little-endian int64 so that a change of the
index dtype alone leaves the digests unchanged.
"""

import hashlib

import pytest

from bioshares import BitTransform, PermutationKey, derive_permutation, pixel_digest, textured_image
from bioshares.batch import image_seeds
from bioshares.prng import mix_seed, seed_sequence, splitmix64
from bioshares.scheme import Method, SchemeParams, authenticate, generate_shares, reveal_original

U64_MAX = 2**64 - 1


def test_splitmix64_seed_zero_reference_outputs():
    # the published first outputs of SplitMix64 seeded with 0
    assert [int(v) for v in splitmix64(0, 3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


@pytest.mark.parametrize(
    "seed, index, expected",
    [
        (0, 0, 16294208416658607535),
        (0, 1, 7960286522194355700),
        (12345, 7, 7959005890829367068),
        (U64_MAX, 0, 16490336266968443936),
        (U64_MAX, U64_MAX, 13029008266876403067),
        (0, 2**63, 5196802822362493915),
        (U64_MAX, 2**40, 7550352060150933567),
    ],
)
def test_mix_seed(seed, index, expected):
    assert mix_seed(seed, index) == expected


@pytest.mark.parametrize("seed", [0, 1, 12345, U64_MAX])
def test_mix_seed_is_the_indexed_splitmix64_output(seed):
    outputs = splitmix64(seed, 6)
    assert [mix_seed(seed, i) for i in range(6)] == [int(v) for v in outputs]


@pytest.mark.parametrize(
    "master, expected",
    [
        (0, [16294208416658607535, 7960286522194355700, 487617019471545679]),
        (1, [10451216379200822465, 13757245211066428519, 17911839290282890590]),
        (U64_MAX, [16490336266968443936, 16834447057089888969, 4048727598324417001]),
    ],
)
def test_seed_sequence(master, expected):
    seeds = seed_sequence(master, 3)
    assert seeds == expected
    assert all(type(s) is int for s in seeds)


@pytest.mark.parametrize(
    "index, expected",
    [
        (0, (6791897765849424158, 17405687883870564846, 834844254806117752, 14341179868655528873)),
        (1, (8614008028692990056, 633295910745529047, 847994190102014074, 10397244254371068502)),
        (399, (7186335423497960001, 3639492539547666155, 1704772413161100889, 4374960835889590424)),
    ],
)
def test_batch_image_seeds(index, expected):
    assert image_seeds(1, index, Method.M3, 4) == expected
    assert image_seeds(1, index, Method.M1, 4) == expected[:3]


@pytest.mark.parametrize(
    "seed, length, expected",
    [
        (0, 1, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
        (U64_MAX, 1, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
        (0, 2, "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db"),
        (U64_MAX, 2, "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0"),
        (1, 10, "653cc5f437060d5ce58946a60fa098a4b8a14868609d45442a961d5df4aa22ac"),
        (0, 10304, "ccd1a70ee80f2711e7c27629240b7964660878f22f2868e49fe8d21de85f9e0e"),
        (U64_MAX, 10304, "9dda67d7307e47e2138c517dc4c65529246f7d0414275c80e8c53b3d2c1ba881"),
        (0, 76800, "d5f32f8d6b4aaf474ccedbd2ac1586bba83ff18ef621e05ce03e28752751f0a1"),
        (7, 76800, "fb0995104802f03afd62ac76bb0e463ff09727f63d7ff0d7967670c07d8031ea"),
        (U64_MAX, 1048576, "5c0f8c1fb50313b9931ea582a4e36c20f79856ed1f79999cbe618ddd03cab178"),
    ],
)
def test_derive_permutation(seed, length, expected):
    perm = derive_permutation(PermutationKey(seed, length))
    assert not perm.flags.writeable
    assert hashlib.sha256(perm.astype("<i8").tobytes()).hexdigest() == expected


ORIGINAL_DIGEST = "10dbd2b177d9ecf838d745b6f757955b550a36feb648832304364bbae7e6dd4b"
# the m3 secret is a keyed permutation of the original, so the bit transform
# leaves it unchanged
M3_SECRET_DIGEST = "2b1dbe630fe450c5a75ca8d7c3517211357a76a8f9572af92101646a1461bc17"


@pytest.mark.parametrize(
    "transform, method, expected",
    [
        ("reverse8", Method.M1, "c668d3f5ca4ebf6dd9ea5cc078693acc48bf6ee2a91b82e400aee995bbb1fe15"),
        ("reverse8", Method.M2, "0600cb4ddef9d76a4f04c7bfb502822fe94e6b8d076955ce039b91486663fb02"),
        ("reverse8", Method.M3, "5cfa4af679b5b3fde15f0b1e8fb13693412f340341f7e69ba740a48adfa5c15a"),
        ("rotate:3", Method.M1, "15ebad31138c9cd0eddb1e5ad75763ba9702805256f679c058cfadd3e583c2c2"),
        ("rotate:3", Method.M2, "944389183fbb059074660e595fb891cc76fdfa9ef2828f7a7d2934ebc7b25f88"),
        ("rotate:3", Method.M3, "b4f01c16b93d3783ac517a3fc2b5470c2f889ecec05acd268fe049089e0a53af"),
    ],
)
def test_generate_shares(transform, method, expected):
    original = textured_image(5, 23, 17)
    assert pixel_digest(original) == ORIGINAL_DIGEST
    params = SchemeParams(
        method,
        n=4,
        bit_transform=BitTransform(transform),
        seeds=seed_sequence(2024, 4 if method is Method.M3 else 3),
    )
    share_set = generate_shares(original, params)
    digest = hashlib.sha256(b"".join(s.data.tobytes() for s in share_set.shares)).hexdigest()
    assert digest == expected
    if method is Method.M3:
        secret, _ = authenticate(share_set)
        assert pixel_digest(secret) == M3_SECRET_DIGEST
        assert pixel_digest(reveal_original(secret, params)) == ORIGINAL_DIGEST
