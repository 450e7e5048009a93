"""End-to-end acceptance checks for the whole pipeline.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s) and pins its
tolerance explicitly. The published-row checks test our metric conventions
against reference corpus means. UACI is linear in MAE, so the published mean
MAE maps onto the published mean UACI directly. PSNR is not linear in MSE:
with per-pair averaging (metrics.mean_reports), the mean PSNR exceeds
psnr_from_mse(mean MSE) by exactly 10*log10(AM/GM) of the per-pair MSEs.
test_consistency_of_published_psnr_row therefore requires the published gap
to be at least 0 (AM >= GM) and at most the largest AM/GM that share MSEs can
reach, about 1.008 dB, and checks that our own aggregate obeys the same
identity.
"""

import math
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from bioshares import (
    GrayImage,
    Method,
    SchemeParams,
    authenticate,
    corpus_paths,
    correlation,
    enroll,
    mae,
    make_covers,
    mean_reports,
    npcr,
    psnr_from_mse,
    report_all,
    reveal_original,
    run_batch,
    seed_count,
    textured_image,
    uaci,
)
from bioshares.images import REVERSE8
from bioshares.prng import seed_sequence

from helpers import filled, random_image


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] {label}")
        raise
    print(f"\n[PASS] {label}")


def test_round_trip_exactness_all_methods():
    with criterion("round-trip exactness: m1/m2/m3, n=2..6, 50 random 64x64 images each, < 30 s"):
        rng = np.random.default_rng(2024)
        started = time.monotonic()
        for method in Method:
            for n in range(2, 7):
                for _ in range(50):
                    original = random_image(rng, 64, 64)
                    seeds = tuple(int(s) for s in rng.integers(0, 2**63, seed_count(method, n)))
                    params = SchemeParams(method, n=n, seeds=seeds)
                    secret, covers = make_covers(original, params)
                    assert authenticate(enroll(secret, covers, params)) == (secret, tuple(covers))
                    if method is Method.M3:
                        assert reveal_original(secret, params) == original
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"round-trip sweep took {elapsed:.1f} s"


def _reversed_bits(v):
    return int(f"{v:08b}"[::-1], 2)


def _closed_form_share(secret, covers, i):
    # share i = reverse8( xor_{j<=i} (S ^ C_1 ^ ... ^ C_{j-1}) ), per pixel,
    # expanded from scratch with plain integers
    acc = [0] * len(secret)
    for j in range(1, i + 1):
        ts = list(secret)
        for cover in covers[: j - 1]:
            ts = [a ^ b for a, b in zip(ts, cover)]
        acc = [a ^ b for a, b in zip(acc, ts)]
    return [_reversed_bits(v) for v in acc]


def test_chain_matches_independent_expansion():
    with criterion("oracle equivalence: iterative chain == closed-form expansion, 100 runs, n=4"):
        rng = np.random.default_rng(77)
        mismatches = 0
        for _ in range(100):
            secret = random_image(rng, 8, 8)
            covers = [random_image(rng, 8, 8) for _ in range(3)]
            share_set = enroll(secret, covers, SchemeParams(Method.M1, n=4))
            secret_px = secret.data.tolist()
            covers_px = [c.data.tolist() for c in covers]
            for i, share in enumerate(share_set.shares, start=1):
                if share.data.tolist() != _closed_form_share(secret_px, covers_px, i):
                    mismatches += 1
        assert mismatches == 0


def test_metric_ideal_row():
    with criterion("metric ideal row: identical images score cr=1 mse=0 mae=0 psnr=inf ssim=1 npcr=0 uaci=0"):
        for img in (textured_image(0), GrayImage(3, 2, [9, 0, 255, 4, 4, 200])):
            report = report_all(img, img)
            assert report.cr == 1.0
            assert report.mse == 0.0
            assert report.mae == 0.0
            assert report.psnr == math.inf
            assert report.ssim == 1.0
            assert report.npcr == 0.0
            assert report.uaci == 0.0


def test_consistency_of_published_uaci_row():
    with criterion("published-row consistency: UACI from MAE=59.54 equals 23.35 +/- 0.5"):
        # absolute differences summing to 2977 over 50 pixels: MAE 59.54
        original = filled(50, 1, 0)
        share = GrayImage(50, 1, [255] * 11 + [172] + [0] * 38)
        assert mae(original, share) == 59.54
        assert abs(uaci(original, share) - 23.35) <= 0.5


# A share pixel is uniform on 0..255 and independent of the original pixel x,
# so its expected squared error is Var(u) + (E[u] - x)**2. Over 8-bit x that
# puts every share's expected MSE in [SHARE_VARIANCE + 0.5**2,
# SHARE_VARIANCE + SHARE_MEAN**2] = [5461.5, 21717.5].
SHARE_MEAN = 255 / 2
SHARE_VARIANCE = (256**2 - 1) / 12
MIN_SHARE_MSE = SHARE_VARIANCE + min((SHARE_MEAN - x) ** 2 for x in range(256))
MAX_SHARE_MSE = SHARE_VARIANCE + SHARE_MEAN**2


def _specht_ratio(h):
    """Largest AM/GM of positive numbers within [a, h*a] (Specht, 1960)."""
    root = h ** (1.0 / (h - 1.0))
    return root / (math.e * math.log(root))


# About 1.008 dB: the widest gap per-pair averaging can open between the mean
# PSNR of shares and the PSNR of their mean MSE.
MAX_PSNR_AVERAGING_GAP_DB = 10.0 * math.log10(_specht_ratio(MAX_SHARE_MSE / MIN_SHARE_MSE))


def _am_gm_gap_db(values):
    return 10.0 * math.log10(statistics.fmean(values) / statistics.geometric_mean(values))


def test_consistency_of_published_psnr_row():
    # The published MSE 7971.40 and PSNR 9.22 dB are corpus means over
    # (original, share) pairs; which method and dataset row they come from is
    # not recorded in PAPER.md or the README. Averaged per pair, mean PSNR =
    # psnr_from_mse(mean MSE) + 10*log10(AM/GM) of the per-pair MSEs, so the
    # published gap (about 0.105 dB) must be non-negative and within the
    # AM/GM bound for share MSEs. A wrong PSNR convention (log base, peak,
    # 10 vs 20, MSE vs RMSE) moves the gap by 9 dB or more.
    with criterion(
        "published-row consistency: PSNR 9.22 dB - psnr_from_mse(MSE=7971.40) in "
        f"[0, {MAX_PSNR_AVERAGING_GAP_DB:.3f}] dB (AM >= GM, share-MSE AM/GM bound); "
        "mean_reports gap == 10*log10(AM/GM) of m3 share MSEs +/- 1e-9"
    ):
        published_gap = 9.22 - psnr_from_mse(7971.40)
        assert 0.0 <= published_gap <= MAX_PSNR_AVERAGING_GAP_DB, published_gap

        reports = []
        for index in range(8):
            original = textured_image(index, 92, 112)
            params = SchemeParams(Method.M3, n=4, seeds=seed_sequence(5150 + index, 4))
            secret, covers = make_covers(original, params)
            reports.extend(report_all(original, share) for share in enroll(secret, covers, params).shares)
        aggregate = mean_reports(reports)
        gap = aggregate.psnr - psnr_from_mse(aggregate.mse)
        expected_gap = _am_gm_gap_db([r.mse for r in reports])
        assert abs(gap - expected_gap) <= 1e-9, (gap, expected_gap)
        # a non-zero gap is what tells per-pair PSNR means from PSNR(mean MSE)
        assert 0.0 < gap <= MAX_PSNR_AVERAGING_GAP_DB, gap


def test_distortion_on_synthetic_corpus():
    with criterion("distortion, m3 n=4 on 20 synthetic 64x64 textures: NPCR >= 98, |Cr| <= 0.1, < 10 s"):
        started = time.monotonic()
        npcr_values = []
        cr_values = []
        for index in range(20):
            original = textured_image(index, 64, 64)
            seeds = tuple(seed_sequence(4242 + index, 4))
            params = SchemeParams(Method.M3, n=4, seeds=seeds)
            secret, covers = make_covers(original, params)
            for share in enroll(secret, covers, params).shares:
                npcr_values.append(npcr(original, share))
                cr_values.append(abs(correlation(original, share)))
        elapsed = time.monotonic() - started
        assert np.mean(npcr_values) >= 98.0
        assert np.mean(cr_values) <= 0.1
        assert elapsed < 10.0, f"synthetic corpus run took {elapsed:.1f} s"


def test_revocability_of_reissued_templates():
    with criterion("revocability: same image, two m3 enrollments, pairwise share NPCR >= 98 on average"):
        rates = []
        for index in range(10):
            original = textured_image(index, 64, 64)
            first_params = SchemeParams(Method.M3, n=4, seeds=seed_sequence(100 + index, 4))
            second_params = SchemeParams(Method.M3, n=4, seeds=seed_sequence(900_000 + index, 4))
            first = enroll(*make_covers(original, first_params), first_params)
            second = enroll(*make_covers(original, second_params), second_params)
            rates.extend(npcr(a, b) for a, b in zip(first.shares, second.shares))
        assert np.mean(rates) >= 98.0


def _orl_root():
    env = os.environ.get("ORL_FACES_DIR")
    if env and Path(env).is_dir():
        return Path(env)
    local = Path(__file__).resolve().parent.parent / "datasets" / "orl"
    if local.is_dir():
        return local
    return None


@pytest.mark.skipif(_orl_root() is None,
                    reason="ORL face corpus not present (set ORL_FACES_DIR to run)")
def test_optional_orl_reproduction():
    # Reference m3 face-corpus row: Cr -0.0276, NPCR 99.25, UACI 23.66.
    # Tolerances are wide on purpose: the reference run's permutation seeds
    # are unpublished, so only the distortion level is reproducible.
    with criterion("optional face-corpus reproduction: m3 n=4 within published tolerances, < 5 min"):
        started = time.monotonic()
        _, report = run_batch(
            root=_orl_root(), paths=corpus_paths(_orl_root(), "orl-pgm"), method=Method.M3,
            n=4, master_seed=1, transform=REVERSE8,
        )
        elapsed = time.monotonic() - started
        assert report.metrics.cr is not None
        assert abs(report.metrics.cr - (-0.0276)) <= 0.1
        assert abs(report.metrics.npcr - 99.25) <= 1.5
        assert abs(report.metrics.uaci - 23.66) <= 3.0
        assert elapsed < 300.0, f"corpus batch took {elapsed:.1f} s"
