import gc
import math
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioshares import (
    ConstantImageError,
    DimensionMismatchError,
    GrayImage,
    MetricsReport,
    correlation,
    mae,
    mean_reports,
    mse,
    npcr,
    psnr_from_mse,
    report_all,
    ssim,
    uaci,
    xor_images,
)
from bioshares import metrics

from helpers import (
    filled,
    float_correlation,
    float_mae,
    float_mse,
    float_ssim,
    image_pairs,
    random_image,
    report_from_dict,
)

ALL_ZERO = filled(4, 4, 0)
ALL_255 = filled(4, 4, 255)


def ramp(w=4, h=4):
    return GrayImage(w, h, np.arange(w * h, dtype=np.uint8))


class TestCorrelation:
    def test_self_correlation_is_exactly_one(self):
        assert correlation(ramp(), ramp()) == 1.0

    def test_perfect_anticorrelation(self):
        x = ramp()
        inverted = GrayImage(4, 4, 255 - x.data)
        assert correlation(x, inverted) == -1.0

    def test_constant_image_raises(self):
        with pytest.raises(ConstantImageError):
            correlation(ALL_ZERO, ramp())
        with pytest.raises(ConstantImageError):
            correlation(ramp(), ALL_255)

    @given(image_pairs())
    @settings(max_examples=60)
    def test_bounded_and_symmetric(self, pair):
        a, b = pair
        try:
            value = correlation(a, b)
        except ConstantImageError:
            return
        assert -1.0 <= value <= 1.0
        assert correlation(b, a) == pytest.approx(value, abs=1e-12)


class TestErrors:
    def test_mse_identical(self):
        assert mse(ramp(), ramp()) == 0.0

    def test_mse_extremes(self):
        assert mse(ALL_ZERO, ALL_255) == 65025.0

    def test_mse_direct_evaluation(self):
        a = GrayImage(2, 1, [0, 10])
        b = GrayImage(2, 1, [3, 14])
        assert mse(a, b) == pytest.approx(12.5)
        assert report_all(a, b).rmse == pytest.approx(math.sqrt(12.5))

    def test_mae_values(self):
        assert mae(ramp(), ramp()) == 0.0
        assert mae(ALL_ZERO, ALL_255) == 255.0
        assert mae(GrayImage(2, 1, [0, 10]), GrayImage(2, 1, [3, 14])) == pytest.approx(3.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mse(ALL_ZERO, filled(2, 2, 0))


class TestPsnr:
    def test_zero_error_is_infinite(self):
        assert report_all(ramp(), ramp()).psnr == math.inf

    def test_full_scale_error_is_zero_db(self):
        assert report_all(ALL_ZERO, ALL_255).psnr == 0.0
        assert psnr_from_mse(65025.0) == 0.0

    def test_from_mse_formula(self):
        # 20*log10(255/sqrt(7971.40)), frozen from a direct evaluation
        assert psnr_from_mse(7971.40) == pytest.approx(9.115457585584242, abs=1e-9)

    def test_monotone_in_error(self):
        assert psnr_from_mse(100.0) > psnr_from_mse(200.0) > psnr_from_mse(60000.0)


class TestSsim:
    def test_identical_is_exactly_one(self):
        assert ssim(ramp(), ramp()) == 1.0
        assert ssim(ALL_ZERO, ALL_ZERO) == 1.0

    def test_black_vs_white_near_zero(self):
        # (C1*C2) / ((65025+C1)*C2) = C1/(65025+C1), frozen from the formula
        assert ssim(ALL_ZERO, ALL_255) == pytest.approx(9.999000099990003e-05, rel=1e-12)

    @given(image_pairs())
    @settings(max_examples=60)
    def test_bounded_and_symmetric(self, pair):
        a, b = pair
        value = ssim(a, b)
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12
        assert ssim(b, a) == pytest.approx(value, abs=1e-12)


class TestPixelChange:
    def test_npcr_identical(self):
        assert npcr(ramp(), ramp()) == 0.0

    def test_npcr_everything_changed(self):
        assert npcr(ALL_ZERO, ALL_255) == 100.0

    def test_npcr_one_of_four(self):
        assert npcr(GrayImage(2, 2, [1, 2, 3, 4]), GrayImage(2, 2, [1, 2, 3, 5])) == 25.0

    def test_npcr_constant_offset_is_total(self):
        rng = np.random.default_rng(1)
        x = random_image(rng, 8, 8)
        for c in (1, 64, 255):
            shifted = xor_images(x, filled(8, 8, c))
            assert npcr(x, shifted) == 100.0

    def test_uaci_values(self):
        assert uaci(ramp(), ramp()) == 0.0
        assert uaci(ALL_ZERO, ALL_255) == 100.0
        # absolute differences summing to 2977 over 50 pixels: MAE 59.54
        share = GrayImage(50, 1, [255] * 11 + [172] + [0] * 38)
        assert uaci(filled(50, 1, 0), share) == pytest.approx(23.349019607843136,
                                                                     abs=1e-9)

    @given(image_pairs())
    @settings(max_examples=60)
    def test_uaci_is_scaled_mae(self, pair):
        a, b = pair
        assert uaci(a, b) == 100.0 * mae(a, b) / 255.0

    @given(image_pairs())
    @settings(max_examples=60)
    def test_bounds(self, pair):
        a, b = pair
        assert 0.0 <= npcr(a, b) <= 100.0
        assert 0.0 <= uaci(a, b) <= 100.0
        assert 0.0 <= mse(a, b) <= 65025.0
        assert 0.0 <= mae(a, b) <= 255.0


class TestReportAll:
    def test_ideal_row_for_identical_images(self):
        report = report_all(ramp(), ramp())
        assert report.cr == 1.0
        assert report.mse == 0.0
        assert report.rmse == 0.0
        assert report.mae == 0.0
        assert report.psnr == math.inf
        assert report.ssim == 1.0
        assert report.npcr == 0.0
        assert report.uaci == 0.0

    def test_constant_image_reports_na_correlation(self):
        report = report_all(ALL_ZERO, ramp())
        assert report.cr is None
        assert report.mse > 0.0

    @given(image_pairs())
    @settings(max_examples=40)
    def test_rmse_squares_back_to_mse(self, pair):
        report = report_all(*pair)
        assert report.rmse**2 == pytest.approx(report.mse, rel=1e-9)

    @given(image_pairs())
    @settings(max_examples=40)
    def test_all_eight_symmetric(self, pair):
        a, b = pair
        fwd = report_all(a, b)
        rev = report_all(b, a)
        for name in MetricsReport.FIELDS:
            x, y = getattr(fwd, name), getattr(rev, name)
            if x is None or (isinstance(x, float) and math.isinf(x)):
                assert x == y
            else:
                assert x == pytest.approx(y, abs=1e-9)

    def test_dict_round_trip_with_inf_and_none(self):
        report = report_all(ramp(), ramp())
        d = report.to_dict()
        assert d["psnr"] == "inf"
        assert report_from_dict(d) == report
        na = report_all(ALL_ZERO, ramp())
        assert report_from_dict(na.to_dict()) == na


class TestMeanReports:
    def test_plain_average(self):
        a = report_all(GrayImage(2, 1, [0, 10]), GrayImage(2, 1, [3, 14]))
        b = report_all(GrayImage(2, 1, [0, 10]), GrayImage(2, 1, [0, 10]))
        avg = mean_reports([a, b])
        assert avg.mse == pytest.approx((a.mse + b.mse) / 2)
        assert avg.psnr == math.inf  # mean with an infinite term
        assert avg.uaci == pytest.approx(100.0 * avg.mae / 255.0)

    def test_undefined_correlations_skipped(self):
        defined = report_all(ramp(), GrayImage(4, 4, 255 - ramp().data))
        undefined = report_all(ALL_ZERO, ramp())
        avg = mean_reports([defined, undefined])
        assert avg.cr == defined.cr
        assert mean_reports([undefined]).cr is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_reports([])


MEASURES = [(correlation, float_correlation), (mse, float_mse), (mae, float_mae),
            (ssim, float_ssim)]


def outcome(measure, a, b):
    """The measure's bits, or the class and text of what it raised."""
    try:
        return float(measure(a, b)).hex()
    except ConstantImageError as exc:
        return type(exc), str(exc)


@st.composite
def oracle_pairs(draw):
    """Pairs from 1x2 to 64x64: independent noise, a small perturbation,
    identical images, or a constant image on either side."""
    w = draw(st.integers(1, 64))
    h = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_image(rng, w, h)
    kind = draw(st.sampled_from(["noise", "nudge", "same", "constant-a", "constant-b"]))
    if kind == "noise":
        b = random_image(rng, w, h)
    elif kind == "nudge":
        b = GrayImage(w, h, np.clip(a.data + rng.integers(-3, 4, w * h), 0, 255))
    elif kind == "same":
        b = GrayImage(w, h, a.data)
    else:
        const = filled(w, h, draw(st.integers(0, 255)))
        a, b = (const, a) if kind == "constant-a" else (a, const)
    return a, b


class TestFloatFormulaOracle:
    """Integer-sum mse/mae and the one-buffer centred sums equal the float64
    formulas bit for bit."""

    @given(oracle_pairs())
    @settings(max_examples=300)
    def test_small_and_mid_sizes(self, pair):
        for measure, oracle in MEASURES:
            assert outcome(measure, *pair) == outcome(oracle, *pair), measure.__name__

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_megapixel(self, seed):
        rng = np.random.default_rng(seed)
        a = random_image(rng, 1024, 1024)
        for b in (random_image(rng, 1024, 1024), GrayImage(1024, 1024, a.data ^ 1)):
            for measure, oracle in MEASURES:
                assert outcome(measure, a, b) == outcome(oracle, a, b), measure.__name__

    def test_constant_images(self):
        for measure, oracle in MEASURES:
            for pair in ((ALL_ZERO, ALL_255), (ALL_255, ALL_255), (ALL_ZERO, ramp())):
                assert outcome(measure, *pair) == outcome(oracle, *pair), measure.__name__


def npcr_oracle(a, b):
    return 100.0 * int(np.count_nonzero(a.data != b.data)) / a.pixel_count


def scored(a, b):
    """correlation, ssim and report_all on (a, b), checked bit for bit against
    the float64 formulas; returns the bits for comparing runs."""
    cr, s = outcome(correlation, a, b), outcome(ssim, a, b)
    assert cr == outcome(float_correlation, a, b)
    assert s == outcome(float_ssim, a, b)
    report = report_all(a, b)
    assert (report.cr is None) == isinstance(cr, tuple)
    assert report.cr is None or float(report.cr).hex() == cr
    assert float(report.ssim).hex() == s
    return cr, s, report


class CountedPixels(np.ndarray):
    """Pixel view that logs its image's tag on every astype, the cast to float64,
    and each ufunc that reads it, with the tags of its pixel inputs."""

    def astype(self, dtype, *args, **kwargs):
        self.log.append(self.tag)
        return np.asarray(self).astype(dtype, *args, **kwargs)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        tags = tuple(x.tag for x in inputs if isinstance(x, CountedPixels))
        self.ufuncs.append((ufunc.__name__, *tags))
        inputs = [np.asarray(x) if isinstance(x, CountedPixels) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def counted(img, tag, log, ufuncs=None):
    view = img.data.view(CountedPixels)
    view.tag, view.log, view.ufuncs = tag, log, [] if ufuncs is None else ufuncs
    twin = GrayImage(img.width, img.height, img.data)
    object.__setattr__(twin, "data", view)  # a frozen GrayImage, patched for the count
    return twin


class TestCentringSlot:
    """correlation and ssim share one centring of the first argument and one set
    of pair sums; every result still equals the float64 formulas bit for bit."""

    def test_pairs_interleaved_across_two_originals(self):
        rng = np.random.default_rng(3)
        originals = [random_image(rng, 20, 14) for _ in range(2)]
        shares = [[random_image(rng, 20, 14) for _ in range(4)] for _ in originals]
        for o, row in zip(originals, shares):
            for s in row:
                scored(o, s)
        for k in range(4):
            for o, row in zip(originals, shares):
                scored(o, row[k])
        # measures of different pairs in turn, so no call finds its pair in the slot
        for k in range(4):
            for o, row in zip(originals, shares):
                assert outcome(ssim, o, row[k]) == outcome(float_ssim, o, row[k])
            for o, row in zip(originals, shares):
                assert outcome(correlation, o, row[k]) == outcome(float_correlation, o, row[k])

    def test_swapped_arguments_and_self_pairs(self):
        rng = np.random.default_rng(4)
        a, b = random_image(rng, 9, 7), random_image(rng, 9, 7)
        scored(a, b)
        scored(b, a)
        scored(a, b)
        for x in (a, b, a):
            assert scored(x, x)[0] == (1.0).hex()

    def test_constant_image_then_ssim_on_the_same_pair(self):
        rng = np.random.default_rng(5)
        x = random_image(rng, 8, 6)
        for const in (filled(8, 6, 0), filled(8, 6, 200)):
            for a, b in ((x, const), (const, x), (const, const)):
                with pytest.raises(ConstantImageError):
                    correlation(a, b)
                assert ssim(a, b) == float_ssim(a, b)
                assert report_all(a, b).cr is None

    def test_recycled_ids_never_hit(self):
        rng = np.random.default_rng(6)
        seen = set()
        reused = 0
        for _ in range(200):
            a, b = random_image(rng, 6, 5), random_image(rng, 6, 5)
            reused += id(a) in seen or id(b) in seen
            seen.update((id(a), id(b)))
            scored(a, b)
            correlation(b, a)
            del a, b
        assert reused  # new images did land on the ids of dropped ones

    def test_slot_keeps_no_image_alive_and_its_centring_read_only(self):
        rng = np.random.default_rng(7)
        a, b = random_image(rng, 10, 10), random_image(rng, 10, 10)
        correlation(a, b)
        centred = metrics._slot[1]
        assert centred.dtype == np.float64 and not centred.flags.writeable
        with pytest.raises(ValueError):
            centred[0] = 0.0
        refs = weakref.ref(a), weakref.ref(b)
        del a, b
        gc.collect()
        assert [r() for r in refs] == [None, None]
        assert metrics._slot is None  # no copy of a's pixels outlives it

    def test_slot_empties_silently_at_interpreter_exit(self):
        # the script's globals hold the slot's original, so the callback runs
        # late in shutdown, once imports no longer work
        script = ("import numpy as np\n"
                  "from bioshares import GrayImage, correlation\n"
                  "a, b = GrayImage(8, 8, np.arange(64)), GrayImage(8, 8, np.arange(64) % 7)\n"
                  "correlation(a, b)\n")
        src = str(Path(metrics.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-X", "dev", "-c", script], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")

    def test_report_all_centres_the_original_once_and_each_share_once(self):
        rng = np.random.default_rng(8)
        log: list[str] = []
        original = counted(random_image(rng, 16, 12), "o", log)
        shares = [counted(random_image(rng, 16, 12), f"s{k}", log) for k in range(1, 5)]
        reports = [report_all(original, s) for s in shares]
        assert log == ["o", "s1", "s2", "s3", "s4"]
        plain = GrayImage(16, 12, original.data)
        assert reports == [report_all(plain, GrayImage(16, 12, s.data)) for s in shares]

    def test_report_all_forms_the_difference_once_per_pair(self):
        rng = np.random.default_rng(10)
        log: list[str] = []
        ufuncs: list[tuple] = []
        original = counted(random_image(rng, 16, 12), "o", log, ufuncs)
        shares = [counted(random_image(rng, 16, 12), f"s{k}", log, ufuncs) for k in range(1, 5)]
        for s in shares:
            report_all(original, s)
        assert ufuncs == [(name, "o", f"s{k}") for k in range(1, 5)
                          for name in ("maximum", "minimum")]

    def test_single_measures_interleaved_across_pairs(self):
        # consecutive calls score pairs that share the first image, then pairs
        # that share the second, so a slot keyed on less than the very pair
        # returns another pair's sums
        rng = np.random.default_rng(11)
        originals = [random_image(rng, 20, 14) for _ in range(2)]
        shares = [random_image(rng, 20, 14) for _ in range(3)]
        shares.append(GrayImage(20, 14, originals[0].data))
        measures = [(mse, float_mse), (mae, float_mae), (npcr, npcr_oracle),
                    (uaci, lambda a, b: 100.0 * float_mae(a, b) / 255.0),
                    (correlation, float_correlation), (ssim, float_ssim)]
        same_first = [(o, shares[(k + m) % 4], *measure) for o in originals
                      for m, measure in enumerate(measures) for k in range(4)]
        same_second = [(o, s, *measure) for s in shares for measure in measures
                       for o in originals]
        for a, b, measure, oracle in same_first + same_second:
            assert outcome(measure, a, b) == outcome(oracle, a, b), measure.__name__

    def test_threads_match_a_serial_run(self):
        rng = np.random.default_rng(9)
        originals = [random_image(rng, 64, 64) for _ in range(3)]
        const = filled(64, 64, 17)
        pairs = [(o, random_image(rng, 64, 64)) for o in originals for _ in range(4)]
        pairs += [(originals[0], const), (const, originals[1]), (originals[2], originals[2])]
        serial = [scored(a, b) for a, b in pairs]
        results: dict[int, list] = {}

        def worker(w):
            order = list(range(w, len(pairs))) + list(range(w))
            if w % 2:
                order.reverse()
            got = []
            for _ in range(10):
                for k in order:
                    a, b = pairs[k]
                    got.append((k, (outcome(correlation, a, b), outcome(ssim, a, b),
                                    report_all(a, b))))
            results[w] = got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for got in results.values():
            assert len(got) == 10 * len(pairs)
            for k, result in got:
                assert result == serial[k]
