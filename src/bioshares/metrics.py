"""Distortion and similarity measures between two same-size grayscale images.

Eight measures: Pearson correlation, MSE, RMSE, MAE, PSNR, single-window
SSIM, NPCR (percentage of differing pixel positions) and UACI (mean absolute
difference as a percentage of the 255 range). For identical inputs they hit
their ideal values exactly: cr=1, mse=0, mae=0, psnr=inf, ssim=1, npcr=0,
uaci=0.

Every measure is a view of one kernel over the pair. It takes the sum, the
sum of squares and the nonzero count of d = |i - s| as exact integers (every
partial sum stays below 2**53, so MSE and MAE equal the float64 means bit for
bit), and the means and centred sums of products that correlation and SSIM
read. One private slot keeps the last first argument's centred float64 copy
(8 bytes per pixel, read-only), its mean and sum of squares, and the last
pair's sums until the next call replaces them or that first argument is
collected. So each measure of a pair after the first reads the slot, and an
original scored against its n shares is centred once. The slot knows its
images only through weak references: a hit needs the very same live
objects, never an equal id.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .images import GrayImage, require_same_dims

SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2


class ConstantImageError(ValueError):
    """Correlation is undefined when an input has zero variance."""


# (ref to i, i centred, mean of i, its sum of squares, ref to s, sums of (i, s));
# read once and replaced by one assignment, so threads need no lock
_slot: tuple | None = None


def _forget(ref: weakref.ref) -> None:
    """Empty the slot once its first image is collected, so no copy of that
    image's pixels outlives it. Racing a new entry at worst costs a miss."""
    global _slot
    slot = _slot
    if slot is not None and slot[0] is ref:
        _slot = None


def _pair_sums(i: GrayImage, s: GrayImage) -> tuple:
    """Sum, sum of squares and nonzero count of |i - s|, then the means and the
    sums of da*da, db*db and da*db of both inputs centred in float64; reuses
    the slot's centring of `i` and its sums for `(i, s)`."""
    global _slot
    require_same_dims(i, s)
    slot = _slot
    if slot is not None and slot[0]() is i:
        ref_i, da, mu_a, saa, ref_s, sums = slot
        if ref_s() is s:
            return sums
    else:
        ref_i = weakref.ref(i, _forget)
        da = i.data.astype(np.float64)
        mu_a = float(da.mean())
        da -= mu_a
        saa = float(np.multiply(da, da).sum())
        da.setflags(write=False)
    d = np.maximum(i.data, s.data)
    d -= np.minimum(i.data, s.data)
    d_sum = int(d.sum(dtype=np.int64))
    d_squares = int(np.square(d, dtype=np.uint16).sum(dtype=np.int64))
    changed = int(np.count_nonzero(d))
    del d  # freed before the share's 8 B/px copy
    db = s.data.astype(np.float64)
    mu_b = float(db.mean())
    db -= mu_b
    sbb = float(np.multiply(db, db).sum())
    sab = float(np.multiply(da, db, out=db).sum())
    sums = (d_sum, d_squares, changed, mu_a, mu_b, saa, sbb, sab)
    _slot = (ref_i, da, mu_a, saa, weakref.ref(s), sums)
    return sums


def correlation(i: GrayImage, s: GrayImage) -> float:
    """Pearson correlation over all pixels; raises on constant inputs."""
    *_, saa, sbb, sab = _pair_sums(i, s)
    denom = math.sqrt(saa * sbb)
    if denom == 0.0:
        raise ConstantImageError("correlation undefined: a constant image has zero variance")
    return min(1.0, max(-1.0, sab / denom))


def mse(i: GrayImage, s: GrayImage) -> float:
    return _pair_sums(i, s)[1] / i.pixel_count


def mae(i: GrayImage, s: GrayImage) -> float:
    return _pair_sums(i, s)[0] / i.pixel_count


def psnr_from_mse(mse_value: float) -> float:
    """20*log10(255/sqrt(mse)); +inf for zero error."""
    if mse_value == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 / math.sqrt(mse_value))


def ssim(i: GrayImage, s: GrayImage) -> float:
    """Structural similarity with a single window spanning the whole image,
    C1=(0.01*255)^2 and C2=(0.03*255)^2."""
    *_, mu_a, mu_b, saa, sbb, sab = _pair_sums(i, s)
    p = i.pixel_count
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * (sab / p) + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (saa / p + sbb / p + SSIM_C2)
    return num / den


def npcr(i: GrayImage, s: GrayImage) -> float:
    """Percentage of pixel positions whose values differ."""
    return 100.0 * _pair_sums(i, s)[2] / i.pixel_count


def uaci(i: GrayImage, s: GrayImage) -> float:
    """Mean absolute intensity change as a percentage of the 255 range."""
    return 100.0 * mae(i, s) / 255.0


@dataclass(frozen=True)
class MetricsReport:
    """All eight measures for one image pair (or their arithmetic means).

    `cr` is None when correlation was undefined (constant image); `psnr` is
    +inf for identical inputs and serialises as the string "inf".
    """

    cr: float | None
    mse: float
    rmse: float
    mae: float
    psnr: float
    ssim: float
    npcr: float
    uaci: float

    FIELDS = ("cr", "mse", "rmse", "mae", "psnr", "ssim", "npcr", "uaci")

    def to_dict(self) -> dict[str, object]:
        d: dict[str, object] = {name: getattr(self, name) for name in self.FIELDS}
        if math.isinf(self.psnr):
            d["psnr"] = "inf"
        return d


def report_all(i: GrayImage, s: GrayImage) -> MetricsReport:
    """All eight measures at once; undefined correlation becomes None."""
    mse_value = mse(i, s)
    try:
        cr: float | None = correlation(i, s)
    except ConstantImageError:
        cr = None
    return MetricsReport(
        cr=cr,
        mse=mse_value,
        rmse=math.sqrt(mse_value),
        mae=mae(i, s),
        psnr=psnr_from_mse(mse_value),
        ssim=ssim(i, s),
        npcr=npcr(i, s),
        uaci=uaci(i, s),
    )


def mean_reports(reports: Sequence[MetricsReport]) -> MetricsReport:
    """Arithmetic mean per measure over pairs, in input order.

    Pairs with undefined correlation are left out of the cr mean (None if
    nothing is left). The rmse column is the mean of per-pair rmse values,
    so the aggregate does not satisfy rmse**2 == mse.
    """
    if not reports:
        raise ValueError("no reports to average")
    crs = [r.cr for r in reports if r.cr is not None]
    means = {name: sum(getattr(r, name) for r in reports) / len(reports)
             for name in MetricsReport.FIELDS if name != "cr"}
    return MetricsReport(cr=sum(crs) / len(crs) if crs else None, **means)


def format_measure(value: float | None, digits: int = 4) -> str:
    """Report cell for one measure: n/a when undefined; infinite PSNR prints as inf."""
    return "n/a" if value is None else f"{value:.{digits}f}"
