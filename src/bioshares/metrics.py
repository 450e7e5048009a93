"""Distortion and similarity measures between two same-size grayscale images.

Eight measures: Pearson correlation, MSE, RMSE, MAE, PSNR, single-window
SSIM, NPCR (percentage of differing pixel positions) and UACI (mean absolute
difference as a percentage of the 255 range). For identical inputs they hit
their ideal values exactly: cr=1, mse=0, mae=0, psnr=inf, ssim=1, npcr=0,
uaci=0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .images import GrayImage, require_same_dims

SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2


class ConstantImageError(ValueError):
    """Correlation is undefined when an input has zero variance."""


def _flat(img: GrayImage) -> np.ndarray:
    return img.data.astype(np.float64)


def correlation(i: GrayImage, s: GrayImage) -> float:
    """Pearson correlation over all pixels; raises on constant inputs."""
    require_same_dims(i, s)
    a, b = _flat(i), _flat(s)
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float((da * da).sum()) * float((db * db).sum()))
    if denom == 0.0:
        raise ConstantImageError("correlation undefined: a constant image has zero variance")
    return min(1.0, max(-1.0, float((da * db).sum()) / denom))


def mse(i: GrayImage, s: GrayImage) -> float:
    require_same_dims(i, s)
    d = _flat(i) - _flat(s)
    return float((d * d).mean())


def rmse(i: GrayImage, s: GrayImage) -> float:
    return math.sqrt(mse(i, s))


def mae(i: GrayImage, s: GrayImage) -> float:
    require_same_dims(i, s)
    return float(np.abs(_flat(i) - _flat(s)).mean())


def psnr_from_mse(mse_value: float) -> float:
    """20*log10(255/sqrt(mse)); +inf for zero error."""
    if mse_value == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 / math.sqrt(mse_value))


def psnr(i: GrayImage, s: GrayImage) -> float:
    return psnr_from_mse(mse(i, s))


def ssim(i: GrayImage, s: GrayImage) -> float:
    """Structural similarity with a single window spanning the whole image,
    C1=(0.01*255)^2 and C2=(0.03*255)^2."""
    require_same_dims(i, s)
    a, b = _flat(i), _flat(s)
    mu_a, mu_b = a.mean(), b.mean()
    da = a - mu_a
    db = b - mu_b
    var_a = float((da * da).mean())
    var_b = float((db * db).mean())
    cov = float((da * db).mean())
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float(num / den)


def npcr(i: GrayImage, s: GrayImage) -> float:
    """Percentage of pixel positions whose values differ."""
    require_same_dims(i, s)
    return 100.0 * int(np.count_nonzero(i.data != s.data)) / i.pixel_count


def uaci_from_mae(mae_value: float) -> float:
    return 100.0 * mae_value / 255.0


def uaci(i: GrayImage, s: GrayImage) -> float:
    """Mean absolute intensity change as a percentage of the 255 range."""
    return uaci_from_mae(mae(i, s))


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

    @classmethod
    def from_dict(cls, d: dict[str, object]) -> "MetricsReport":
        cr = d["cr"]
        psnr_value = d["psnr"]
        return cls(
            cr=None if cr is None else float(cr),  # type: ignore[arg-type]
            mse=float(d["mse"]),  # type: ignore[arg-type]
            rmse=float(d["rmse"]),  # type: ignore[arg-type]
            mae=float(d["mae"]),  # type: ignore[arg-type]
            psnr=math.inf if psnr_value == "inf" else float(psnr_value),  # type: ignore[arg-type]
            ssim=float(d["ssim"]),  # type: ignore[arg-type]
            npcr=float(d["npcr"]),  # type: ignore[arg-type]
            uaci=float(d["uaci"]),  # type: ignore[arg-type]
        )


def report_all(i: GrayImage, s: GrayImage) -> MetricsReport:
    """All eight measures at once; undefined correlation becomes None."""
    require_same_dims(i, s)
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

    def avg(name: str) -> float:
        return sum(getattr(r, name) for r in reports) / len(reports)

    return MetricsReport(
        cr=sum(crs) / len(crs) if crs else None,
        mse=avg("mse"),
        rmse=avg("rmse"),
        mae=avg("mae"),
        psnr=avg("psnr"),
        ssim=avg("ssim"),
        npcr=avg("npcr"),
        uaci=avg("uaci"),
    )


def format_measure(value: float | None, digits: int = 4) -> str:
    """Report cell for one measure: n/a when undefined; infinite PSNR prints as inf."""
    return "n/a" if value is None else f"{value:.{digits}f}"
