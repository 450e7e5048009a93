"""Shared test helpers: hypothesis strategies for images, reference
implementations that the package's whole-array code must reproduce bit for
bit (the sequential Fisher-Yates shuffle, the keyed-randomness kernels as
they were before they ran in place, each bit transform built bit by bit
from its descriptor, the float64 formulas of the measures,
the token-at-a-time PGM reader), a reader for JSON metric reports, a
small BMP writer kept independent of the package's own decoder, and a
tracemalloc wrapper for memory budgets."""

import math
import struct
import tracemalloc

import numpy as np
from hypothesis import strategies as st

from bioshares import (
    BitTransform,
    ConstantImageError,
    GrayImage,
    MetricsReport,
    PgmError,
    require_same_dims,
    splitmix64,
)
from bioshares.codecs import MAX_PIXELS
from bioshares.metrics import SSIM_C1, SSIM_C2


def traced(fn, *args):
    """fn(*args) and the peak of the memory tracemalloc saw it allocate, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


TRANSFORMS = [BitTransform("reverse8")] + [BitTransform(f"rotate:{k}") for k in range(1, 8)]
"""Every bit transform a scheme can use."""
TRANSFORM_IDS = [t.descriptor for t in TRANSFORMS]


@st.composite
def gray_images(draw, max_side=12):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    payload = draw(st.binary(min_size=w * h, max_size=w * h))
    return GrayImage(w, h, np.frombuffer(payload, dtype=np.uint8))


@st.composite
def image_pairs(draw, max_side=12):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    a = draw(st.binary(min_size=w * h, max_size=w * h))
    b = draw(st.binary(min_size=w * h, max_size=w * h))
    return (
        GrayImage(w, h, np.frombuffer(a, dtype=np.uint8)),
        GrayImage(w, h, np.frombuffer(b, dtype=np.uint8)),
    )


@st.composite
def image_triples(draw, max_side=8):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    imgs = tuple(
        GrayImage(w, h, np.frombuffer(draw(st.binary(min_size=w * h, max_size=w * h)), dtype=np.uint8))
        for _ in range(3)
    )
    return imgs


def fisher_yates(seed, length):
    """Reference permutation: the swap loop over a Python list, descending,
    swapping position i with draw mod (i + 1)."""
    draws = splitmix64(seed, length - 1)
    bounds = np.arange(length, 1, -1, dtype=np.uint64)
    perm = list(range(length))
    i = length - 1
    for j in (draws % bounds).tolist():
        perm[i], perm[j] = perm[j], perm[i]
        i -= 1
    return perm


def splitmix64_reference(seed, count):
    """SplitMix64 with a fresh temporary per operator."""
    if count < 0:
        raise ValueError("count must be non-negative")
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & (2**64 - 1)) + np.uint64(0x9E3779B97F4A7C15) * steps
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def random_bytes_reference(seed, count):
    """Low bytes of SplitMix64 by masking, then narrowing."""
    return (splitmix64_reference(seed, count) & np.uint64(0xFF)).astype(np.uint8)


def bit_transform_reference(img, transform):
    """The transform built bit by bit from its descriptor alone, not from
    its table: reverse8 moves bit i to bit 7 - i, and rotate:K moves bit i
    to bit (i + K) mod 8."""
    if transform.descriptor == "reverse8":
        targets = [7 - i for i in range(8)]
    else:
        k = int(transform.descriptor.removeprefix("rotate:"))
        targets = [(i + k) % 8 for i in range(8)]
    out = np.zeros(img.pixel_count, dtype=np.uint8)
    for i, target in enumerate(targets):
        out |= ((img.data >> i) & 1) << target
    return GrayImage(img.width, img.height, out)


def derive_permutation_reference(key):
    """The one-sort, pointer-doubling derivation with a fresh array per
    pass and boolean-mask compressions at the group heads."""
    length = key.length
    targets = np.zeros(length, dtype=np.int64)
    targets[:0:-1] = splitmix64_reference(key.seed, length - 1) % np.arange(
        length, 1, -1, dtype=np.uint64)
    sort_key = (targets << 32) | np.arange(length, dtype=np.int64)
    del targets
    sort_key.sort()
    group, step = sort_key >> 32, sort_key & 0xFFFFFFFF
    del sort_key
    head = np.ones(length, dtype=bool)
    np.not_equal(group[1:], group[:-1], out=head[1:])
    chain = np.arange(length, dtype=np.int64)
    chain[group[head]] = step[head]
    while True:
        jumped = chain[chain]
        if np.array_equal(jumped, chain):
            break
        chain = jumped
    del jumped
    out = np.empty(length, dtype=np.int64)
    out[step[:-1]] = np.where(head[1:], group[:-1], chain[step[1:]])
    out[step[-1]] = group[-1]
    out.setflags(write=False)
    return out


def _float64(img):
    return img.data.astype(np.float64)


def float_correlation(i, s):
    """Pearson correlation from float64 means and centred products."""
    require_same_dims(i, s)
    a, b = _float64(i), _float64(s)
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float((da * da).sum()) * float((db * db).sum()))
    if denom == 0.0:
        raise ConstantImageError("correlation undefined: a constant image has zero variance")
    return min(1.0, max(-1.0, float((da * db).sum()) / denom))


def float_mse(i, s):
    require_same_dims(i, s)
    d = _float64(i) - _float64(s)
    return float((d * d).mean())


def float_mae(i, s):
    require_same_dims(i, s)
    return float(np.abs(_float64(i) - _float64(s)).mean())


def float_ssim(i, s):
    """Single-window SSIM from float64 means, variances and covariance."""
    require_same_dims(i, s)
    a, b = _float64(i), _float64(s)
    mu_a, mu_b = a.mean(), b.mean()
    da = a - mu_a
    db = b - mu_b
    var_a = float((da * da).mean())
    var_b = float((db * db).mean())
    cov = float((da * db).mean())
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float(num / den)


_PGM_SPACE = frozenset(b" \t\r\n\x0b\x0c")


def _skip_space(buf, pos):
    # '#' comments run to end of line and count as whitespace
    n = len(buf)
    while pos < n:
        b = buf[pos]
        if b in _PGM_SPACE:
            pos += 1
        elif b == 0x23:
            while pos < n and buf[pos] != 0x0A:
                pos += 1
        else:
            break
    return pos


PGM_MAX_DIGITS = 20


def _read_uint(buf, pos, what):
    """Read a decimal token; returns (value, token_start, next_pos). The
    value is None when the token has more than PGM_MAX_DIGITS significant
    digits."""
    pos = _skip_space(buf, pos)
    start = pos
    n = len(buf)
    while pos < n and buf[pos] == 0x30:
        pos += 1
    first = pos  # first significant digit
    while pos < n and 0x30 <= buf[pos] <= 0x39:
        pos += 1
    if pos == start:
        raise PgmError(f"malformed header: expected {what}", offset=start)
    value = int(buf[first:pos] or b"0") if pos - first <= PGM_MAX_DIGITS else None
    return value, start, pos


def _read_header_uint(buf, pos, what):
    value, start, pos = _read_uint(buf, pos, what)
    if value is None:
        raise PgmError(f"malformed header: {what} has more than {PGM_MAX_DIGITS} digits",
                       offset=start)
    return value, start, pos


def load_pgm_token_loop(data):
    """Reference PGM reader that walks the bytes one token at a time: the
    header, then each P2 value, checked against maxval as it is read. Leading
    zeros are skipped; a token with more than PGM_MAX_DIGITS significant
    digits is rejected (header) or over maxval (P2 value) unconverted."""
    if len(data) < 2 or data[0:1] != b"P" or data[1:2] not in (b"2", b"5"):
        raise PgmError("not a P2/P5 PGM", offset=0)
    binary = data[1:2] == b"5"
    width, wstart, pos = _read_header_uint(data, 2, "width")
    height, hstart, pos = _read_header_uint(data, pos, "height")
    maxval, mstart, pos = _read_header_uint(data, pos, "maxval")
    if width <= 0:
        raise PgmError(f"malformed header: width {width}", offset=wstart)
    if height <= 0:
        raise PgmError(f"malformed header: height {height}", offset=hstart)
    if maxval <= 0:
        raise PgmError(f"malformed header: maxval {maxval}", offset=mstart)
    if maxval > 255:
        raise PgmError(f"maxval {maxval} exceeds 255", offset=mstart)
    need = width * height
    if need > MAX_PIXELS:
        raise PgmError(f"image of {width}x{height} pixels exceeds the limit of {MAX_PIXELS} pixels",
                       offset=wstart)

    if binary:
        if pos >= len(data) or data[pos] not in _PGM_SPACE:
            raise PgmError("malformed header: missing whitespace after maxval", offset=pos)
        pos += 1
        available = len(data) - pos
        if available < need:
            raise PgmError(
                f"truncated pixel payload: expected {need} bytes, found {available}",
                offset=len(data),
            )
        pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
        if maxval < 255:
            over = pixels > maxval
            if over.any():
                raise PgmError(
                    f"pixel value exceeds maxval {maxval}",
                    offset=pos + int(over.argmax()),
                )
        return GrayImage(width, height, pixels)

    values = np.empty(need, dtype=np.uint8)
    for i in range(need):
        try:
            v, vstart, pos = _read_uint(data, pos, "pixel value")
        except PgmError:
            raise PgmError(
                f"truncated pixel payload: expected {need} values, found {i}",
                offset=len(data),
            ) from None
        if v is None:
            raise PgmError(
                f"pixel value of more than {PGM_MAX_DIGITS} digits exceeds maxval {maxval}",
                offset=vstart,
            )
        if v > maxval:
            raise PgmError(f"pixel value {v} exceeds maxval {maxval}", offset=vstart)
        values[i] = v
    return GrayImage(width, height, values)


def report_from_dict(d):
    """A MetricsReport read back from its `to_dict` form ("inf", None)."""
    cr, psnr = d["cr"], d["psnr"]
    return MetricsReport(
        cr=None if cr is None else float(cr),
        psnr=math.inf if psnr == "inf" else float(psnr),
        **{name: float(d[name]) for name in ("mse", "rmse", "mae", "ssim", "npcr", "uaci")},
    )


def random_image(rng, width, height):
    return GrayImage(width, height, rng.integers(0, 256, width * height, dtype=np.uint8))


def _info_header(width, height, bpp, compression, clr_used, stride, top_down):
    return struct.pack(
        "<IiiHHIIiiII",
        40,
        width,
        -height if top_down else height,
        1,
        bpp,
        compression,
        stride * height,
        0,
        0,
        clr_used,
        0,
    )


def build_bmp_8bit(indices, palette=None, top_down=False, compression=0, clr_used=0):
    """8-bit BMP from a 2-D array of palette indices.

    `palette` is a list of (r, g, b) tuples; default is the 256-entry
    identity gray ramp. clr_used=0 means readers assume 256 entries.
    """
    arr = np.asarray(indices, dtype=np.uint8)
    h, w = arr.shape
    stride = (w + 3) & ~3
    if palette is None:
        palette = [(v, v, v) for v in range(256)]
    pal_bytes = b"".join(bytes((b, g, r, 0)) for (r, g, b) in palette)
    pixel_offset = 14 + 40 + len(pal_bytes)
    file_header = struct.pack("<2sIHHI", b"BM", pixel_offset + stride * h, 0, 0, pixel_offset)
    info = _info_header(w, h, 8, compression, clr_used, stride, top_down)
    rows = arr if top_down else arr[::-1]
    body = b"".join(row.tobytes() + b"\x00" * (stride - w) for row in rows)
    return file_header + info + pal_bytes + body


def build_bmp_24bit(rgb, top_down=False):
    """24-bit BMP from an (h, w, 3) RGB array."""
    arr = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = arr.shape
    stride = (w * 3 + 3) & ~3
    pixel_offset = 14 + 40
    file_header = struct.pack("<2sIHHI", b"BM", pixel_offset + stride * h, 0, 0, pixel_offset)
    info = _info_header(w, h, 24, 0, 0, stride, top_down)
    rows = arr if top_down else arr[::-1]
    body = b"".join(
        np.ascontiguousarray(row[:, ::-1]).tobytes() + b"\x00" * (stride - w * 3) for row in rows
    )
    return file_header + info + body
