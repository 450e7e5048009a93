"""Shared test helpers: hypothesis strategies for images, the sequential
Fisher-Yates shuffle that keyed permutations must reproduce, and a small BMP
writer kept independent of the package's own decoder."""

import struct

import numpy as np
from hypothesis import strategies as st

from bioshares import GrayImage, splitmix64


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
