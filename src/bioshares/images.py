"""Grayscale raster type and the pixel-level Boolean operations the share
pipeline is built from: element-wise XOR and reversible 8-bit transforms
(bit-order reversal, circular rotation)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatchError(ValueError):
    """Two images that must share dimensions do not."""


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable 8-bit grayscale raster; pixels stored row-major.

    `data` accepts any integer array-like of length width*height with values
    in [0, 255] and is normalised to a read-only uint8 copy, except that a
    contiguous 1-D uint8 view of immutable `bytes` is kept as it is.
    """

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image dimensions must be positive, got {self.width}x{self.height}")
        arr = np.asarray(self.data)
        if arr.size != self.width * self.height:
            raise ValueError(f"expected {self.width * self.height} pixels, got {arr.size}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"pixel values must be integers, got dtype {arr.dtype}")
            if int(arr.min()) < 0 or int(arr.max()) > 255:
                raise ValueError("pixel values must lie in [0, 255]")
        if not (arr.dtype == np.uint8 and arr.strides == (1,) and isinstance(arr.base, bytes)):
            arr = np.array(arr, dtype=np.uint8).ravel()
            arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def filled(cls, width: int, height: int, value: int) -> "GrayImage":
        return cls(width, height, np.full(width * height, value, dtype=np.uint8))

    @property
    def dims(self) -> tuple[int, int]:
        return (self.width, self.height)

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    def rows(self) -> np.ndarray:
        """Pixels as a (height, width) view."""
        return self.data.reshape(self.height, self.width)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self.data, other.data))

    def __repr__(self) -> str:  # keep huge payloads out of test failure output
        return f"GrayImage({self.width}x{self.height})"


def require_same_dims(a: GrayImage, b: GrayImage) -> None:
    if a.dims != b.dims:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def xor_images(a: GrayImage, b: GrayImage) -> GrayImage:
    """Element-wise bitwise XOR of two same-size images."""
    require_same_dims(a, b)
    return GrayImage(a.width, a.height, np.bitwise_xor(a.data, b.data))


@dataclass(frozen=True)
class BitTransform:
    """Reversible per-pixel 8-bit transform applied to the noisy shares.

    `reverse8` reverses bit order; it is an involution, so the left
    (share-generation) and right (reconstruction) directions coincide.
    `rotate` rotates each byte circularly by `k` bits, left on the way in
    and right on the way back.
    """

    kind: str = "reverse8"
    k: int = 0

    def __post_init__(self) -> None:
        if self.kind == "reverse8":
            if self.k != 0:
                raise ValueError("reverse8 takes no rotation amount")
        elif self.kind == "rotate":
            if not 1 <= self.k <= 7:
                raise ValueError(f"rotation amount must be in 1..7, got {self.k}")
        else:
            raise ValueError(f"unknown bit transform {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "BitTransform":
        """Parse a CLI/manifest descriptor: 'reverse8' or 'rotate:K'."""
        if text == "reverse8":
            return cls("reverse8")
        if text.startswith("rotate:"):
            try:
                k = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad bit transform descriptor {text!r}") from None
            return cls("rotate", k)
        raise ValueError(f"unknown bit transform descriptor {text!r}")

    def descriptor(self) -> str:
        return "reverse8" if self.kind == "reverse8" else f"rotate:{self.k}"


REVERSE8 = BitTransform()

_REVERSE_LUT = np.array([int(f"{v:08b}"[::-1], 2) for v in range(256)], dtype=np.uint8)
_REVERSE_LUT.setflags(write=False)


# row k rotates each byte left by k bits; rotating right by k is row 8 - k
_ROTATE_LUTS = np.array(
    [[((v << k) | (v >> (8 - k))) & 0xFF for v in range(256)] for k in range(8)], dtype=np.uint8
)
_ROTATE_LUTS.setflags(write=False)


def transform_lut(transform: BitTransform, direction: str = "left") -> np.ndarray:
    """256-entry lookup table realising the transform in the given direction."""
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    if transform.kind == "reverse8":
        return _REVERSE_LUT
    return _ROTATE_LUTS[transform.k if direction == "left" else 8 - transform.k]


def bit_transform(
    img: GrayImage, transform: BitTransform = REVERSE8, direction: str = "left"
) -> GrayImage:
    """Apply the per-pixel transform to every pixel of the image.

    The lookup table is applied as a `bytes.translate` table, one byte per
    byte, so no pixel is widened to an index.
    """
    table = transform_lut(transform, direction).tobytes()
    pixels = img.data.tobytes().translate(table)
    return GrayImage(img.width, img.height, np.frombuffer(pixels, dtype=np.uint8))
