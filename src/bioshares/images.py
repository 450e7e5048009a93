"""Grayscale raster type and the pixel-level Boolean operations the share
pipeline is built from: element-wise XOR and the eight reversible 8-bit
transforms (bit-order reversal and the seven circular rotations), each a
256-byte translate table keyed by its descriptor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatchError(ValueError):
    """Two images that must share dimensions do not."""


class _Owned:
    """Pixels nobody else can write through (see GrayImage.adopt)."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable 8-bit grayscale raster; pixels stored row-major.

    `width` and `height` are positive ints. `data` accepts any integer
    array-like of length width*height with values in [0, 255] and is
    normalised to a read-only uint8 copy, whoever else holds it; only an
    array handed over by `adopt` is kept without a copy.
    """

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self) -> None:
        for dim in (self.width, self.height):
            if not isinstance(dim, int) or isinstance(dim, bool):
                raise ValueError(f"image dimensions must be integers, got {dim!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image dimensions must be positive, got {self.width}x{self.height}")
        owned = isinstance(self.data, _Owned)
        arr = self.data.array if owned else np.asarray(self.data)
        if arr.size != self.width * self.height:
            raise ValueError(f"expected {self.width * self.height} pixels, got {arr.size}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"pixel values must be integers, got dtype {arr.dtype}")
            if int(arr.min()) < 0 or int(arr.max()) > 255:
                raise ValueError("pixel values must lie in [0, 255]")
        if not (owned and arr.dtype == np.uint8 and arr.strides == (1,)):
            arr = np.array(arr, dtype=np.uint8).ravel()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def adopt(cls, width: int, height: int, data: np.ndarray) -> "GrayImage":
        """An image that takes over `data`, an array nobody else can write
        through, such as a fresh result or a view of immutable `bytes`: a
        contiguous 1-D uint8 array is frozen in place, not copied."""
        return cls(width, height, _Owned(data))

    @classmethod
    def filled(cls, width: int, height: int, value: int) -> "GrayImage":
        return cls.adopt(width, height, np.full(width * height, value, dtype=np.uint8))

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
    return GrayImage.adopt(a.width, a.height, np.bitwise_xor(a.data, b.data))


# descriptor -> bytes.translate table of each transform, the only definition
# of the eight: reverse8 reverses a byte's bit order, rotate:K rotates it
# circularly left by K bits
_TABLES = {"reverse8": bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))} | {
    f"rotate:{k}": bytes(((v << k) | (v >> (8 - k))) & 0xFF for v in range(256)) for k in range(1, 8)
}


@dataclass(frozen=True)
class BitTransform:
    """Reversible per-pixel 8-bit transform applied to the noisy shares,
    named by the descriptor the CLI and the manifest use for it: `reverse8`
    or `rotate:K` with K one ASCII digit 1..7. Enrollment applies the
    transform and authentication its `inverse()`.
    """

    descriptor: str = "reverse8"

    def __post_init__(self) -> None:
        if not (isinstance(self.descriptor, str) and self.descriptor in _TABLES):
            raise ValueError(f"bad bit transform descriptor {self.descriptor!r}")

    def inverse(self) -> "BitTransform":
        """The transform that undoes this one: reverse8 is an involution, and
        rotating left by K is undone by rotating left by 8 - K."""
        if self.descriptor == "reverse8":
            return self
        return BitTransform(f"rotate:{8 - int(self.descriptor[-1])}")


REVERSE8 = BitTransform()


def bit_transform(img: GrayImage, transform: BitTransform = REVERSE8) -> GrayImage:
    """Apply the per-pixel transform to every pixel of the image.

    The transform's table is applied by `bytes.translate`, one byte per
    byte, so no pixel is widened to an index.
    """
    pixels = img.data.tobytes().translate(_TABLES[transform.descriptor])
    return GrayImage.adopt(img.width, img.height, np.frombuffer(pixels, dtype=np.uint8))
