"""Image codecs: PGM (P2 ASCII and P5 binary, maxval <= 255) and uncompressed
BMP (8-bit palette or 24-bit BGR). The PGM writer always emits binary P5 with
maxval 255, so save/load round-trips are bit-exact."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .images import GrayImage


class PgmError(ValueError):
    """Malformed PGM input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class BmpError(ValueError):
    """Malformed or unsupported BMP input."""


_WS = frozenset(b" \t\r\n\x0b\x0c")


def _skip_space(buf: bytes, pos: int) -> int:
    # '#' comments run to end of line and count as whitespace
    n = len(buf)
    while pos < n:
        b = buf[pos]
        if b in _WS:
            pos += 1
        elif b == 0x23:
            while pos < n and buf[pos] != 0x0A:
                pos += 1
        else:
            break
    return pos


def _read_uint(buf: bytes, pos: int, what: str) -> tuple[int, int, int]:
    """Read a decimal token; returns (value, token_start, next_pos)."""
    pos = _skip_space(buf, pos)
    start = pos
    n = len(buf)
    while pos < n and 0x30 <= buf[pos] <= 0x39:
        pos += 1
    if pos == start:
        raise PgmError(f"malformed header: expected {what}", offset=start)
    return int(buf[start:pos]), start, pos


def load_pgm(data: bytes) -> GrayImage:
    """Decode a P2 or P5 PGM with maxval <= 255."""
    if len(data) < 2 or data[0:1] != b"P" or data[1:2] not in (b"2", b"5"):
        raise PgmError("not a P2/P5 PGM", offset=0)
    binary = data[1:2] == b"5"
    width, wstart, pos = _read_uint(data, 2, "width")
    height, hstart, pos = _read_uint(data, pos, "height")
    maxval, mstart, pos = _read_uint(data, pos, "maxval")
    if width <= 0:
        raise PgmError(f"malformed header: width {width}", offset=wstart)
    if height <= 0:
        raise PgmError(f"malformed header: height {height}", offset=hstart)
    if maxval <= 0:
        raise PgmError(f"malformed header: maxval {maxval}", offset=mstart)
    if maxval > 255:
        raise PgmError(f"maxval {maxval} exceeds 255", offset=mstart)
    need = width * height

    if binary:
        if pos >= len(data) or data[pos] not in _WS:
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

    if need > (len(data) - pos) // 2:  # each value takes a separator and a digit
        raise PgmError(f"truncated pixel payload: header asks for {need} values", offset=len(data))
    values = np.empty(need, dtype=np.uint8)
    for i in range(need):
        try:
            v, vstart, pos = _read_uint(data, pos, "pixel value")
        except PgmError:
            raise PgmError(
                f"truncated pixel payload: expected {need} values, found {i}",
                offset=len(data),
            ) from None
        if v > maxval:
            raise PgmError(f"pixel value {v} exceeds maxval {maxval}", offset=vstart)
        values[i] = v
    return GrayImage(width, height, values)


def save_pgm(img: GrayImage) -> bytes:
    """Encode as binary P5 with maxval 255; load_pgm(save_pgm(img)) == img."""
    return b"P5\n%d %d\n255\n" % (img.width, img.height) + img.data.tobytes()


def _int_luma(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    # round(0.299 R + 0.587 G + 0.114 B) in exact integer arithmetic
    return ((299 * r + 587 * g + 114 * b + 500) // 1000).astype(np.uint8)


def load_bmp(data: bytes) -> GrayImage:
    """Decode an uncompressed BMP (BITMAPINFOHEADER or later, 8 or 24 bpp).

    24-bit pixels are converted with the integer luma above; 8-bit pixels go
    through the luma of their palette entry.
    """
    if len(data) < 54:
        raise BmpError("truncated BMP header")
    if data[0:2] != b"BM":
        raise BmpError("not a BMP file")
    pixel_offset = int.from_bytes(data[10:14], "little")
    header_size = int.from_bytes(data[14:18], "little")
    if header_size < 40:
        raise BmpError(f"unsupported BMP header size {header_size}")
    width = int.from_bytes(data[18:22], "little", signed=True)
    raw_height = int.from_bytes(data[22:26], "little", signed=True)
    bpp = int.from_bytes(data[28:30], "little")
    compression = int.from_bytes(data[30:34], "little")
    clr_used = int.from_bytes(data[46:50], "little")
    if compression != 0:
        raise BmpError(f"unsupported compression {compression}; only uncompressed BI_RGB is handled")
    if bpp not in (8, 24):
        raise BmpError(f"unsupported bit depth {bpp}; expected 8 or 24")
    if width <= 0 or raw_height == 0:
        raise BmpError(f"bad dimensions {width}x{raw_height}")
    height = abs(raw_height)
    bottom_up = raw_height > 0
    stride = ((bpp * width + 31) // 32) * 4
    need = stride * height
    if len(data) < pixel_offset + need:
        raise BmpError("truncated pixel data")
    raster = np.frombuffer(data, np.uint8, count=need, offset=pixel_offset).reshape(height, stride)
    if bottom_up:
        raster = raster[::-1]

    if bpp == 24:
        bgr = raster[:, : width * 3].reshape(height, width, 3).astype(np.uint32)
        gray = _int_luma(bgr[..., 2], bgr[..., 1], bgr[..., 0])
    else:
        count = clr_used or 256
        pal_off = 14 + header_size
        if len(data) < pal_off + 4 * count:
            raise BmpError("truncated palette")
        pal = np.frombuffer(data, np.uint8, count=4 * count, offset=pal_off).reshape(count, 4)
        pal = pal.astype(np.uint32)
        pal_gray = _int_luma(pal[:, 2], pal[:, 1], pal[:, 0])
        idx = raster[:, :width]
        if int(idx.max()) >= count:
            raise BmpError("palette index out of range")
        gray = pal_gray[idx]
    return GrayImage(width, height, gray.ravel())


def load_image(data: bytes) -> GrayImage:
    """Decode by sniffing the magic: PGM (P2/P5) or BMP."""
    if data[:2] in (b"P2", b"P5"):
        return load_pgm(data)
    if data[:2] == b"BM":
        return load_bmp(data)
    raise PgmError("unrecognised image format (expected PGM or BMP)", offset=0)


def load_image_file(path: str | Path) -> GrayImage:
    return load_image(Path(path).read_bytes())


def write_pgm_file(img: GrayImage, path: str | Path) -> None:
    Path(path).write_bytes(save_pgm(img))
