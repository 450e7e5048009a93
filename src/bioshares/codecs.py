"""Image codecs: PGM (P2 ASCII and P5 binary, maxval <= 255) and uncompressed
BMP (8-bit palette or 24-bit BGR). The PGM writer always emits binary P5 with
maxval 255, so save/load round-trips are bit-exact. A P2 body is read by
numpy's text parser once comments are blanked and the body is cut at its first
stray byte; an error's offset is found from the parsed values."""

from __future__ import annotations

import os
import re
import struct
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


MAX_PIXELS = 2**26
"""The most pixels a decoder accepts (64 MP). Each is checked only once the
file is long enough to hold its pixels, and before any pixel array is built."""


def _too_large(width: int, height: int) -> str:
    return f"image of {width}x{height} pixels exceeds the limit of {MAX_PIXELS} pixels"


# PGM whitespace is the six ASCII bytes bytes.split() splits on; a '#'
# comment runs to the end of its line and counts as whitespace
_WS = b" \t\r\n\x0b\x0c"
_COMMENT = re.compile(rb"#[^\n]*")
_SPACE = re.compile(rb"(?:[%s]|%s)*" % (_WS, _COMMENT.pattern))
_STRAY = re.compile(rb"[^0-9%s]" % _WS)
_DIGITS = re.compile(rb"[0-9]+")
_TEXT = b"0123456789" + _WS
P5_HEADER = b"P5\n%d %d\n255\n"  # the header save_pgm writes, % (width, height)
_BMP_HEADER = struct.Struct("<10xIIiixxHI12xI")
_BLOCK = 1 << 16  # an image file's first read; a pipe is read in blocks of this size


# no PGM field needs more significant digits than 2**64 has; a longer token
# reads as _TOO_LONG, over every maxval, and is never converted digit by digit
_MAX_DIGITS = 20
_TOO_LONG = 10**_MAX_DIGITS


def _decimal(token: bytes) -> int:
    """Value of an ASCII digit run; _TOO_LONG past _MAX_DIGITS significant digits."""
    digits = token.lstrip(b"0")
    return int(digits or b"0") if len(digits) <= _MAX_DIGITS else _TOO_LONG


def _read_uint(buf: bytes, pos: int, what: str) -> tuple[int, int, int]:
    """Read a decimal token; returns (value, token_start, next_pos)."""
    start = _SPACE.match(buf, pos).end()
    token = _DIGITS.match(buf, start)
    if token is None:
        raise PgmError(f"malformed header: expected {what}", offset=start)
    value = _decimal(token[0])
    if value == _TOO_LONG:
        raise PgmError(f"malformed header: {what} has more than {_MAX_DIGITS} digits",
                       offset=start)
    return value, start, token.end()


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
        if not data[pos : pos + 1].isspace():
            raise PgmError("malformed header: missing whitespace after maxval", offset=pos)
        pos += 1
        available = len(data) - pos
        if available < need:
            raise PgmError(
                f"truncated pixel payload: expected {need} bytes, found {available}",
                offset=len(data),
            )
        if need > MAX_PIXELS:
            raise PgmError(_too_large(width, height), offset=wstart)
        # bytes(data) is data itself for bytes input, so this view is not a copy
        pixels = np.frombuffer(bytes(data), dtype=np.uint8, count=need, offset=pos)
        if maxval < 255:
            over = pixels > maxval
            if over.any():
                raise PgmError(
                    f"pixel value exceeds maxval {maxval}",
                    offset=pos + int(over.argmax()),
                )
        return GrayImage.adopt(width, height, pixels)

    if need > (len(data) - pos) // 2:  # each value takes a separator and a digit
        raise PgmError(f"truncated pixel payload: header asks for {need} values", offset=len(data))
    if need > MAX_PIXELS:
        raise PgmError(_too_large(width, height), offset=wstart)
    return GrayImage.adopt(width, height, _p2_values(data, pos, need, maxval))


def _p2_values(data: bytes, pos: int, need: int, maxval: int) -> np.ndarray:
    """The first `need` P2 values after byte `pos`, read by numpy's text
    parser. Comments are blanked to spaces, so offsets hold, and the body
    ends at the first byte that is neither a digit nor whitespace. On what is
    left numpy reads exactly the tokens bytes.split() gives, and a token past
    int64 reads as 2**63 - 1, above every maxval. The first value above
    maxval is reported at its token's offset before a short count is."""
    body = bytes(data[pos:])  # numpy parses only a bytes object
    if b"#" in body:
        body = _COMMENT.sub(lambda m: b" " * len(m[0]), body)
    if body.translate(None, _TEXT):
        body = body[: _STRAY.search(body).start()]
    # numpy reads a body of whitespace alone as one 0
    values = np.fromstring(b"" if body.isspace() else body, np.int64, sep=" ")[:need]
    if len(values) and values.max() > maxval:
        nth = int((values > maxval).argmax())
        del values  # free it for the token masks
        text = np.frombuffer(body, np.uint8)
        digit = np.zeros(len(text) + 1, bool)
        np.greater_equal(text, ord("0"), out=digit[1:])  # only digits and whitespace are left
        start = int(np.flatnonzero(digit[1:] > digit[:-1])[nth])
        value = _decimal(_DIGITS.match(body, start)[0])
        shown = value if value < _TOO_LONG else f"of more than {_MAX_DIGITS} digits"
        raise PgmError(f"pixel value {shown} exceeds maxval {maxval}", offset=pos + start)
    if len(values) < need:
        raise PgmError(f"truncated pixel payload: expected {need} values, found {len(values)}",
                       offset=len(data))
    return values.astype(np.uint8)


def save_pgm(img: GrayImage) -> bytes:
    """Encode as binary P5 with maxval 255; load_pgm(save_pgm(img)) == img."""
    return P5_HEADER % img.dims + img.data.tobytes()


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
    offset, header_size, width, raw_height, bpp, compression, colours = _BMP_HEADER.unpack_from(data)
    if header_size < 40:
        raise BmpError(f"unsupported BMP header size {header_size}")
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
    if len(data) < offset + need:
        raise BmpError("truncated pixel data")
    if width * height > MAX_PIXELS:
        raise BmpError(_too_large(width, height))
    raster = np.frombuffer(data, np.uint8, count=need, offset=offset).reshape(height, stride)
    if bottom_up:
        raster = raster[::-1]

    if bpp == 24:
        bgr = raster[:, : width * 3].reshape(height, width, 3).astype(np.uint32)
        gray = _int_luma(bgr[..., 2], bgr[..., 1], bgr[..., 0])
    else:
        count = colours or 256
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
    return GrayImage.adopt(width, height, gray.ravel())


def load_image(data: bytes) -> GrayImage:
    """Decode by sniffing the magic: PGM (P2/P5) or BMP."""
    if data[:2] in (b"P2", b"P5"):
        return load_pgm(data)
    if data[:2] == b"BM":
        return load_bmp(data)
    raise PgmError("unrecognised image format (expected PGM or BMP)", offset=0)


def read_at_most(file, limit: int) -> bytes:
    """Up to `limit` bytes of a path, or of an open binary file from its position.
    A seekable file is asked for no more than it holds, as read(k) sets aside
    all k bytes first; a pipe or FIFO is read in blocks."""
    if not hasattr(file, "read"):
        with open(file, "rb") as f:
            return read_at_most(f, limit)
    if file.seekable():
        return file.read(max(0, min(limit, os.fstat(file.fileno()).st_size - file.tell())))
    data = bytearray()
    while len(data) < limit and (block := file.read(min(_BLOCK, limit - len(data)))):
        data += block
    return bytes(data)


def _extent(head: bytes) -> int:
    """How far into a file the image that `head` begins may reach: a BMP's
    pixels or palette, whichever ends later; a PGM's first block plus 1 (P5)
    or 64 (P2) bytes a pixel, or that block alone when the width and height
    do not end within it."""
    if head[:2] == b"BM" and len(head) >= 54:
        offset, header_size, width, height, bpp, _, colours = _BMP_HEADER.unpack_from(head)
        pixels = offset + (bpp * width + 31) // 32 * 4 * abs(height)
        return max(pixels, 14 + header_size + 4 * (colours or 256))
    try:
        width, _, pos = _read_uint(head, 2, "width")
        height, _, pos = _read_uint(head, pos, "height")
    except PgmError:  # the decoder reports it from `head`
        return 0
    per_pixel = {b"P5": 1, b"P2": 64}.get(head[:2], 0) if pos < _BLOCK else 0
    return _BLOCK + per_pixel * width * height


def load_image_file(path: str | Path) -> GrayImage:
    """Decode an image file, reading its first _BLOCK bytes and then no
    further than _extent."""
    with open(path, "rb") as f:
        data = read_at_most(f, _BLOCK)
        end = _extent(data)
        data += read_at_most(f, end - len(data))
    if data[:2] == b"P2" and len(data) == end:  # a value cut at the limit is dropped
        data = data[: len(data.rstrip(b"0123456789"))]
    return load_image(data)


def write_pgm_file(img: GrayImage, path: str | Path) -> None:
    Path(path).write_bytes(save_pgm(img))
