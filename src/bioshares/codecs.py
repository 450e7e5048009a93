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
"""The most pixels a decoder accepts (64 MP). It is judged from the header,
before any pixel byte is read or parsed."""


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
    """Read a decimal token, as if `buf` ended at _BLOCK; returns (value, token_start, next_pos)."""
    start = _SPACE.match(buf, pos, _BLOCK).end()
    token = _DIGITS.match(buf, start, _BLOCK)
    if token is None:
        raise PgmError(f"malformed header: expected {what}", offset=start)
    value = _decimal(token[0])
    if value == _TOO_LONG:
        raise PgmError(f"malformed header: {what} has more than {_MAX_DIGITS} digits",
                       offset=start)
    return value, start, token.end()


def _pgm_header(data: bytes) -> tuple[int, int, int, int]:
    """Width, height and maxval of a P2 or P5 PGM, and the offset just past
    maxval. Every field and MAX_PIXELS are judged here, on the first _BLOCK
    bytes alone but for the last check: that maxval does not run on past them."""
    if data[:2] not in (b"P2", b"P5"):
        raise PgmError("not a P2/P5 PGM", offset=0)
    width, wstart, pos = _read_uint(data, 2, "width")
    height, hstart, pos = _read_uint(data, pos, "height")
    maxval, mstart, pos = _read_uint(data, pos, "maxval")
    for what, value, start in (("width", width, wstart), ("height", height, hstart),
                               ("maxval", maxval, mstart)):
        if value <= 0:
            raise PgmError(f"malformed header: {what} {value}", offset=start)
    if maxval > 255:
        raise PgmError(f"maxval {maxval} exceeds 255", offset=mstart)
    if width * height > MAX_PIXELS:
        raise PgmError(_too_large(width, height), offset=wstart)
    if data[pos : pos + 1].isdigit():  # only at _BLOCK is a token cut
        raise PgmError(f"malformed header: maxval runs past byte {_BLOCK}", offset=mstart)
    return width, height, maxval, pos


def load_pgm(data: bytes) -> GrayImage:
    """Decode a P2 or P5 PGM with maxval <= 255."""
    width, height, maxval, pos = _pgm_header(data)
    need = width * height
    if data[1:2] == b"5":
        if not data[pos : pos + 1].isspace():
            raise PgmError("malformed header: missing whitespace after maxval", offset=pos)
        pos += 1
        available = len(data) - pos
        if available < need:
            raise PgmError(
                f"truncated pixel payload: expected {need} bytes, found {available}",
                offset=len(data),
            )
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


def _int_luma(bgr: np.ndarray) -> np.ndarray:
    # round(0.299 R + 0.587 G + 0.114 B) in exact integer arithmetic, from the last axis's B, G, R
    bgr = bgr.astype(np.uint32)
    return ((299 * bgr[..., 2] + 587 * bgr[..., 1] + 114 * bgr[..., 0] + 500) // 1000).astype(np.uint8)


def _bmp_header(data: bytes) -> tuple[int, int, int, slice, slice]:
    """Width, signed height and bit depth of an uncompressed BMP, and the slices
    of `data` its pixels and palette (empty at 24 bits) take. Every field and
    MAX_PIXELS are judged here; the pixels must start, and the palette end, by _BLOCK."""
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
    if width * height > MAX_PIXELS:
        raise BmpError(_too_large(width, height))
    pixels = slice(offset, offset + (bpp * width + 31) // 32 * 4 * height)
    palette = slice(14 + header_size, (14 + header_size + 4 * (colours or 256)) if bpp == 8 else 0)
    if (end := max(offset, palette.stop)) > _BLOCK:
        raise BmpError(f"header of {end} bytes exceeds the limit of {_BLOCK} bytes")
    return width, raw_height, bpp, pixels, palette


def load_bmp(data: bytes) -> GrayImage:
    """Decode an uncompressed BMP (BITMAPINFOHEADER or later, 8 or 24 bpp).

    24-bit pixels are converted with the integer luma above; 8-bit pixels go
    through the luma of their palette entry.
    """
    width, raw_height, bpp, pixels, palette = _bmp_header(data)
    if len(data) < pixels.stop:
        raise BmpError("truncated pixel data")
    height = abs(raw_height)
    raster = np.frombuffer(data, np.uint8)[pixels].reshape(height, -1)
    if raw_height > 0:  # bottom-up rows
        raster = raster[::-1]

    if bpp == 24:
        gray = _int_luma(raster[:, : width * 3].reshape(height, width, 3))
    else:
        if len(data) < palette.stop:
            raise BmpError("truncated palette")
        pal_gray = _int_luma(np.frombuffer(data[palette], np.uint8).reshape(-1, 4))
        idx = raster[:, :width]
        if int(idx.max()) >= len(pal_gray):
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
    """How far into a file the image that `head`, its first _BLOCK bytes, begins may reach:
    a BMP's or P5's pixel end, or a P2's first block plus 64 bytes a pixel; 0 if refused."""
    try:
        if head[:2] == b"BM":
            return _bmp_header(head)[3].stop  # the end of the pixel slice
        width, height, _, pos = _pgm_header(head)
    except (PgmError, BmpError):  # the decoder reports it from `head`
        return 0
    return pos + 1 + width * height if head[1:2] == b"5" else _BLOCK + 64 * width * height


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


def write_file(path: str | Path, data: bytes) -> None:
    """Write `data` to a new file beside `path` (made with its parent directories)
    and rename it over `path`: a reader sees the old file or the new one, and a
    link at `path` is replaced. The temporary `.<16 hex digits>.tmp` goes on any exception."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.parent / f".{os.urandom(8).hex()}.tmp"
    file = open(temp, "xb")  # O_CREAT | O_EXCL at mode 0o666, less the umask
    try:
        with file:
            file.write(data)
        os.replace(temp, path)
    except BaseException:  # an interrupt too
        os.unlink(temp)
        raise


def write_pgm_file(img: GrayImage, path: str | Path) -> None:
    write_file(path, save_pgm(img))
