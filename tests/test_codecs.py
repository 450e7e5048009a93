import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioshares import (
    BmpError,
    GrayImage,
    PgmError,
    load_bmp,
    load_image,
    load_image_file,
    load_pgm,
    save_pgm,
    textured_image,
    write_pgm_file,
)
from bioshares import codecs as codecs_module
from bioshares.codecs import read_at_most, write_file

from helpers import build_bmp_8bit, build_bmp_24bit, gray_images, load_pgm_token_loop, traced

P2_BYTES_PER_INPUT_BYTE = 5
"""Budget for the traced peak of a P2 decode or short-count rejection, per
byte of the file; a 320x240 file measures 3.5 and 3.3."""


class TestPgmReader:
    def test_plain_p2(self):
        img = load_pgm(b"P2 2 2 255 0 255 128 64")
        assert img == GrayImage(2, 2, [0, 255, 128, 64])

    def test_p5_orl_sized(self):
        data = b"P5\n112 94\n255\n" + bytes(range(256)) * 41 + bytes(32)
        img = load_pgm(data)
        assert img.dims == (112, 94)
        assert img.pixel_count == 10528

    def test_p5_truncated_payload(self):
        with pytest.raises(PgmError, match="truncated pixel payload") as err:
            load_pgm(b"P5\n2 2\n255\n" + bytes(3))
        assert err.value.offset is not None

    def test_p2_truncated_payload(self):
        with pytest.raises(PgmError, match="truncated pixel payload"):
            load_pgm(b"P2 2 2 255 0 1 2")

    def test_p2_pixel_count_bounded_by_payload(self):
        def refuse(data):
            with pytest.raises(PgmError) as err:
                load_pgm(data)
            return str(err.value)

        # 10**12 pixels announced, 7 payload bytes: refused from the header
        message, peak = traced(refuse, b"P2\n1000000 1000000\n255\n1 2 3\n")
        assert message == ("image of 1000000x1000000 pixels exceeds the limit of 67108864"
                           " pixels (byte offset 3)")
        assert peak < 64 << 10
        # within the ceiling the values are counted, and still nothing of the
        # header's size is allocated
        message, peak = traced(refuse, b"P2\n8192 8192\n255\n1 2 3\n")
        assert message == ("truncated pixel payload: expected 67108864 values, found 3"
                           " (byte offset 23)")
        assert peak < 64 << 10
        # the densest payload, one separator and one digit per value, still decodes
        assert load_pgm(b"P2 3 1 9 1 2 3") == GrayImage(3, 1, [1, 2, 3])

    def test_p2_memory_budget(self):
        # a parse that makes one Python object per value peaks near 15 bytes
        # per input byte, so the budget catches a return to one
        _, data = iitd_sized_p2()
        short = data.rstrip().rsplit(b" ", 1)[0]  # the last value removed

        def reject_short():
            with pytest.raises(PgmError, match="expected 76800 values, found 76799"):
                load_pgm(short)

        for decode in (lambda: load_pgm(data), reject_short):
            assert traced(decode)[1] < P2_BYTES_PER_INPUT_BYTE * len(data)

    def test_numpy_text_parser_contract(self):
        # _p2_values relies on numpy reading a body of digits and PGM
        # whitespace as bytes.split() and int() would, saturating past int64
        parsed = np.fromstring(b"9" * 5000 + b"\x0b1\x0c2 3", np.int64, sep=" ")
        assert parsed.tolist() == [2**63 - 1, 1, 2, 3], (
            "numpy's text parser no longer saturates long tokens or splits on "
            "\\x0b/\\x0c; codecs._p2_values depends on both")

    def test_comments_tolerated(self):
        img = load_pgm(b"P2 # comment\n# another full line\n2 1 # maxval next\n255\n3 4")
        assert img == GrayImage(2, 1, [3, 4])
        img5 = load_pgm(b"P5 # binary\n1 1\n255\n\x07")
        assert img5 == GrayImage(1, 1, [7])

    def test_maxval_too_large(self):
        with pytest.raises(PgmError, match="maxval 65535 exceeds 255"):
            load_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_small_maxval_accepted_and_enforced(self):
        assert load_pgm(b"P2 2 1 15 0 15") == GrayImage(2, 1, [0, 15])
        with pytest.raises(PgmError, match="exceeds maxval 15"):
            load_pgm(b"P2 2 1 15 0 16")
        with pytest.raises(PgmError, match="exceeds maxval 15"):
            load_pgm(b"P5 2 1 15 " + bytes([0, 16]))

    def test_malformed_headers(self):
        with pytest.raises(PgmError, match="not a P2/P5"):
            load_pgm(b"P6 1 1 255 abc")
        with pytest.raises(PgmError, match="expected width"):
            load_pgm(b"P5  ")
        with pytest.raises(PgmError, match="expected maxval"):
            load_pgm(b"P5 2 2")
        with pytest.raises(PgmError, match="width 0"):
            load_pgm(b"P5 0 2 255 ")

    def test_digit_runs_past_int_limit(self):
        # 5,000 digits is past int()'s default limit of 4,300; leading zeros
        # are dropped, and a value of more than 20 digits is never converted
        assert load_pgm(b"P2 2 1 255 " + b"0" * 5000 + b"7 1") == GrayImage(2, 1, [7, 1])
        assert load_pgm(b"P2 " + b"0" * 5000 + b"2 1 255 7 1") == GrayImage(2, 1, [7, 1])
        with pytest.raises(PgmError,
                           match="pixel value of more than 20 digits exceeds maxval 255") as err:
            load_pgm(b"P2 2 1 255 7 " + b"9" * 5000)
        assert err.value.offset == 13
        for field, data in [("width", b"P5 " + b"1" * 5000 + b" 1 255 "),
                            ("height", b"P5 1 " + b"1" * 5000 + b" 255 "),
                            ("maxval", b"P5 1 1 " + b"1" * 5000 + b" ")]:
            with pytest.raises(PgmError, match=f"{field} has more than 20 digits") as err:
                load_pgm(data)
            assert err.value.offset == data.index(b"1" * 5000)

    def test_twenty_significant_digits_still_read_exactly(self):
        with pytest.raises(PgmError, match="pixel value 99999999999999999999 exceeds"):
            load_pgm(b"P2 1 1 255 000" + b"9" * 20)
        with pytest.raises(PgmError, match="pixel value of more than 20 digits exceeds"):
            load_pgm(b"P2 1 1 255 1" + b"0" * 20)
        with pytest.raises(PgmError, match="image of 10000000000000000000x1 pixels exceeds"):
            load_pgm(b"P2 1" + b"0" * 19 + b" 1 255 1")

    def test_error_carries_offset(self):
        # maxval token starts at byte 7 of b"P5\n1 1\n300\n..."
        with pytest.raises(PgmError) as err:
            load_pgm(b"P5\n1 1\n300\n\x00")
        assert err.value.offset == 7
        assert "byte offset 7" in str(err.value)


def decode_outcome(decode, data):
    """Dims and pixels, or the class, text and offset of what was raised."""
    try:
        img = decode(data)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return img.dims, img.data.tobytes()


WHITESPACE = st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c"])
STRAY = st.sampled_from([b"a", b"x", b"-", b"+", b"_", b".", b"\x00", b"\x1c", b"\x85", b"\xa0"])
COMMENT = st.builds(
    lambda text, end: b"#" + b"".join(text) + end,
    st.lists(st.one_of(WHITESPACE.filter(lambda c: c != b"\n"), STRAY,
                       st.sampled_from([b"#", b"7", b"255"])), max_size=5),
    st.sampled_from([b"\n", b"\n", b"\n", b""]),  # b"": a comment that runs to the end
)
SEPARATOR = st.one_of(st.lists(WHITESPACE, min_size=1, max_size=3).map(b"".join), COMMENT)
HEADER_SEPARATOR = st.one_of(  # a header comment that ends its line
    st.lists(WHITESPACE, min_size=1, max_size=3).map(b"".join),
    COMMENT.map(lambda c: c if c.endswith(b"\n") else c + b"\n"),
)
VALUE = st.integers(0, 300).map(lambda v: b"%d" % v)  # above any maxval <= 255 at times
TOKEN = st.one_of(
    VALUE,
    st.builds(lambda zeros, v: b"0" * zeros + v, st.integers(1, 3), VALUE),
    st.builds(lambda v, c: v + c, VALUE, STRAY),  # 12a-style
    STRAY,
)


@st.composite
def pgm_files(draw):
    """PGM files of up to 4x4 pixels. Headers mix separators, comments and
    out-of-range sizes; P2 bodies mix values, leading zeros, values above
    maxval, every whitespace byte, comments and stray bytes."""
    kind = draw(st.sampled_from(["p2"] * 6 + ["p5", "odd-header"]))
    odd = kind == "odd-header"
    w, h = draw(st.integers(0 if odd else 1, 4)), draw(st.integers(0 if odd else 1, 4))
    maxval = draw(st.sampled_from([0, 1, 9, 15, 200, 255, 256] if odd else [1, 9, 15, 200, 255]))
    seps = [draw(SEPARATOR if odd else HEADER_SEPARATOR) for _ in range(3)]
    header = b"%s%d%s%d%s%d" % (seps[0], w, seps[1], h, seps[2], maxval)
    if kind == "p5":  # a P5 payload after one separator byte
        head = draw(st.one_of(WHITESPACE, STRAY))
        return b"P5" + header + head + draw(st.binary(min_size=w * h - 1, max_size=w * h + 1))
    if draw(st.booleans()):  # enough values within maxval, so most of these decode
        token = st.integers(0, maxval).map(lambda v: b"%d" % v)
        count = w * h + draw(st.integers(0, 2))
    else:
        token, count = TOKEN, draw(st.integers(0, w * h + 3))
    pairs = draw(st.lists(st.tuples(SEPARATOR, token), min_size=count, max_size=count))
    tail = draw(st.one_of(st.just(b""), SEPARATOR, st.builds(bytes.__add__, SEPARATOR, TOKEN)))
    return b"P2" + header + b"".join(s + t for s, t in pairs) + tail


@st.composite
def long_p2_files(draw):
    """P2 files of up to 64x64 pixels, mostly values within maxval, so the
    whole-array parse sees long runs. A few tokens and separators are swapped
    for leading zeros, values above maxval, comments and stray bytes, and the
    last value is sometimes missing."""
    w, h = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    maxval = draw(st.sampled_from([1, 9, 99, 200, 255]))
    raw = draw(st.binary(min_size=w * h, max_size=w * h))
    tokens = [b"%d" % (v % (maxval + 1)) for v in raw]
    seps = [b" \t\r\n\x0b\x0c"[v % 6:v % 6 + 1] for v in raw[::-1]]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, w * h - 1))
        if draw(st.booleans()):
            tokens[at] = draw(TOKEN)
        else:
            seps[at] = draw(SEPARATOR)
    count = w * h - draw(st.integers(0, 1))
    header = b"P2\n%d %d\n%d" % (w, h, maxval)
    return header + b"".join(s + t for s, t in zip(seps[:count], tokens[:count]))


def iitd_sized_p2():
    """Random 320x240 pixels and their P2 file, one text row per image row."""
    rng = np.random.default_rng(7)
    values = rng.integers(0, 256, 320 * 240)
    rows = (b" ".join(b"%d" % v for v in values[r * 320:(r + 1) * 320]) for r in range(240))
    return values, b"P2\n# generated\n320 240\n255\n" + b"\n".join(rows) + b"\n"


class TestAgainstTokenLoop:
    """The regex header and whole-array P2 reader decode, or fail, exactly as
    the reader that takes one token at a time."""

    @given(pgm_files())
    @settings(max_examples=500)
    def test_same_pixels_or_same_error(self, data):
        assert decode_outcome(load_pgm, data) == decode_outcome(load_pgm_token_loop, data)

    @pytest.mark.parametrize("data", [
        b"P2 3 1 255 1 2 3 trailing junk",  # values past the last pixel are not read
        b"P2 3 1 255 1 #c 2#\r3\n3",  # comments end at a newline only
        b"P2 2 2 9 1 2 3a 4",  # a token ends at a stray byte: 3 of 4 values
        b"P2 2 2 9 1 x 10 4",  # the stray byte ends the values before 10 is read
        b"P2 2 2 9 1 10 3",  # over maxval before a short count
        b"P2 2 1 255 " + b"7" * 5000 + b" 1",  # past int()'s digit limit
        b"P2 2 1 9 10 " + b"7" * 5000,  # over maxval reported first, in order
        b"P2 2 1 255 " + b"0" * 4000 + b"12 3",
        b"P2 2 1 255 " + b"0" * 5000 + b"7 1",  # leading zeros past int()'s limit
        b"P2 2 1 255 1 " + b"0" * 4000 + b"9" * 21,  # over 20 digits, within the limit
        b"P2 2 1 255 " + b"9" * 20 + b" 1",  # 20 digits are converted
        b"P2 2 2 9 1 " + b"9" * 5000 + b" 10 x",  # the first value over maxval is reported
        b"P2 " + b"0" * 5000 + b"1 1 255 3",
        b"P2 1 " + b"2" * 5000 + b" 255 3",
        b"P5 1 1 " + b"0" * 5000 + b"255 \x07",
        b"P5 1 1 " + b"2" * 21 + b" \x07",
        b"P2 2 1 255 007 000",  # leading zeros within three digits
        b"P2 1 1 255 0255",  # four digits, the first a zero: within maxval
        b"P2 1 1 255 0256",  # four digits, the first a zero: over maxval
        b"P2 1 1 255 " + b"0" * 30 + b"255",
        b"P2 2 1 255 7 01000",  # a nonzero digit before the last three
        b"P2 2 1 255 7 2 12345",  # past the last pixel, so not read
        b"P2 2 1 255 7 256",  # three digits over maxval
        b"P2 3 1 9 9 0 9",  # equal to maxval
        b"P2 2 1 255 7 200",  # the last value ends at the end of the file
        b"P2 1 1 255 \t\r\n\x0b\x0c ",  # a body of whitespace only
        b"P2 6 1 255\n1 2\t3\r4\n5\x0b6\x0c",  # every whitespace byte separates
        b"P2 2 1 255 12#note 7\n34",  # a comment between two values
        # int64 boundaries, where a parser that wraps would differ from one that saturates
        *(b"P2 2 1 255 %d 1" % v for v in (2**63 - 1, 2**63, 2**64 - 1, 2**64,
                                           10**19 - 1, 10**19)),
        *(b"P2 2 1 255 1 %d" % v for v in (2**63 - 1, 2**63)),
    ])
    def test_edge_cases(self, data):
        assert decode_outcome(load_pgm, data) == decode_outcome(load_pgm_token_loop, data)

    @given(long_p2_files())
    @settings(max_examples=100, deadline=None)
    def test_long_bodies(self, data):
        assert decode_outcome(load_pgm, data) == decode_outcome(load_pgm_token_loop, data)

    def test_iitd_sized_file(self):
        values, data = iitd_sized_p2()
        assert load_pgm(data) == GrayImage(320, 240, values)
        assert decode_outcome(load_pgm, data) == decode_outcome(load_pgm_token_loop, data)


class TestPgmWriter:
    def test_minimal_image(self):
        assert save_pgm(GrayImage(1, 1, [0])) == b"P5\n1 1\n255\n\x00"

    def test_payload_is_raw_rowmajor(self):
        assert save_pgm(GrayImage(2, 1, [255, 0])).endswith(b"\n255\n\xff\x00")

    @given(gray_images(max_side=16))
    def test_round_trip(self, img):
        assert load_pgm(save_pgm(img)) == img

    def test_round_trip_64x64(self):
        rng = np.random.default_rng(123)
        img = GrayImage(64, 64, rng.integers(0, 256, 4096, dtype=np.uint8))
        assert load_pgm(save_pgm(img)) == img

    def test_file_round_trip(self, tmp_path):
        img = GrayImage(5, 3, np.arange(15, dtype=np.uint8))
        path = tmp_path / "img.pgm"
        write_pgm_file(img, path)
        assert load_image_file(path) == img


class TestBmpReader:
    def test_8bit_gray_palette(self):
        indices = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
        img = load_bmp(build_bmp_8bit(indices))
        assert img.dims == (4, 3)
        assert img.rows().tolist() == indices.tolist()

    def test_8bit_iitd_sized(self):
        indices = np.zeros((240, 320), dtype=np.uint8)
        img = load_bmp(build_bmp_8bit(indices))
        assert img.dims == (320, 240)

    def test_8bit_nontrivial_palette(self):
        # palette entry 0 -> mid gray via luma, entry 1 -> white
        palette = [(100, 150, 200)] + [(255, 255, 255)] * 255
        indices = np.array([[0, 1]], dtype=np.uint8)
        img = load_bmp(build_bmp_8bit(indices, palette=palette))
        # round(0.299*100 + 0.587*150 + 0.114*200) = round(140.75) = 141
        assert img.data.tolist() == [141, 255]

    def test_24bit_equal_channels(self):
        rgb = np.full((2, 2, 3), 77, dtype=np.uint8)
        img = load_bmp(build_bmp_24bit(rgb))
        assert img == GrayImage.filled(2, 2, 77)

    def test_24bit_luma_rounding(self):
        rgb = np.array([[[255, 0, 0], [0, 255, 0], [0, 0, 255]]], dtype=np.uint8)
        img = load_bmp(build_bmp_24bit(rgb))
        # round(0.299*255)=76, round(0.587*255)=150, round(0.114*255)=29
        assert img.data.tolist() == [76, 150, 29]

    def test_bottom_up_and_top_down_agree(self):
        rng = np.random.default_rng(0)
        rgb = rng.integers(0, 256, (5, 3, 3), dtype=np.uint8)
        assert load_bmp(build_bmp_24bit(rgb)) == load_bmp(build_bmp_24bit(rgb, top_down=True))
        idx = rng.integers(0, 256, (5, 3), dtype=np.uint8)
        assert load_bmp(build_bmp_8bit(idx)) == load_bmp(build_bmp_8bit(idx, top_down=True))

    def test_row_padding_handled(self):
        # width 3 forces 1 padding byte per row at 8 bpp, 3 at 24 bpp
        idx = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8)
        assert load_bmp(build_bmp_8bit(idx)).rows().tolist() == idx.tolist()

    def test_compressed_rejected(self):
        data = build_bmp_8bit(np.zeros((2, 2), dtype=np.uint8), compression=1)
        with pytest.raises(BmpError, match="compression"):
            load_bmp(data)

    def test_unsupported_depth_rejected(self):
        data = bytearray(build_bmp_8bit(np.zeros((2, 2), dtype=np.uint8)))
        data[28:30] = (4).to_bytes(2, "little")
        with pytest.raises(BmpError, match="bit depth"):
            load_bmp(bytes(data))

    def test_truncated_pixels_rejected(self):
        data = build_bmp_8bit(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(BmpError, match="truncated"):
            load_bmp(data[:-8])

    def test_not_a_bmp(self):
        with pytest.raises(BmpError, match="not a BMP"):
            load_bmp(b"XX" + bytes(60))


def _patched_bmp(offset, value):
    """A valid 2x2 8-bit BMP with one little-endian int32 header field replaced."""
    data = bytearray(build_bmp_8bit(np.zeros((2, 2), dtype=np.uint8)))
    data[offset : offset + 4] = value.to_bytes(4, "little", signed=True)
    return bytes(data)


# one case per decoder error branch no other test reaches
ERROR_BRANCHES = [
    (_patched_bmp(14, 12), BmpError, r"^unsupported BMP header size 12$"),
    (_patched_bmp(18, 0), BmpError, r"^bad dimensions 0x2$"),
    (_patched_bmp(18, -2), BmpError, r"^bad dimensions -2x2$"),
    (_patched_bmp(22, 0), BmpError, r"^bad dimensions 2x0$"),
    # two palette entries on file, but clr_used 0 means 256 are expected
    (build_bmp_8bit(np.zeros((2, 2), dtype=np.uint8), palette=[(0, 0, 0), (9, 9, 9)]),
     BmpError, r"^truncated palette$"),
    (build_bmp_8bit(np.array([[0, 1], [2, 0]], dtype=np.uint8),
                    palette=[(0, 0, 0), (9, 9, 9)], clr_used=2),
     BmpError, r"^palette index out of range$"),
    (b"P5 1 1 0\n\x00", PgmError, r"^malformed header: maxval 0 \(byte offset 7\)$"),
]
ERROR_BRANCH_IDS = ["bmp-header-size", "bmp-zero-width", "bmp-negative-width",
                    "bmp-zero-height", "bmp-truncated-palette", "bmp-palette-index",
                    "pgm-maxval-zero"]


@pytest.mark.parametrize("data, error, message", ERROR_BRANCHES, ids=ERROR_BRANCH_IDS)
def test_decoder_error_branch(data, error, message):
    with pytest.raises(error, match=message):
        load_image(data)


class TestSniffing:
    def test_dispatch(self):
        img = GrayImage(2, 1, [9, 8])
        assert load_image(save_pgm(img)) == img
        bmp = build_bmp_8bit(np.array([[9, 8]], dtype=np.uint8))
        assert load_image(bmp) == img

    def test_unknown_magic(self):
        with pytest.raises(PgmError, match="unrecognised"):
            load_image(b"\x89PNG....")


def _p2_bytes(img):
    return b"P2\n%d %d\n255\n" % img.dims + b" ".join(b"%d" % v for v in img.data) + b"\n"


FUZZ_SEEDS = [
    _p2_bytes(GrayImage(3, 2, [0, 7, 255, 12, 9, 100])),
    save_pgm(GrayImage(3, 2, [0, 7, 255, 12, 9, 100])),
    b"P2 # c\n2 2\n15\n0 15\n# end\n3 4\n",
    build_bmp_8bit(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8)),
    build_bmp_8bit(np.array([[0, 1], [1, 0]], dtype=np.uint8),
                   palette=[(10, 20, 30), (200, 100, 0)], clr_used=2),
    build_bmp_24bit(np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3) * 13),
]
FUZZ_MAX_BYTES = 16_384
DIGIT_RUN = st.builds(
    lambda digit, count, tail: digit * count + tail,
    st.sampled_from([b"0", b"9", b"1"]),
    st.one_of(st.integers(1, 25), st.integers(4290, 6000)),  # around int()'s 4,300-digit limit
    st.sampled_from([b"", b"7", b"256", b" "]),
)


@st.composite
def mutated_images(draw):
    """A valid P2, P5 or BMP file with a few byte edits, truncations,
    repeats and inserted digit runs, at most FUZZ_MAX_BYTES long."""
    data = bytearray(draw(st.sampled_from(FUZZ_SEEDS)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["set", "insert", "digits", "delete", "truncate", "repeat"]))
        if edit == "set" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif edit == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif edit == "digits":
            data[at:at] = draw(DIGIT_RUN)
        elif edit == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        elif edit == "truncate":
            del data[at:]
        elif edit == "repeat":
            data[at:at] = data[at:at + draw(st.integers(1, 64))]
    return bytes(data[:FUZZ_MAX_BYTES])


FUZZ_PEAK_BYTES_PER_INPUT_BYTE = 16
FUZZ_PEAK_FLOOR = 64 * 1024
"""Budget for the traced peak of one fuzzed decode: a decoder allocates in
proportion to the bytes it is given, never to the size a header claims.
The largest peak seen is about 10 bytes per input byte, from P2 bodies."""


def _decode_or_fail(data):
    try:
        img = load_image(data)
    except (PgmError, BmpError) as exc:
        assert str(exc)
        return
    assert isinstance(img, GrayImage) and img.pixel_count >= 1


def decodes_or_fails_cleanly(data):
    _, peak = traced(_decode_or_fail, data)
    assert peak < FUZZ_PEAK_BYTES_PER_INPUT_BYTE * len(data) + FUZZ_PEAK_FLOOR


class TestLoadImageFuzz:
    """Whatever the bytes, load_image returns an image or raises PgmError or
    BmpError; no other exception escapes."""

    @given(st.binary(max_size=FUZZ_MAX_BYTES))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, data):
        decodes_or_fails_cleanly(data)

    @given(st.sampled_from([b"P2", b"P5", b"BM"]), st.binary(max_size=512))
    @settings(max_examples=300, deadline=None)
    def test_known_magic_then_arbitrary_bytes(self, magic, rest):
        decodes_or_fails_cleanly(magic + rest)

    @given(mutated_images())
    @settings(max_examples=500, deadline=None)
    def test_mutated_valid_files(self, data):
        decodes_or_fails_cleanly(data)
        if data[:2] in (b"P2", b"P5"):
            assert decode_outcome(load_pgm, data) == decode_outcome(load_pgm_token_loop, data)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS, ids=["p2", "p5", "p2-comments", "bmp8",
                                                       "bmp8-palette", "bmp24"])
    def test_seed_files_decode(self, seed):
        assert isinstance(load_image(seed), GrayImage)


FILE_ENCODERS = {
    "p5": save_pgm,
    "p2": _p2_bytes,
    "bmp8": lambda img: build_bmp_8bit(img.rows()),
    "bmp24": lambda img: build_bmp_24bit(np.repeat(img.rows()[..., None], 3, axis=2)),
}
TAIL_BYTES = 16 << 20


class TestReadAtMost:
    def test_regular_file_is_asked_for_no_more_than_it_holds(self, tmp_path):
        path = tmp_path / "small"
        path.write_bytes(b"abc")
        data, peak = traced(read_at_most, path, 1 << 30)
        assert data == b"abc"
        assert peak < 64 << 10
        assert read_at_most(path, 2) == b"ab"
        with open(path, "rb") as f:
            f.read(1)
            assert read_at_most(f, 1 << 30) == b"bc"

    def test_pipe_is_read_in_blocks_up_to_the_limit(self):
        r, w = os.pipe()
        os.write(w, b"x" * 50_000)  # within the pipe's buffer, so no writer thread
        os.close(w)
        with os.fdopen(r, "rb") as f:
            assert read_at_most(f, 30_000) == b"x" * 30_000
            data, peak = traced(read_at_most, f, 1 << 30)
        assert data == b"x" * 20_000
        assert peak < 1 << 20


class TestWriteFile:
    """Every output is written whole to a temporary file and renamed into place."""

    def test_makes_the_parents_and_replaces_a_link(self, tmp_path):
        (tmp_path / "kept").write_bytes(b"kept")
        os.link(tmp_path / "kept", tmp_path / "hard")
        (tmp_path / "soft").symlink_to("kept")
        for name in ("hard", "soft", "new/deeper/file"):
            write_file(tmp_path / name, name.encode())
            assert (tmp_path / name).read_bytes() == name.encode()
            assert not (tmp_path / name).is_symlink()
        assert (tmp_path / "kept").read_bytes() == b"kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hard", "kept", "new", "soft"]

    def test_interrupt_mid_write_leaves_the_old_file_and_no_temporary(self, tmp_path,
                                                                    monkeypatch):
        target = tmp_path / "out.pgm"
        target.write_bytes(b"old")

        class HalfWriter:  # writes half the data, then is interrupted
            def __init__(self, path, mode):
                self.file = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, data):
                self.file.write(data[: len(data) // 2])
                self.file.flush()
                raise KeyboardInterrupt

        monkeypatch.setattr(codecs_module, "open", HalfWriter, raising=False)
        with pytest.raises(KeyboardInterrupt):
            write_file(target, b"new data")
        assert [p.name for p in tmp_path.iterdir()] == ["out.pgm"]
        assert target.read_bytes() == b"old"


class TestLoadImageFile:
    """An image file is read as far as its header says the image reaches."""

    @pytest.mark.parametrize("kind", list(FILE_ENCODERS))
    def test_tail_is_not_read(self, tmp_path, kind):
        img = textured_image(5, 64, 64)
        data = FILE_ENCODERS[kind](img)
        tail = b" 7" * (TAIL_BYTES // 2) if kind == "p2" else bytes(TAIL_BYTES)
        plain, tailed = tmp_path / "plain", tmp_path / "tailed"
        plain.write_bytes(data)
        tailed.write_bytes(data + tail)
        got, untailed_peak = traced(load_image_file, plain)
        assert got == img
        got, tailed_peak = traced(load_image_file, tailed)
        assert got == img
        assert tailed_peak <= untailed_peak + (4 << 20)

    @given(st.sampled_from(list(FILE_ENCODERS)), st.integers(100, 300), st.integers(100, 300),
           st.binary(max_size=64), st.integers(0, 3 << 16),
           st.sampled_from([None, 10, 14, 46]),
           st.one_of(st.integers(0, 1 << 17), st.integers(0, 2**32 - 1)))
    @settings(max_examples=60, deadline=None)
    def test_same_outcome_as_decoding_the_whole_file(self, kind, width, height, tail, repeat,
                                                      field, value):
        # files on both sides of the first block, with and without a tail; a
        # BMP may have its pixel offset (byte 10), header size (14) or palette
        # size (46) overwritten
        data = FILE_ENCODERS[kind](textured_image(width, width, height)) + tail * repeat
        if kind.startswith("bmp") and field is not None:
            data = data[:field] + value.to_bytes(4, "little") + data[field + 4:]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "img")
            path.write_bytes(data)
            assert decode_outcome(load_image_file, path) == decode_outcome(load_image, data)

    def test_p5_header_ending_at_the_first_block_is_read_to_its_pixel_end(self, tmp_path):
        # the maxval 255 ends at byte 65,536 and the pixels start at 65,537
        data = b"P5\n#" + b"c" * 65_524 + b"\n2 1 255\n" + bytes([7, 8])
        assert load_image(data) == GrayImage(2, 1, [7, 8])
        path = tmp_path / "long.pgm"
        path.write_bytes(data)
        assert load_image_file(path) == GrayImage(2, 1, [7, 8])

    def test_p2_value_cut_at_the_limit_is_not_read(self, tmp_path):
        # a 1x1 P2 is read up to byte 65,600; its value 123 straddles that limit
        head = b"P2 1 1 255\n#"
        data = head + b"c" * (65_597 - len(head)) + b"\n123\n"
        assert load_image(data) == GrayImage(1, 1, [123])
        path = tmp_path / "cut.pgm"
        path.write_bytes(data)
        with pytest.raises(PgmError, match=r"expected 1 values, found 0 \(byte offset 65598\)"):
            load_image_file(path)
