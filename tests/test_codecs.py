import numpy as np
import pytest
from hypothesis import given

from bioshares import (
    BmpError,
    GrayImage,
    PgmError,
    load_bmp,
    load_image,
    load_image_file,
    load_pgm,
    save_pgm,
    write_pgm_file,
)

from helpers import build_bmp_8bit, build_bmp_24bit, gray_images


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
        # 10**12 pixels announced, 7 payload bytes: rejected before allocating
        data = b"P2\n1000000 1000000\n255\n1 2 3\n"
        with pytest.raises(PgmError, match="header asks for 1000000000000 values") as err:
            load_pgm(data)
        assert err.value.offset == len(data)
        # the densest payload, one separator and one digit per value, still decodes
        assert load_pgm(b"P2 3 1 9 1 2 3") == GrayImage(3, 1, [1, 2, 3])

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

    def test_error_carries_offset(self):
        # maxval token starts at byte 7 of b"P5\n1 1\n300\n..."
        with pytest.raises(PgmError) as err:
            load_pgm(b"P5\n1 1\n300\n\x00")
        assert err.value.offset == 7
        assert "byte offset 7" in str(err.value)


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


class TestSniffing:
    def test_dispatch(self):
        img = GrayImage(2, 1, [9, 8])
        assert load_image(save_pgm(img)) == img
        bmp = build_bmp_8bit(np.array([[9, 8]], dtype=np.uint8))
        assert load_image(bmp) == img

    def test_unknown_magic(self):
        with pytest.raises(PgmError, match="unrecognised"):
            load_image(b"\x89PNG....")
