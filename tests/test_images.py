import numpy as np
import pytest
from hypothesis import given

from bioshares import (
    REVERSE8,
    BitTransform,
    DimensionMismatchError,
    GrayImage,
    bit_transform,
    inverse_permute_image,
    load_image,
    noise_cover,
    permute_image,
    resize_nearest,
    save_pgm,
    textured_image,
    xor_images,
)

from helpers import (
    TRANSFORM_IDS,
    TRANSFORMS,
    build_bmp_8bit,
    build_bmp_24bit,
    gray_images,
    image_pairs,
    image_triples,
)


class TestGrayImage:
    def test_accepts_lists_and_arrays(self):
        a = GrayImage(2, 2, [0, 255, 128, 64])
        b = GrayImage(2, 2, np.array([[0, 255], [128, 64]], dtype=np.uint8))
        assert a == b
        assert a.dims == (2, 2)
        assert a.pixel_count == 4

    def test_rows_view(self):
        img = GrayImage(3, 2, [1, 2, 3, 4, 5, 6])
        assert img.rows().tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_filled(self):
        img = GrayImage.filled(4, 3, 9)
        assert img.data.tolist() == [9] * 12

    def test_data_is_read_only(self):
        img = GrayImage(2, 1, [1, 2])
        with pytest.raises(ValueError):
            img.data[0] = 5

    def test_callers_bytes_view_is_copied(self):
        # only adopt keeps an array; a view of bytes is copied like any other
        pixels = np.frombuffer(bytes([1, 2, 3, 4, 5, 6]), dtype=np.uint8)
        img = GrayImage(3, 2, pixels)
        assert not np.shares_memory(img.data, pixels)
        assert img.data.tolist() == [1, 2, 3, 4, 5, 6] and not img.data.flags.writeable

    def test_bit_transform_and_p5_decode_keep_their_buffers(self):
        # both hand GrayImage a view of a bytes object, which it keeps as is
        img = bit_transform(GrayImage(2, 2, [1, 2, 3, 4]))
        assert isinstance(img.data.base, bytes)
        decoded = load_image(save_pgm(img))
        assert isinstance(decoded.data.base, bytes)
        assert decoded == img

    def test_writable_source_is_copied(self):
        source = np.array([1, 2, 3, 4], dtype=np.uint8)
        img = GrayImage(2, 2, source)
        source[0] = 99
        assert img.data.tolist() == [1, 2, 3, 4]

    def test_read_only_view_of_writable_array_is_copied(self):
        source = np.array([1, 2, 3, 4], dtype=np.uint8)
        view = source.view()
        view.setflags(write=False)
        img = GrayImage(2, 2, view)
        source[0] = 99
        assert img.data.tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("layout", ["strided", "2-D"])
    def test_other_views_of_bytes_are_copied_flat(self, layout):
        buf = bytes(range(8))
        if layout == "strided":
            pixels = np.ndarray((4,), np.uint8, buffer=buf, strides=(2,))
        else:
            pixels = np.frombuffer(buf, dtype=np.uint8, count=4).reshape(2, 2)
        img = GrayImage(2, 2, pixels)
        assert img.data.shape == (4,) and img.data.flags.c_contiguous
        assert not np.shares_memory(img.data, pixels)
        assert img.data.tolist() == np.ravel(pixels).tolist()

    def test_caller_array_is_copied_even_if_frozen(self):
        # a caller that froze its own array may unfreeze and change it
        source = np.array([1, 2, 3, 4], dtype=np.uint8)
        source.setflags(write=False)
        img = GrayImage(2, 2, source)
        source.setflags(write=True)
        source[:] = 7
        assert img.data.tolist() == [1, 2, 3, 4]
        assert not np.shares_memory(img.data, source)

    def test_adopt_freezes_without_copying(self):
        fresh = np.array([1, 2, 3, 4], dtype=np.uint8)
        img = GrayImage.adopt(2, 2, fresh)
        assert np.shares_memory(img.data, fresh)
        assert not img.data.flags.writeable and not fresh.flags.writeable
        # anything else is normalised as the constructor does
        assert GrayImage.adopt(2, 2, np.array([[1, 2], [3, 4]])).data.tolist() == [1, 2, 3, 4]
        with pytest.raises(ValueError, match="expected 4 pixels"):
            GrayImage.adopt(2, 2, np.zeros(3, dtype=np.uint8))

    def test_fresh_results_are_adopted(self, monkeypatch):
        kept = []
        adopt = GrayImage.adopt.__func__

        def spy(cls, width, height, data):
            img = adopt(cls, width, height, data)
            kept.append(np.shares_memory(img.data, data))
            return img

        monkeypatch.setattr(GrayImage, "adopt", classmethod(spy))
        img = GrayImage(2, 2, [5, 6, 7, 8])
        scrambled = permute_image(img, 3)
        assert inverse_permute_image(scrambled, 3) == img
        xor_images(img, scrambled)
        noise_cover(2, 2, 9)
        assert bit_transform(img) == GrayImage(2, 2, [160, 96, 224, 16])
        assert resize_nearest(img, 4, 2) == GrayImage(4, 2, [5, 5, 6, 6, 7, 7, 8, 8])
        textured_image(1, 5, 3)
        assert GrayImage.filled(2, 1, 3) == GrayImage(2, 1, [3, 3])
        assert load_image(b"P2 2 2 255 5 6 7 8") == img
        assert load_image(bytearray(b"P2 2 2 255 5 6 7 8")) == img
        assert load_image(save_pgm(img)) == img
        assert load_image(bytearray(save_pgm(img))) == img
        assert load_image(build_bmp_8bit(img.rows())) == img
        assert load_image(build_bmp_24bit(np.stack([img.rows()] * 3, axis=-1))) == img
        assert kept == [True] * 14

    @pytest.mark.parametrize("width, height", [(2.0, 3), (2, 3.0), (True, 6), (2, np.int64(3)),
                                               ("2", 3)])
    def test_dims_must_be_ints(self, width, height):
        with pytest.raises(ValueError, match="dimensions must be integers"):
            GrayImage(width, height, [0] * 6)

    def test_length_must_match_dims(self):
        with pytest.raises(ValueError, match="expected 4 pixels"):
            GrayImage(2, 2, [1, 2, 3])

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            GrayImage(0, 2, [])
        with pytest.raises(ValueError):
            GrayImage(2, -1, [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            GrayImage(1, 1, [256])
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            GrayImage(1, 1, [-1])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            GrayImage(1, 1, [1.5])

    def test_equality(self):
        a = GrayImage(2, 1, [1, 2])
        assert a == GrayImage(2, 1, [1, 2])
        assert a != GrayImage(2, 1, [1, 3])
        assert a != GrayImage(1, 2, [1, 2])
        assert a != "not an image"


class TestXor:
    def test_self_inverse(self):
        x = GrayImage(2, 2, [5, 100, 200, 255])
        assert xor_images(x, x) == GrayImage.filled(2, 2, 0)

    def test_zero_identity(self):
        x = GrayImage(2, 2, [5, 100, 200, 255])
        assert xor_images(x, GrayImage.filled(2, 2, 0)) == x

    def test_known_pixels(self):
        out = xor_images(GrayImage(1, 1, [170]), GrayImage(1, 1, [204]))
        assert out.data[0] == 102

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            xor_images(GrayImage.filled(2, 2, 0), GrayImage.filled(2, 3, 0))

    @given(image_pairs())
    def test_commutative(self, pair):
        a, b = pair
        assert xor_images(a, b) == xor_images(b, a)

    @given(image_triples())
    def test_associative(self, triple):
        a, b, c = triple
        assert xor_images(xor_images(a, b), c) == xor_images(a, xor_images(b, c))

    @given(image_pairs())
    def test_xor_twice_cancels(self, pair):
        a, b = pair
        assert xor_images(xor_images(a, b), b) == a


def table(transform):
    """The transform's 256-entry table: bit_transform of every byte value."""
    return bit_transform(GrayImage(256, 1, np.arange(256)), transform).data


class TestBitTransform:
    def test_reverse8_known_values(self):
        lut = table(REVERSE8)
        assert lut[0b00000001] == 0b10000000 == 128
        assert lut[0b11001100] == 0b00110011 == 51
        assert lut[170] == 85
        assert lut[0] == 0
        assert lut[255] == 255

    def test_reverse8_is_involution_everywhere(self):
        lut = table(REVERSE8)
        for v in range(256):
            assert lut[lut[v]] == v

    def test_reverse8_preserves_popcount(self):
        lut = table(REVERSE8)
        for v in range(256):
            assert bin(int(lut[v])).count("1") == bin(v).count("1")

    def test_reverse8_directions_coincide(self):
        assert REVERSE8.inverse() == REVERSE8

    @pytest.mark.parametrize("k", range(1, 8))
    def test_rotate_left_then_right_is_identity(self, k):
        t = BitTransform(f"rotate:{k}")
        assert t.inverse() == BitTransform(f"rotate:{8 - k}")
        img = GrayImage(16, 16, np.arange(256, dtype=np.uint8))
        assert bit_transform(bit_transform(img, t), t.inverse()) == img

    @pytest.mark.parametrize("t", TRANSFORMS, ids=TRANSFORM_IDS)
    def test_inverse_undoes_every_byte(self, t):
        assert t.inverse().inverse() == t
        assert table(t.inverse())[table(t)].tolist() == list(range(256))

    def test_rotate_known_value(self):
        lut = table(BitTransform("rotate:1"))
        assert lut[0b10000000] == 0b00000001
        assert lut[0b00000001] == 0b00000010
        lut3 = table(BitTransform("rotate:3"))
        assert lut3[0b00000001] == 0b00001000

    @given(gray_images())
    def test_reverse8_round_trip_on_images(self, img):
        assert bit_transform(bit_transform(img, REVERSE8), REVERSE8.inverse()) == img

    def test_parse_descriptor(self):
        assert BitTransform("reverse8") == REVERSE8
        assert BitTransform("rotate:3").descriptor == "rotate:3"
        assert REVERSE8.descriptor == "reverse8"

    # near misses of the eight descriptors, and values that are not text
    @pytest.mark.parametrize("bad", ["rot8", "rotate:", "rotate:x", "rotate:0", "rotate:8", "",
                                     "rotate:+3", "rotate: 3", "rotate:03", "rotate:\u0663",
                                     "rotate:3 ", "mirror", "reverse8:3",
                                     pytest.param(b"reverse8", id="bytes-reverse8"), 3, None])
    def test_bad_descriptors(self, bad):
        with pytest.raises(ValueError, match="bad bit transform descriptor"):
            BitTransform(bad)
