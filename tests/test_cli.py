import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioshares import (
    GrayImage,
    load_image_file,
    load_manifest,
    load_pgm,
    permute_image,
    pixel_digest,
    save_pgm,
    textured_image,
    write_pgm_file,
)
from bioshares import codecs as codecs_module
from bioshares import manifest as manifest_module
from bioshares.cli import main

from helpers import build_bmp_8bit, build_bmp_24bit, random_image, report_from_dict, traced


@pytest.fixture
def original(tmp_path):
    img = textured_image(3, 24, 16)
    path = tmp_path / "alice.pgm"
    write_pgm_file(img, path)
    return img, path


def run(argv):
    return main([str(a) for a in argv])


def file_bytes(root):
    """Every file under `root` with its bytes, to show a refused command changed nothing."""
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


# seed strings Python's int() accepts but a u64 written as decimal digits is not
BAD_SEED_TEXTS = [" 12 ", "1_2", "+7", "\u0663", "-1", "", "0x10", "18446744073709551616"]
BAD_SEED_IDS = ["spaces", "underscore", "plus", "arabic-indic-digit", "negative", "empty",
                "hex", "above-u64"]

# every decoder, each writing a gray image its decoder reads back unchanged
ENCODERS = [
    save_pgm,
    lambda img: b"P2\n%d %d\n255\n" % img.dims + b" ".join(b"%d" % v for v in img.data),
    lambda img: build_bmp_8bit(img.rows()),
    lambda img: build_bmp_24bit(np.repeat(img.rows()[..., None], 3, axis=2)),
]
ENCODER_IDS = ["p5", "p2", "bmp8", "bmp24"]

PEAK_BYTES_PER_PIXEL = {
    "m3": {"enroll": 45, "authenticate": 49, "evaluate": 34},
    "m2": {"enroll": 43, "authenticate": 12, "evaluate": 34},
    "m1-seed": {"enroll": 22, "authenticate": 12, "evaluate": 34},
    "m1-cover": {"enroll": 13, "authenticate": 12, "evaluate": 34},
}
"""Budgets for the tracemalloc peak of one n=4 command on a 512x512 texture,
about 15% above the bytes per pixel measured for enroll / authenticate /
evaluate: m3 38.8 / 42.2 / 29.2, m2 37.2 / 10.1 / 29.2, m1 with --seed
19.2 / 10.1 / 29.2, and m1 with three 512x512 --cover textures
11.2 / 10.1 / 29.2."""


class TestEnroll:
    def test_writes_shares_and_manifest(self, tmp_path, original):
        img, path = original
        out = tmp_path / "out"
        assert run(["enroll", path, "--out", out, "--method", "m3",
                    "--shares", "4", "--seed", "42"]) == 0
        manifest = load_manifest(out / "alice_manifest.json")
        assert manifest.params.n == 4
        assert len(manifest.params.seeds) == 4
        assert manifest.dims == img.dims
        for name, digest in zip(manifest.share_files, manifest.content_digests):
            share = load_pgm((out / name).read_bytes())
            assert share.dims == img.dims
            assert pixel_digest(share) == digest

    def test_new_files_take_their_mode_from_the_umask(self, tmp_path, original):
        _, path = original
        old = os.umask(0o027)
        try:
            assert run(["enroll", path, "--out", tmp_path / "out", "--seed", "1"]) == 0
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in (tmp_path / "out").iterdir()}
        assert len(modes) == 5 and set(modes.values()) == {0o666 & ~0o027}

    def test_explicit_seeds_are_reproducible(self, tmp_path, original):
        _, path = original
        seeds = "11,22,33,44"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["enroll", path, "--out", out_a, "--method", "m3", "--seeds", seeds]) == 0
        assert run(["enroll", path, "--out", out_b, "--method", "m3", "--seeds", seeds]) == 0
        for i in range(1, 5):
            name = f"alice_share_{i}.pgm"
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_auto_seeds_differ_between_runs(self, tmp_path, original):
        _, path = original
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["enroll", path, "--out", out_a, "--method", "m3"]) == 0
        assert run(["enroll", path, "--out", out_b, "--method", "m3"]) == 0
        seeds_a = load_manifest(out_a / "alice_manifest.json").params.seeds
        seeds_b = load_manifest(out_b / "alice_manifest.json").params.seeds
        assert seeds_a != seeds_b

    def test_m1_with_cover_files(self, tmp_path, original):
        img, path = original
        rng = np.random.default_rng(9)
        cover_paths = []
        for i in range(3):
            p = tmp_path / f"cover{i}.pgm"
            write_pgm_file(random_image(rng, 10, 10), p)
            cover_paths.append(p)
        out = tmp_path / "out"
        argv = ["enroll", path, "--out", out, "--method", "m1", "--user", "bob"]
        for p in cover_paths:
            argv += ["--cover", p]
        assert run(argv) == 0
        manifest = load_manifest(out / "bob_manifest.json")
        assert manifest.params.seeds == ()
        assert len(manifest.params.cover_sources) == 3

    def test_face_sized_enrollment(self, tmp_path):
        img = textured_image(0, 112, 94)
        path = tmp_path / "subject.pgm"
        write_pgm_file(img, path)
        out = tmp_path / "out"
        assert run(["enroll", path, "--out", out, "--method", "m3", "--seed", "8"]) == 0
        manifest = load_manifest(out / "subject_manifest.json")
        assert manifest.dims == (112, 94)
        assert len(manifest.params.seeds) == 4
        share = load_pgm((out / manifest.share_files[0]).read_bytes())
        assert share.dims == (112, 94)

    def test_cover_flag_rejected_outside_m1(self, tmp_path, original, capsys):
        # no seeds are sourced when covers are given, so the cover rule must
        # be judged before the seed count to keep this message
        _, path = original
        cover = tmp_path / "c.pgm"
        write_pgm_file(GrayImage.filled(4, 4, 1), cover)
        assert run(["enroll", path, "--out", tmp_path / "out", "--method", "m3",
                    "--cover", cover]) == 2
        assert capsys.readouterr().err == "error: cover sources apply to method m1 only\n"
        assert not (tmp_path / "out").exists()
        # a rejected cover is never opened: neither a truncated P5 nor a missing file
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\n\x01\x02")
        for cover in (bad, tmp_path / "missing.pgm"):
            assert run(["enroll", path, "--out", tmp_path / "out", "--method", "m3",
                        "--cover", cover]) == 2
            assert capsys.readouterr().err == "error: cover sources apply to method m1 only\n"
            assert not (tmp_path / "out").exists()

    def test_m1_covers_with_seeds_is_usage_error(self, tmp_path, original, capsys):
        _, path = original
        cover = tmp_path / "c.pgm"
        write_pgm_file(GrayImage.filled(4, 4, 1), cover)
        assert run(["enroll", path, "--out", tmp_path / "out", "--method", "m1", "--shares", "2",
                    "--cover", cover, "--seeds", "5"]) == 2
        assert "supplied covers or texture seeds, not both" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_with_seeds_is_usage_error(self, tmp_path, original, capsys):
        _, path = original
        with pytest.raises(SystemExit) as err:
            run(["enroll", path, "--out", tmp_path / "out", "--seeds", "1,2,3,4", "--seed", "9"])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_m1_covers_with_seed_is_usage_error(self, tmp_path, original, capsys):
        _, path = original
        covers = []
        for k in range(3):
            covers += ["--cover", tmp_path / f"c{k}.pgm"]
            write_pgm_file(GrayImage.filled(24, 16, k), tmp_path / f"c{k}.pgm")
        assert run(["enroll", path, "--out", tmp_path / "out", "--method", "m1", *covers,
                    "--seed", "9"]) == 2
        assert "supplied covers or texture seeds, not both" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_wrong_cover_count_is_usage_error(self, tmp_path, original):
        _, path = original
        cover = tmp_path / "c.pgm"
        write_pgm_file(GrayImage.filled(4, 4, 1), cover)
        assert run(["enroll", path, "--out", tmp_path / "out", "--method", "m1",
                    "--cover", cover, "--cover", cover]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("second, code, message", [
        (None, 3, "i/o error: [Errno 2] "),
        (b"P5\n4 4\n255\n\x01\x02", 5, "format error: truncated pixel payload"),
    ], ids=["missing", "truncated-p5"])
    def test_m1_cover_file_error_writes_nothing(self, tmp_path, original, capsys,
                                                second, code, message):
        _, path = original
        write_pgm_file(GrayImage.filled(4, 4, 1), tmp_path / "c1.pgm")
        if second is not None:
            (tmp_path / "c2.pgm").write_bytes(second)
        assert run(["enroll", path, "--out", tmp_path / "out", "--method", "m1", "--shares", "3",
                    "--cover", tmp_path / "c1.pgm", "--cover", tmp_path / "c2.pgm"]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()

    def test_one_pixel_image_is_format_error(self, tmp_path, capsys):
        # a dimension problem, as batch calls it when it skips the same image
        path = tmp_path / "dot.pgm"
        write_pgm_file(GrayImage.filled(1, 1, 9), path)
        assert run(["enroll", path, "--out", tmp_path / "out", "--seed", "1"]) == 5
        assert capsys.readouterr().err == "error: original image must have at least 2 pixels\n"
        assert not (tmp_path / "out").exists()

    def test_bad_bit_transform_is_usage_error(self, tmp_path, original, capsys):
        _, path = original
        with pytest.raises(SystemExit) as err:
            run(["enroll", path, "--out", tmp_path / "out", "--bit-transform", "rotate:9"])
        assert err.value.code == 2
        assert "bad bit transform descriptor 'rotate:9'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_single_share_is_usage_error(self, tmp_path, original):
        _, path = original
        assert run(["enroll", path, "--out", tmp_path, "--shares", "1"]) == 2

    def test_share_count_above_max_is_usage_error(self, tmp_path, original, capsys):
        # rejected before 200 million seeds are expanded
        _, path = original
        assert run(["enroll", path, "--out", tmp_path / "out", "--shares", "200000000",
                    "--seed", "1"]) == 2
        assert "--shares must be between 2 and 64" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_covers_over_the_shares_are_usage_error(self, tmp_path, original, capsys):
        # re-enrolling with the store's own shares as covers would replace them
        _, path = original
        store = tmp_path / "store"
        assert run(["enroll", path, "--out", store, "--method", "m3", "--seed", "1"]) == 0
        argv = ["enroll", path, "--out", store, "--user", "alice", "--method", "m1"]
        for i in (2, 3, 4):
            argv += ["--cover", store / f"alice_share_{i}.pgm"]
        before = file_bytes(tmp_path)
        capsys.readouterr()
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert err == f"error: the enrollment would overwrite the input {store}/alice_share_2.pgm\n"
        assert out == ""
        assert file_bytes(tmp_path) == before

    @pytest.mark.parametrize("name", ["alice_share_1.pgm", "alice_manifest.json"])
    def test_input_over_the_enrollment_is_usage_error(self, tmp_path, original, capsys,
                                                      monkeypatch, name):
        img, _ = original
        store = tmp_path / "store"
        store.mkdir()
        write_pgm_file(img, store / name)
        before = file_bytes(tmp_path)
        read = []
        monkeypatch.setattr("bioshares.cli.load_image_file", read.append)
        # the same file through another spelling of the store
        assert run(["enroll", store / name, "--out", store / ".." / "store",
                    "--user", "alice", "--seed", "1"]) == 2
        assert "error: the enrollment would overwrite the input" in capsys.readouterr().err
        assert read == []
        assert file_bytes(tmp_path) == before

    @pytest.mark.parametrize("slot, code", [("input", 3), ("cover", 3), ("out", 2)],
                             ids=["input", "cover", "out"])
    def test_link_loop_is_io_error(self, tmp_path, original, capsys, slot, code):
        # comparing resolved paths must not turn the open's ELOOP into a traceback;
        # a loop above the outputs is no directory, so --out is refused up front
        _, path = original
        (tmp_path / "a").symlink_to(tmp_path / "b")
        (tmp_path / "b").symlink_to(tmp_path / "a")
        loop = tmp_path / "a"
        argv = {"input": ["enroll", loop, "--out", tmp_path / "out", "--seed", "1"],
                "cover": ["enroll", path, "--out", tmp_path / "out", "--method", "m1",
                          "--shares", "2", "--cover", loop],
                "out": ["enroll", path, "--out", loop, "--seed", "1"]}[slot]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("i/o error: [Errno " if code == 3 else "error: the enrollment ")
        assert "Traceback" not in err

    def test_user_outside_out_is_usage_error(self, tmp_path, original, capsys):
        _, path = original
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "a" / "b" / "out"
        assert run(["enroll", path, "--out", out, "--user", "../../x", "--seed", "1"]) == 2
        assert "user_id must be a plain file name" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_user_of_undecodable_bytes_is_usage_error(self, tmp_path, original, capsys):
        # a command-line name that is not UTF-8 arrives with lone surrogates
        _, path = original
        assert run(["enroll", path, "--out", tmp_path / "out", "--seed", "1",
                    "--user", "a\udcff"]) == 2
        assert capsys.readouterr().err == (
            "error: user_id must be a plain file name, got 'a\\udcff'\n")
        assert not (tmp_path / "out").exists()

    def test_wrong_seed_count_is_usage_error(self, tmp_path, original):
        _, path = original
        assert run(["enroll", path, "--out", tmp_path, "--method", "m3",
                    "--seeds", "1,2"]) == 2

    @pytest.mark.parametrize("flag", ["--seed", "--seeds"])
    @pytest.mark.parametrize("text", BAD_SEED_TEXTS, ids=BAD_SEED_IDS)
    def test_non_decimal_seed_is_usage_error(self, tmp_path, original, capsys, flag, text):
        _, path = original
        seeds = text if flag == "--seed" else f"11,22,{text},44"
        with pytest.raises(SystemExit) as err:
            run(["enroll", path, "--out", tmp_path / "out", "--method", "m3", flag, seeds])
        assert err.value.code == 2
        assert "seed must be decimal digits" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_largest_seed_and_leading_zeros_accepted(self, tmp_path, original):
        _, path = original
        assert run(["enroll", path, "--out", tmp_path / "a", "--method", "m3",
                    "--seeds", "18446744073709551615,007,0,1"]) == 0
        seeds = load_manifest(tmp_path / "a" / "alice_manifest.json").params.seeds
        assert seeds == (2**64 - 1, 7, 0, 1)

    def test_missing_input_is_io_error(self, tmp_path):
        assert run(["enroll", tmp_path / "absent.pgm", "--out", tmp_path]) == 3

    def test_undecodable_input_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\n\x00")  # truncated
        assert run(["enroll", bad, "--out", tmp_path]) == 5

    def test_oversized_p2_header_is_format_error(self, tmp_path, capsys):
        # the header asks for 10**12 pixels; nothing that size may be allocated
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P2\n1000000 1000000\n255\n1 2 3\n")
        assert run(["enroll", path, "--out", tmp_path / "out"]) == 5
        assert ("format error: image of 1000000x1000000 pixels exceeds the limit of 67108864"
                " pixels (byte offset 3)") in capsys.readouterr().err

    def test_header_field_past_int_digit_limit_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "wide.pgm"
        path.write_bytes(b"P2\n" + b"1" * 5000 + b" 1\n255\n1\n")
        assert run(["enroll", path, "--out", tmp_path / "out"]) == 5
        err = capsys.readouterr().err
        assert ("format error: malformed header: width has more than 20 digits"
                " (byte offset 3)") in err

    @pytest.mark.parametrize("encode", ENCODERS, ids=ENCODER_IDS)
    def test_pixel_ceiling_is_format_error(self, tmp_path, monkeypatch, capsys, encode):
        img = textured_image(3, 6, 4)
        path = tmp_path / "face.img"
        path.write_bytes(encode(img))
        monkeypatch.setattr(codecs_module, "MAX_PIXELS", img.pixel_count - 1)
        assert run(["enroll", path, "--out", tmp_path / "out", "--seed", "1"]) == 5
        assert "image of 6x4 pixels exceeds the limit of 23 pixels" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # an image of exactly MAX_PIXELS decodes
        monkeypatch.setattr(codecs_module, "MAX_PIXELS", img.pixel_count)
        assert load_image_file(path) == img
        assert run(["enroll", path, "--out", tmp_path / "out", "--seed", "1"]) == 0

    def test_out_of_memory_is_io_error(self, tmp_path, original, monkeypatch, capsys):
        # an honest image too large for the memory at hand
        def exhausted(data):
            raise MemoryError

        monkeypatch.setattr(codecs_module, "load_pgm", exhausted)
        assert run(["enroll", original[1], "--out", tmp_path / "out", "--seed", "1"]) == 3
        assert capsys.readouterr().err == "error: out of memory\n"  # and no traceback
        assert not (tmp_path / "out").exists()

    def test_unknown_flag_exits_two(self, tmp_path, original):
        _, path = original
        with pytest.raises(SystemExit) as err:
            run(["enroll", path, "--explode"])
        assert err.value.code == 2


def _bmp24_header(width, height):
    """The 54 header bytes of a 24-bit BMP of width x height pixels."""
    head = bytearray(build_bmp_24bit(np.zeros((1, 1, 3)))[:54])
    head[18:26] = width.to_bytes(4, "little") + height.to_bytes(4, "little")
    return bytes(head)


def _with_uint32(data, at, value):
    """`data` with its little-endian 32-bit field at byte `at` set to `value`:
    a BMP's pixel offset is at byte 10, its header size at 14, its palette
    size (clr_used) at 46."""
    return data[:at] + value.to_bytes(4, "little") + data[at + 4:]


def _bmp8_palette_past_the_first_block():
    """A 2x2 8-bit BMP whose header size puts its palette at bytes
    65,054-66,078; its pixels stay at byte 1,078."""
    data = _with_uint32(build_bmp_8bit(np.arange(4).reshape(2, 2)), 14, 65_040)
    return data[:1086] + bytes(65_054 - 1086) + data[54:1078]


# the heads of a 1x1 BMP whose palette size (8 bits) or pixel offset (24 bits)
# is 2**32 - 1, so that its palette or pixels would end gigabytes into the file
BMP8_MAX_PALETTE_SIZE_HEAD = _with_uint32(build_bmp_8bit(np.zeros((1, 1)))[:54], 46, 2**32 - 1)
BMP24_MAX_PIXEL_OFFSET_HEAD = _with_uint32(_bmp24_header(1, 1), 10, 2**32 - 1)


class TestInputsAreReadAsFarAsTheyReach:
    """An input image is read only as far as its header says, and a pipe or
    FIFO is read in blocks, so trailing or endless bytes cost no memory."""

    ENROLL = ["--user", "face", "--method", "m3", "--seed", "7"]
    SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    @staticmethod
    def memory_capped():
        """A preexec_fn that caps a child's address space at 1.5 GiB, so that a
        read of a whole stream or file fails fast as out of memory (exit 3)."""
        resource = pytest.importorskip("resource")
        return lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

    @staticmethod
    def written(root):
        """The files a command wrote under `root`, by name."""
        return {p.name: b for p, b in file_bytes(root).items()}

    def test_tail_is_not_read(self, tmp_path):
        data = save_pgm(textured_image(5, 64, 64))
        for name, body in (("plain", data), ("tailed", data + bytes(16 << 20))):
            (tmp_path / f"{name}.pgm").write_bytes(body)
            assert run(["enroll", tmp_path / f"{name}.pgm", "--out", tmp_path / name,
                        *self.ENROLL]) == 0
        assert len(self.written(tmp_path / "plain")) == 5
        assert self.written(tmp_path / "tailed") == self.written(tmp_path / "plain")

    def test_endless_input_is_format_error(self, tmp_path):
        # the address-space cap makes a read of the whole device fail fast
        resource = pytest.importorskip("resource")
        if not os.path.exists("/dev/zero"):
            pytest.skip("needs /dev/zero")

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

        done = subprocess.run([sys.executable, "-m", "bioshares", "enroll", "/dev/zero",
                               "--out", tmp_path / "zero", "--seed", "7"], env=self.SRC_ENV,
                              capture_output=True, timeout=120, preexec_fn=cap_memory)
        assert (done.returncode, done.stderr) == (
            5, b"format error: unrecognised image format (expected PGM or BMP) (byte offset 0)\n")
        assert not (tmp_path / "zero").exists()

    @pytest.mark.parametrize("data, message", [
        (b"P5\n#" + b"c" * (70 << 10) + b"\n4 3\n255\n" + bytes(12),
         "malformed header: expected width (byte offset 65536)"),
        (b"P2\n4 3\n255\n#" + b"c" * (70 << 10) + b"\n" + b"7 " * 12,
         "truncated pixel payload: expected 12 values, found 0 (byte offset 66304)"),
        # the width 12 starts at byte 65,535, so the first block holds only its 1
        (b"P5\n#" + b"c" * 65_530 + b"\n12 1 255\n" + bytes(12),
         "malformed header: expected height (byte offset 65536)"),
        (b"P2\n#" + b"c" * 65_530 + b"\n12 1 255\n" + b"7 " * 12,
         "malformed header: expected height (byte offset 65536)"),
        # the maxval 255 starts at byte 65,534, so the first block holds only its 25
        (b"P5\n#" + b"c" * 65_525 + b"\n2 1 255\n" + bytes(2),
         "malformed header: maxval runs past byte 65536 (byte offset 65534)"),
        (b"P2\n#" + b"c" * 65_525 + b"\n2 1 255\n7 7\n",
         "malformed header: maxval runs past byte 65536 (byte offset 65534)"),
        # a 2x2 24-bit BMP whose 16 pixel bytes start at byte 65,537
        (_with_uint32(build_bmp_24bit(np.zeros((2, 2, 3)))[:54], 10, 65_537)
         + bytes(65_537 - 54 + 16),
         "header of 65537 bytes exceeds the limit of 65536 bytes"),
        (_bmp8_palette_past_the_first_block(),
         "header of 66078 bytes exceeds the limit of 65536 bytes"),
    ], ids=["p5-header-past-the-first-block", "p2-body-past-the-cap",
            "p5-width-cut-by-the-first-block", "p2-width-cut-by-the-first-block",
            "p5-maxval-cut-by-the-first-block", "p2-maxval-cut-by-the-first-block",
            "bmp24-pixels-past-the-first-block", "bmp8-palette-past-the-first-block"])
    def test_image_past_its_read_limit_is_format_error(self, tmp_path, capsys, data, message):
        path = tmp_path / "long.img"
        path.write_bytes(data)
        assert run(["enroll", path, "--out", tmp_path / "out", "--seed", "7"]) == 5
        assert capsys.readouterr().err == f"format error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_bmp24_header_size_and_palette_size_are_not_read(self, tmp_path):
        # a 24-bit BMP has no palette, so neither field bounds anything
        rgb = np.repeat(textured_image(5, 64, 64).rows()[..., None], 3, axis=2)
        data = build_bmp_24bit(rgb)
        (tmp_path / "plain.bmp").write_bytes(data)
        (tmp_path / "huge.bmp").write_bytes(
            _with_uint32(_with_uint32(data, 14, 2**32 - 1), 46, 2**32 - 1))
        for name in ("plain", "huge"):
            assert run(["enroll", tmp_path / f"{name}.bmp", "--out", tmp_path / name,
                        *self.ENROLL]) == 0
        assert len(self.written(tmp_path / "plain")) == 5
        assert self.written(tmp_path / "huge") == self.written(tmp_path / "plain")

    OVER_THE_CEILING = b"image of 99999x99999 pixels exceeds the limit of 67108864 pixels"

    @pytest.mark.parametrize("via", ["pipe", "fifo"])
    @pytest.mark.parametrize("head, message", [
        (b"P5 99999 99999 255\n", OVER_THE_CEILING + b" (byte offset 3)"),
        (b"P2 99999 99999 255\n", OVER_THE_CEILING + b" (byte offset 3)"),
        (_bmp24_header(99999, 99999), OVER_THE_CEILING),
        (BMP8_MAX_PALETTE_SIZE_HEAD,
         b"header of 17179869234 bytes exceeds the limit of 65536 bytes"),
        (BMP24_MAX_PIXEL_OFFSET_HEAD,
         b"header of 4294967295 bytes exceeds the limit of 65536 bytes"),
    ], ids=["p5", "p2", "bmp24", "bmp8-palette-size", "bmp24-pixel-offset"])
    def test_stream_over_the_pixel_ceiling_is_refused_from_its_header(
            self, tmp_path, head, message, via):
        # an endless stream behind a header over MAX_PIXELS, or behind a BMP
        # header whose palette or pixels would end gigabytes in
        cap_memory = self.memory_capped()
        if via == "fifo" and not hasattr(os, "mkfifo"):
            pytest.skip("needs FIFOs")
        source = "/dev/stdin" if via == "pipe" else tmp_path / "image.fifo"
        if via == "fifo":
            os.mkfifo(source)
        err = tmp_path / "err.txt"
        with open(err, "wb") as err_file:
            child = subprocess.Popen(
                [sys.executable, "-m", "bioshares", "enroll", source, "--out", tmp_path / "out",
                 "--seed", "7"], env=self.SRC_ENV, stdout=subprocess.DEVNULL, stderr=err_file,
                stdin=subprocess.PIPE if via == "pipe" else subprocess.DEVNULL, bufsize=0,
                preexec_fn=cap_memory)
        sent = [0]

        def feed():
            block = bytes(1 << 20)
            try:
                with child.stdin if via == "pipe" else open(source, "wb", buffering=0) as stream:
                    stream.write(head)
                    while sent[0] < 4 << 30:
                        sent[0] += stream.write(block)
            except BrokenPipeError:  # the reader is gone
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        assert child.wait(timeout=120) == 5, err.read_bytes()
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert err.read_bytes() == b"format error: " + message + b"\n"
        assert sent[0] < 16 << 20
        assert not (tmp_path / "out").exists()

    def read_sparse_file(self, tmp_path, head):
        """The error, as `Class: text`, and the traced peak of load_image_file
        on a 16 GiB sparse file that begins with `head`."""
        cap_memory = self.memory_capped()
        path = tmp_path / "sparse.img"
        with open(path, "wb") as f:
            f.write(head)
            f.truncate(16 << 30)
        script = ("import sys, tracemalloc\n"
                  "from bioshares import load_image_file\n"
                  "tracemalloc.start()\n"
                  "try:\n"
                  "    load_image_file(sys.argv[1])\n"
                  "except ValueError as exc:\n"
                  "    print(f'{type(exc).__name__}: {exc}')\n"
                  "print(tracemalloc.get_traced_memory()[1])\n")
        done = subprocess.run(
            [sys.executable, "-c", script, path], env=self.SRC_ENV, capture_output=True,
            timeout=120, preexec_fn=cap_memory)
        assert done.returncode == 0, done.stderr
        message, peak = done.stdout.decode().splitlines()
        return message, int(peak)

    def test_sparse_file_over_the_pixel_ceiling_is_read_no_further_than_its_first_block(
            self, tmp_path):
        # the header's extent is about 10 GB
        message, peak = self.read_sparse_file(tmp_path, b"P5 99999 99999 255\n")
        assert message == ("PgmError: image of 99999x99999 pixels exceeds the limit of"
                           " 67108864 pixels (byte offset 3)")
        assert peak < 1 << 20

    @pytest.mark.parametrize("head, end", [(BMP8_MAX_PALETTE_SIZE_HEAD, 17_179_869_234),
                                           (BMP24_MAX_PIXEL_OFFSET_HEAD, 4_294_967_295)],
                             ids=["bmp8-palette-size", "bmp24-pixel-offset"])
    def test_sparse_bmp_whose_header_ends_past_the_first_block_is_read_no_further(
            self, tmp_path, head, end):
        message, peak = self.read_sparse_file(tmp_path, head)
        assert message == f"BmpError: header of {end} bytes exceeds the limit of 65536 bytes"
        assert peak < 1 << 20

    def test_piped_input_enrolls_as_the_file(self, tmp_path):
        data = save_pgm(textured_image(5, 64, 64))
        (tmp_path / "face.pgm").write_bytes(data)
        assert run(["enroll", tmp_path / "face.pgm", "--out", tmp_path / "file", *self.ENROLL]) == 0
        done = subprocess.run([sys.executable, "-m", "bioshares", "enroll", "/dev/stdin",
                               "--out", tmp_path / "pipe", *self.ENROLL],
                              input=data, env=self.SRC_ENV, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert len(self.written(tmp_path / "file")) == 5
        assert self.written(tmp_path / "pipe") == self.written(tmp_path / "file")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_manifest_through_a_fifo_authenticates(self, tmp_path, original):
        _, path = original
        store = tmp_path / "store"
        assert run(["enroll", path, "--out", store, "--seed", "7"]) == 0
        assert run(["authenticate", store / "alice_manifest.json", "--out", tmp_path / "file"]) == 0
        fifo = tmp_path / "manifest.fifo"
        os.mkfifo(fifo)
        text = (store / "alice_manifest.json").read_bytes()
        writer = threading.Thread(target=fifo.write_bytes, args=(text,), daemon=True)
        writer.start()
        assert run(["authenticate", fifo, "--share-dir", store, "--out", tmp_path / "fifo"]) == 0
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert len(self.written(tmp_path / "file")) == 5
        assert self.written(tmp_path / "fifo") == self.written(tmp_path / "file")


class TestAuthenticate:
    @pytest.fixture
    def enrolled(self, tmp_path, original):
        img, path = original
        out = tmp_path / "store"
        assert run(["enroll", path, "--out", out, "--method", "m3",
                    "--shares", "4", "--seed", "7"]) == 0
        return img, out / "alice_manifest.json", out

    def test_reconstructs_and_reveals(self, tmp_path, enrolled):
        img, manifest_path, store = enrolled
        out = tmp_path / "rec"
        assert run(["authenticate", manifest_path, "--out", out]) == 0
        revealed = load_pgm((out / "alice_revealed_original.pgm").read_bytes())
        assert revealed == img
        secret = load_pgm((out / "alice_reconstructed_secret.pgm").read_bytes())
        assert secret != img  # m3 secret stays permuted
        # and it equals the enrollment-time secret exactly
        manifest = load_manifest(manifest_path)
        assert secret == permute_image(img, manifest.params.seeds[0])
        assert (out / "alice_reconstructed_cover_3.pgm").exists()

    def test_m2_secret_equals_original(self, tmp_path, original):
        img, path = original
        store = tmp_path / "store"
        assert run(["enroll", path, "--out", store, "--method", "m2", "--seed", "3"]) == 0
        assert run(["authenticate", store / "alice_manifest.json"]) == 0
        secret = load_pgm((store / "alice_reconstructed_secret.pgm").read_bytes())
        assert secret == img

    def test_missing_share_is_integrity_error(self, tmp_path, enrolled):
        _, manifest_path, store = enrolled
        (store / "alice_share_2.pgm").unlink()
        out = tmp_path / "rec"
        assert run(["authenticate", manifest_path, "--out", out]) == 4
        assert not out.exists()  # no partial output

    def test_tampered_share_is_integrity_error(self, tmp_path, enrolled):
        _, manifest_path, store = enrolled
        target = store / "alice_share_1.pgm"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0x01
        target.write_bytes(bytes(blob))
        assert run(["authenticate", manifest_path, "--out", tmp_path / "rec"]) == 4

    def test_re_enroll_crash_before_manifest(self, tmp_path, original, enrolled, monkeypatch,
                                             capsys):
        # a re-enrollment that dies between its shares and its manifest
        # leaves the new shares beside the first enrollment's manifest
        _, manifest_path, store = enrolled
        first = tmp_path / "first"
        assert run(["authenticate", manifest_path, "--out", first]) == 0

        def crash(manifest, path):
            raise OSError("disk full")

        monkeypatch.setattr(manifest_module, "save_manifest", crash)
        assert run(["enroll", original[1], "--out", store, "--method", "m3",
                    "--shares", "4", "--seed", "8"]) == 3
        assert capsys.readouterr().err == "i/o error: disk full\n"
        after = tmp_path / "after"
        code = run(["authenticate", manifest_path, "--out", after])
        # either the first enrollment comes back byte for byte, or the
        # command refuses the store as an integrity failure
        if code == 0:
            assert sorted(p.name for p in after.iterdir()) == sorted(p.name for p in first.iterdir())
            for path in first.iterdir():
                assert (after / path.name).read_bytes() == path.read_bytes()
        else:
            assert code == 4
            assert capsys.readouterr().err.startswith("integrity error: ")
            assert not after.exists()

    @pytest.mark.parametrize("k", range(1, 6))
    def test_re_enroll_failing_rename_keeps_each_file_whole(self, tmp_path, original, enrolled,
                                                             monkeypatch, capsys, k):
        # the k-th rename of a re-enrollment fails: the files renamed before it
        # hold the new enrollment, every other file is as it was, and no
        # temporary file is left in the store
        _, manifest_path, store = enrolled
        argv = ["enroll", original[1], "--method", "m3", "--shares", "4", "--seed", "8"]
        assert run([*argv, "--out", tmp_path / "fresh"]) == 0
        before = file_bytes(store)
        renamed, real = [], os.replace

        def replace(src, dst):
            renamed.append(Path(dst).name)
            if len(renamed) == k:
                raise OSError("rename failed")
            real(src, dst)

        monkeypatch.setattr("bioshares.codecs.os.replace", replace)
        capsys.readouterr()
        assert run([*argv, "--out", store]) == 3
        monkeypatch.undo()
        assert capsys.readouterr().err == "i/o error: rename failed\n"
        assert len(renamed) == k
        assert not [p for p in store.iterdir() if p.name.endswith(".tmp")]
        assert file_bytes(store) == {
            p: (tmp_path / "fresh" / p.name).read_bytes() if p.name in renamed[:-1] else data
            for p, data in before.items()}

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert run(["authenticate", tmp_path / "absent.json"]) == 3

    def test_share_dir_reads_shares_away_from_the_manifest(self, tmp_path, original, enrolled):
        _, path = original
        _, manifest_path, store = enrolled
        moved = tmp_path / "elsewhere" / manifest_path.name
        moved.parent.mkdir()
        moved.write_bytes(manifest_path.read_bytes())
        assert run(["authenticate", manifest_path, "--out", tmp_path / "a"]) == 0
        assert run(["authenticate", moved, "--share-dir", store, "--out", tmp_path / "b"]) == 0
        written = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in written:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        report = tmp_path / "report.json"
        assert run(["evaluate", path, manifest_path, "--report", report]) == 0
        plain = report.read_bytes()
        assert run(["evaluate", path, moved, "--share-dir", store, "--report", report]) == 0
        # the report names the manifest it was given; everything else is the same
        assert report.read_bytes() == plain.replace(
            json.dumps(str(manifest_path)).encode(), json.dumps(str(moved)).encode())

    @pytest.mark.parametrize("command", ["authenticate", "evaluate"])
    def test_empty_share_dir_is_integrity_error(self, tmp_path, original, enrolled, command):
        _, path = original
        _, manifest_path, _ = enrolled
        empty = tmp_path / "empty"
        empty.mkdir()
        args = [path] if command == "evaluate" else []
        assert run([command, *args, manifest_path, "--share-dir", empty]) == 4
        assert list(empty.iterdir()) == []

    # rewrites of a 24x16 share that no bioshares command writes; the P2 ones
    # decode to the same pixels or stop the general decoder, but a share must
    # be the exact P5 file, so each is refused before any decode
    SHARE_REWRITES = {
        "tail-1-byte": lambda b, px: b + b"x",
        "tail-16-MiB": lambda b, px: b + bytes(16 << 20),
        "p2": lambda b, px: b"P2\n24 16\n255\n" + b" ".join(b"%d" % v for v in px),
        "p2-zeros": lambda b, px: b"P2 24 16 255 " + b" ".join(
            b"0" * 5000 + b"%d" % v for v in px),
        "p2-5000-digits": lambda b, px: b"P2 24 16 255 " + b"9" * 5000 + b" "
            + b" ".join(b"%d" % v for v in px[1:]),
        "comment": lambda b, px: b"P5\n# a share\n24 16\n255\n" + px.tobytes(),
        "spaces": lambda b, px: b"P5 24 16 255 " + px.tobytes(),
        "maxval-254": lambda b, px: b"P5\n24 16\n254\n" + np.minimum(px, 254).tobytes(),
        "one-byte-short": lambda b, px: b[:-1],
        "swapped-dims": lambda b, px: b"P5\n16 24\n255\n" + px.tobytes(),
    }

    @pytest.mark.parametrize("command", ["authenticate", "evaluate"])
    @pytest.mark.parametrize("rewrite", list(SHARE_REWRITES))
    def test_share_not_as_written_is_refused(
            self, tmp_path, original, enrolled, capsys, monkeypatch, command, rewrite):
        _, manifest_path, store = enrolled
        share = store / "alice_share_1.pgm"
        written = share.read_bytes()
        assert len(written) == len(b"P5\n24 16\n255\n") + 24 * 16
        share.write_bytes(self.SHARE_REWRITES[rewrite](written, load_pgm(written).data))
        decoded = []
        monkeypatch.setattr(manifest_module, "load_pgm", decoded.append)
        before = (sorted(tmp_path.rglob("*")), file_bytes(tmp_path))
        capsys.readouterr()
        argv = {"authenticate": ["authenticate", manifest_path, "--out", tmp_path / "rec"],
                "evaluate": ["evaluate", original[1], manifest_path,
                             "--report", tmp_path / "r.json"]}[command]
        assert run(argv) == 4
        assert capsys.readouterr() == ("", (
            "integrity error: share file alice_share_1.pgm is not a valid share: not the P5 "
            "file enroll writes at the manifest's dimensions 24x16\n"))
        assert decoded == []
        assert (sorted(tmp_path.rglob("*")), file_bytes(tmp_path)) == before

    @pytest.mark.parametrize("command", ["authenticate", "evaluate"])
    def test_dims_past_the_pixel_ceiling_are_format_error(self, tmp_path, original, enrolled,
                                                          capsys, command):
        # the ceiling bounds the one read of each share
        _, manifest_path, _ = enrolled
        doc = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps({**doc, "dims": [8192, 8193]}))
        argv = {"authenticate": ["authenticate", manifest_path, "--out", tmp_path / "rec"],
                "evaluate": ["evaluate", original[1], manifest_path]}[command]
        assert run(argv) == 5
        assert capsys.readouterr().err == (
            "error: dims must be two positive sizes of at most 67108864 pixels in all, "
            "got [8192, 8193]\n")
        assert not (tmp_path / "rec").exists()

    def test_seed_override_with_wrong_count_is_usage_error(self, tmp_path, enrolled):
        _, manifest_path, _ = enrolled
        out = tmp_path / "rec"
        assert run(["authenticate", manifest_path, "--out", out, "--seeds", "1,2"]) == 2
        assert not out.exists()  # rejected before any reconstruction is written

    def test_seed_override_is_checked_for_every_method(self, tmp_path, original, capsys):
        # an m2 store takes n-1 seeds; a wrong override is refused, not ignored
        _, path = original
        store = tmp_path / "store"
        assert run(["enroll", path, "--out", store, "--method", "m2", "--seed", "3"]) == 0
        before = sorted(store.iterdir())
        out = tmp_path / "rec"
        assert run(["authenticate", store / "alice_manifest.json", "--out", out,
                    "--seeds", "1"]) == 2
        assert "method m2 takes 3 seeds, got 1" in capsys.readouterr().err
        assert not out.exists()
        assert sorted(store.iterdir()) == before

    def test_seed_override_is_judged_before_any_share_is_read(self, tmp_path, enrolled, capsys,
                                                              monkeypatch):
        _, manifest_path, store = enrolled
        (store / "alice_share_3.pgm").unlink()
        read = []
        monkeypatch.setattr(manifest_module, "load_pgm", read.append)
        out = tmp_path / "rec"
        assert run(["authenticate", manifest_path, "--out", out, "--seeds", "1,2"]) == 2
        assert capsys.readouterr().err == "error: method m3 takes 4 seeds, got 2\n"
        assert read == []
        assert not out.exists()

    def test_user_id_of_lone_surrogates_is_format_error(self, tmp_path, enrolled, capsys):
        # no file system name encodes it, so the store would fail while opening
        _, manifest_path, store = enrolled
        doc = json.loads(manifest_path.read_text())
        doc["user_id"] = "\ud800"
        doc["share_files"] = [f"\ud800_share_{i}.pgm" for i in range(1, 5)]
        manifest_path.write_text(json.dumps(doc))
        for argv in (["authenticate", manifest_path, "--out", tmp_path / "rec"],
                     ["evaluate", tmp_path / "alice.pgm", manifest_path]):
            assert run(argv) == 5
            assert capsys.readouterr().err == (
                "error: user_id must be a plain file name, got '\\ud800'\n")
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("command", ["authenticate", "evaluate"])
    def test_deeply_nested_manifest_is_format_error(self, tmp_path, enrolled, capsys, command):
        _, manifest_path, _ = enrolled
        manifest_path.write_text("[" * 2000 + "]" * 2000)
        if command == "authenticate":
            argv = [command, manifest_path, "--out", tmp_path / "rec"]
        else:
            argv = [command, tmp_path / "alice.pgm", manifest_path]
        assert run(argv) == 5
        assert capsys.readouterr().err == "error: manifest JSON is nested too deeply\n"
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("command", ["authenticate", "evaluate"])
    def test_integer_past_the_digit_limit_is_format_error(self, tmp_path, enrolled, capsys,
                                                          command):
        # json raises a plain ValueError for an integer of more than 4300 digits
        _, manifest_path, _ = enrolled
        manifest_path.write_text('{"schema": 1, "n": ' + "1" * 5000 + "}")
        if command == "authenticate":
            argv = [command, manifest_path, "--out", tmp_path / "rec"]
        else:
            argv = [command, tmp_path / "alice.pgm", manifest_path]
        assert run(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: Exceeds the limit (4300 digits) for integer string")
        assert "Traceback" not in err
        assert not (tmp_path / "rec").exists()

    def test_manifest_over_the_size_limit_is_format_error(self, tmp_path, enrolled, monkeypatch,
                                                          capsys):
        _, manifest_path, _ = enrolled
        size = manifest_path.stat().st_size
        monkeypatch.setattr(manifest_module, "MAX_MANIFEST_BYTES", size - 1)
        assert run(["authenticate", manifest_path, "--out", tmp_path / "rec"]) == 5
        assert capsys.readouterr().err == (
            f"error: manifest exceeds the limit of {size - 1} bytes\n")
        assert not (tmp_path / "rec").exists()
        # a manifest of exactly MAX_MANIFEST_BYTES is read
        monkeypatch.setattr(manifest_module, "MAX_MANIFEST_BYTES", size)
        assert run(["authenticate", manifest_path, "--out", tmp_path / "rec"]) == 0

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {k: v for k, v in doc.items() if k != "user_id"}, "'user_id' is missing"),
            (lambda doc: {k: v for k, v in doc.items() if k != "dims"}, "'dims' is missing"),
            (lambda doc: {**doc, "dims": [16]}, "'dims' is invalid"),
            (lambda doc: {**doc, "dims": [0, 5]}, "dims must be two positive sizes"),
            (lambda doc: {**doc, "dims": [-40, -30]}, "dims must be two positive sizes"),
            (lambda doc: [doc], "must be a JSON object"),
            # a JSON string must not pass as the array of its characters
            (lambda doc: {**doc, "content_digests": "a" * doc["n"]},
             "'content_digests' is invalid: expected a JSON array"),
            (lambda doc: {**doc, "seeds": "1" * len(doc["seeds"])},
             "'seeds' is invalid: expected a JSON array"),
            (lambda doc: {**doc, "dims": "44"}, "'dims' is invalid: expected a JSON array"),
            (lambda doc: {**doc, "cover_sources": "xy"},
             "'cover_sources' is invalid: expected a JSON array"),
            (lambda doc: {**doc, "n": 4.9}, "'n' is invalid: expected an integer"),
            (lambda doc: {**doc, "bit_transform": "rotate:+3"},
             "'bit_transform' is invalid: bad bit transform descriptor 'rotate:+3'"),
        ],
        ids=["no-user-id", "no-dims", "one-dim", "zero-dim", "negative-dims",
             "top-level-array", "string-digests", "string-seeds", "string-dims",
             "string-cover-sources", "fractional-n", "signed-rotation"],
    )
    def test_malformed_manifest_is_format_error(self, tmp_path, enrolled, capsys, edit, message):
        _, manifest_path, _ = enrolled
        manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
        assert run(["authenticate", manifest_path, "--out", tmp_path / "rec"]) == 5
        assert message in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()


    @pytest.mark.parametrize(
        "rewrite",
        [lambda t: f" {t} ", lambda t: f"{t[:1]}_{t[1:]}", lambda t: f"+{t}",
         lambda t: t.translate({ord(c): 0x0660 + int(c) for c in "0123456789"}),
         lambda t: "-" + t, lambda t: "", lambda t: t + "0" * 20],
        ids=["spaces", "underscore", "plus", "arabic-indic-digits", "negative", "empty",
             "above-u64"],
    )
    def test_non_decimal_manifest_seed_is_format_error(
            self, tmp_path, enrolled, capsys, rewrite):
        # each rewrite names the same integer for Python's int() or fails it,
        # yet none is a decimal u64 string
        _, manifest_path, _ = enrolled
        doc = json.loads(manifest_path.read_text())
        doc["seeds"][1] = rewrite(doc["seeds"][1])
        manifest_path.write_text(json.dumps(doc))
        assert run(["authenticate", manifest_path, "--out", tmp_path / "rec"]) == 5
        assert "'seeds' is invalid: seed must be decimal digits" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_share_file_outside_store_is_format_error(self, tmp_path, enrolled, capsys):
        # a valid share placed next to the store must still not be read
        _, manifest_path, store = enrolled
        (tmp_path / "outside.pgm").write_bytes((store / "alice_share_1.pgm").read_bytes())
        doc = json.loads(manifest_path.read_text())
        doc["share_files"][0] = "../outside.pgm"
        manifest_path.write_text(json.dumps(doc))
        assert run(["authenticate", manifest_path, "--out", tmp_path / "rec"]) == 5
        assert ("'share_files' must list alice_share_1.pgm .. alice_share_4.pgm"
                in capsys.readouterr().err)
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("edit", [
        lambda names: [n.replace("alice", "bob") for n in names],
        lambda names: names[::-1],
        lambda names: names[:-1],
        lambda names: ["alice_reconstructed_secret.pgm", *names[1:]],
    ], ids=["renamed", "reordered", "shortened", "an-output"])
    def test_share_list_other_than_the_derived_one_is_format_error(
            self, tmp_path, enrolled, capsys, edit):
        # a stored name the store would not give could point at any file,
        # even one authenticate is about to write
        _, manifest_path, store = enrolled
        doc = json.loads(manifest_path.read_text())
        for i, name in enumerate(edit(doc["share_files"])):
            if not (store / name).exists():
                (store / name).write_bytes((store / f"alice_share_{i + 1}.pgm").read_bytes())
        doc["share_files"] = edit(doc["share_files"])
        manifest_path.write_text(json.dumps(doc))
        before = file_bytes(tmp_path)
        assert run(["authenticate", manifest_path]) == 5
        assert "manifest field 'share_files' must list" in capsys.readouterr().err
        assert file_bytes(tmp_path) == before

    @pytest.mark.parametrize("name", ["alice_reconstructed_secret.pgm",
                                      "alice_reconstructed_cover_2.pgm",
                                      "alice_revealed_original.pgm"])
    def test_output_over_the_manifest_is_usage_error(self, tmp_path, enrolled, capsys,
                                                     monkeypatch, name):
        # the user names the manifest, so only the resolved paths can tell
        _, manifest_path, store = enrolled
        moved = manifest_path.rename(store / name)
        before = file_bytes(tmp_path)
        read = []
        monkeypatch.setattr("bioshares.manifest.load_pgm", read.append)
        capsys.readouterr()
        assert run(["authenticate", moved, "--out", store / ".." / "store"]) == 2
        out, err = capsys.readouterr()
        assert err == ("error: the reconstruction would overwrite the input "
                       f"{store}/../store/{name}\n")
        assert (out, read) == ("", [])
        assert file_bytes(tmp_path) == before

    def test_user_id_outside_out_is_format_error(self, tmp_path, enrolled, capsys):
        _, manifest_path, _ = enrolled
        doc = json.loads(manifest_path.read_text())
        doc["user_id"] = "../escaped"
        manifest_path.write_text(json.dumps(doc))
        assert run(["authenticate", manifest_path, "--out", tmp_path / "rec"]) == 5
        assert "user_id must be a plain file name" in capsys.readouterr().err
        assert not list(tmp_path.rglob("escaped*"))
        assert not (tmp_path / "rec").exists()


class TestEvaluate:
    def test_identity_manifest_yields_ideal_row(self, tmp_path, original, capsys):
        img, path = original
        store = tmp_path / "store"
        store.mkdir()
        # degenerate manifest: two copies of the original as "shares"
        names = []
        for i in (1, 2):
            name = f"alice_share_{i}.pgm"
            write_pgm_file(img, store / name)
            names.append(name)
        manifest = {
            "schema": 1, "user_id": "alice", "method": "m2", "n": 2,
            "bit_transform": "reverse8", "seeds": ["5"], "dims": list(img.dims),
            "share_files": names, "digest_algorithm": "sha256",
            "content_digests": [pixel_digest(img)] * 2, "cover_sources": [],
        }
        manifest_path = store / "alice_manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        report_path = tmp_path / "report.json"
        assert run(["evaluate", path, manifest_path, "--report", report_path]) == 0
        doc = json.loads(report_path.read_text())
        averaged = report_from_dict(doc["metrics"])
        assert averaged.cr == 1.0
        assert averaged.mse == 0.0
        assert averaged.psnr == float("inf")
        assert averaged.ssim == 1.0
        assert averaged.npcr == 0.0
        assert averaged.uaci == 0.0
        table = capsys.readouterr().out
        assert "measure" in table and "ideal" in table

    def test_report_json_round_trips(self, tmp_path, original):
        _, path = original
        store = tmp_path / "store"
        assert run(["enroll", path, "--out", store, "--method", "m3", "--seed", "5"]) == 0
        report_path = tmp_path / "report.json"
        assert run(["evaluate", path, store / "alice_manifest.json",
                    "--report", report_path]) == 0
        doc = json.loads(report_path.read_text())
        assert doc["pairs"] == 4
        averaged = report_from_dict(doc["metrics"])
        per_share = [report_from_dict(d) for d in doc["per_share"]]
        assert averaged.npcr == pytest.approx(sum(r.npcr for r in per_share) / 4)

    @pytest.mark.parametrize("target", ["original", "manifest", "share"])
    def test_report_over_an_input_is_usage_error(self, tmp_path, original, capsys, target):
        _, path = original
        store = tmp_path / "store"
        assert run(["enroll", path, "--out", store, "--method", "m3", "--seed", "5"]) == 0
        manifest = store / "alice_manifest.json"
        named = {"original": path, "manifest": manifest, "share": store / "alice_share_2.pgm"}
        report = named[target].parent / ".." / named[target].parent.name / named[target].name
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run(["evaluate", path, manifest, "--report", report]) == 2
        out, err = capsys.readouterr()
        assert f"error: the JSON report would overwrite the input {report}" in err
        assert out == ""
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_report_link_loop_is_replaced(self, tmp_path, original, capsys):
        # the report is renamed into place, so the link is replaced, not followed
        _, path = original
        store = tmp_path / "store"
        assert run(["enroll", path, "--out", store, "--method", "m3", "--seed", "5"]) == 0
        (tmp_path / "a").symlink_to(tmp_path / "b")
        (tmp_path / "b").symlink_to(tmp_path / "a")
        capsys.readouterr()
        assert run(["evaluate", path, store / "alice_manifest.json",
                    "--report", tmp_path / "a"]) == 0
        assert capsys.readouterr().err == ""
        assert not (tmp_path / "a").is_symlink() and (tmp_path / "a").is_file()
        assert json.loads((tmp_path / "a").read_text())["pairs"] == 4
        assert os.readlink(tmp_path / "b") == str(tmp_path / "a")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("report", ["fifo", "link"])
    def test_report_at_a_fifo_is_refused(self, tmp_path, original, report):
        # an open would block and a rename would swap the FIFO out; in a
        # subprocess, so that a hang fails on the timeout
        assert run(["enroll", original[1], "--out", tmp_path / "st", "--seed", "5"]) == 0
        os.mkfifo(tmp_path / "fifo")
        (tmp_path / "link").symlink_to("fifo")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-m", "bioshares", "evaluate", "alice.pgm",
                               "st/alice_manifest.json", "--report", report],
                              cwd=tmp_path, env=env, capture_output=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, b"", f"error: the JSON report {report} names no file\n".encode())
        assert stat.S_ISFIFO((tmp_path / "fifo").lstat().st_mode)
        assert os.readlink(tmp_path / "link") == "fifo"

    def test_untyped_error_propagates(self, tmp_path, original, monkeypatch):
        # only the documented error types have exit codes; any other
        # exception is a bug and must show its traceback
        _, path = original
        store = tmp_path / "store"
        assert run(["enroll", path, "--out", store, "--method", "m3", "--seed", "5"]) == 0

        def broken(original, share):
            raise ValueError("a bug in the metrics")

        monkeypatch.setattr("bioshares.cli.report_all", broken)
        with pytest.raises(ValueError, match="a bug in the metrics"):
            run(["evaluate", path, store / "alice_manifest.json"])

    def test_dimension_mismatch_is_format_error(self, tmp_path, original):
        img, path = original
        store = tmp_path / "store"
        assert run(["enroll", path, "--out", store, "--method", "m3", "--seed", "5"]) == 0
        other = tmp_path / "other.pgm"
        write_pgm_file(GrayImage.filled(3, 3, 7), other)
        assert run(["evaluate", other, store / "alice_manifest.json"]) == 5


class TestBatch:
    @pytest.fixture
    def corpus(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        for i in range(6):
            write_pgm_file(textured_image(i, 16, 16), root / f"img_{i:02d}.pgm")
        return root

    def test_reports_and_determinism(self, tmp_path, corpus, capsys):
        report_a = tmp_path / "a" / "report.json"
        report_b = tmp_path / "b" / "report.json"
        for report in (report_a, report_b):
            assert run(["batch", corpus, "--dataset-kind", "flat", "--method", "m3",
                        "--shares", "3", "--seed", "12345", "--report", report]) == 0
        assert report_a.read_bytes() == report_b.read_bytes()
        assert report_a.with_suffix(".csv").read_bytes() == report_b.with_suffix(".csv").read_bytes()
        doc = json.loads(report_a.read_text())
        assert doc["images"] == 6
        assert doc["pairs"] == 18
        assert doc["master_seed"] == "12345"
        csv_lines = report_a.with_suffix(".csv").read_text().strip().splitlines()
        assert csv_lines[0] == "index,path,cr,mse,rmse,mae,psnr,ssim,npcr,uaci"
        assert len(csv_lines) == 7

    def test_aggregate_identity_uaci_mae(self, tmp_path, corpus):
        report = tmp_path / "report.json"
        assert run(["batch", corpus, "--report", report, "--seed", "9"]) == 0
        metrics = json.loads(report.read_text())["metrics"]
        assert metrics["uaci"] == pytest.approx(100.0 * metrics["mae"] / 255.0, rel=1e-9)

    def test_undecodable_files_skipped(self, tmp_path, corpus, capsys):
        (corpus / "broken.pgm").write_bytes(b"P5\n9 9\n255\nx")
        report = tmp_path / "report.json"
        assert run(["batch", corpus, "--report", report, "--seed", "4"]) == 0
        doc = json.loads(report.read_text())
        assert doc["skipped"] == 1
        assert doc["images"] == 6
        err = capsys.readouterr().err
        assert "skipping broken.pgm: truncated pixel payload" in err
        assert "skipped 1 unreadable/undecodable files\n" in err

    def test_degenerate_image_skipped(self, tmp_path, corpus, capsys):
        write_pgm_file(GrayImage.filled(1, 1, 9), corpus / "one.pgm")
        report = tmp_path / "report.json"
        assert run(["batch", corpus, "--report", report, "--seed", "4"]) == 0
        doc = json.loads(report.read_text())
        assert (doc["images"], doc["skipped"]) == (6, 1)
        err = capsys.readouterr().err
        assert "skipping one.pgm: degenerate 1x1 image\n" in err
        assert "skipped 1 unreadable/undecodable files\n" in err

    def test_every_file_skipped_is_io_error(self, tmp_path, capsys):
        root = tmp_path / "bad"
        root.mkdir()
        write_pgm_file(GrayImage.filled(1, 1, 9), root / "one.pgm")
        (root / "two.pgm").write_bytes(b"P5\n9 9\n255\nx")
        report = tmp_path / "report.json"
        assert run(["batch", root, "--report", report, "--seed", "4"]) == 3
        err = capsys.readouterr().err
        assert err.endswith(f"error: no decodable images under {root} (2 skipped)\n")
        assert "skipping one.pgm: degenerate 1x1 image" in err
        assert not report.exists()

    def test_digit_runs_past_int_limit_decode_or_are_skipped(self, tmp_path, corpus, capsys):
        (corpus / "zeros.pgm").write_bytes(b"P2 2 1 255 " + b"0" * 5000 + b"7 1")
        (corpus / "nines.pgm").write_bytes(b"P2 2 1 255 " + b"9" * 5000 + b" 1")
        report = tmp_path / "report.json"
        assert run(["batch", corpus, "--report", report, "--seed", "4"]) == 0
        doc = json.loads(report.read_text())
        assert (doc["images"], doc["skipped"]) == (7, 1)
        err = capsys.readouterr().err
        assert ("skipping nines.pgm: pixel value of more than 20 digits exceeds maxval 255"
                " (byte offset 11)\n") in err

    def test_share_count_above_max_is_usage_error(self, tmp_path, corpus, capsys):
        report = tmp_path / "report.json"
        assert run(["batch", corpus, "--shares", "200000000", "--report", report]) == 2
        err = capsys.readouterr().err
        assert "--shares must be between 2 and 64" in err
        assert "Traceback" not in err
        assert not report.exists()

    def test_explicit_csv_path(self, tmp_path, corpus):
        report, rows = tmp_path / "a" / "report.json", tmp_path / "b" / "rows.csv"
        assert run(["batch", corpus, "--seed", "4", "--report", report, "--csv", rows]) == 0
        assert json.loads(report.read_text())["images"] == 6
        lines = rows.read_text().splitlines()
        assert lines[0] == "index,path,cr,mse,rmse,mae,psnr,ssim,npcr,uaci"
        assert len(lines) == 7
        assert not report.with_suffix(".csv").exists()

    @pytest.mark.parametrize("report, csv", [("out/r.csv", None), ("r.json", "r.json"),
                                             ("out/r.json", "out/../out/r.json")],
                             ids=["report-named-csv", "csv-names-report", "same-file-resolved"])
    def test_csv_over_the_report_is_usage_error(self, tmp_path, corpus, capsys, monkeypatch,
                                                report, csv):
        read = []
        monkeypatch.setattr("bioshares.batch.load_image_file", read.append)
        monkeypatch.chdir(tmp_path)
        argv = ["batch", corpus, "--report", report] + (["--csv", csv] if csv else [])
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert f"error: the per-image CSV would overwrite the JSON report {report}" in err
        assert (out, read) == ("", [])
        assert not (tmp_path / report).exists()

    @pytest.mark.parametrize("flags", [["--report", "corpus/img_00.pgm"],
                                       ["--report", "out/r.json", "--csv", "corpus/img_03.pgm"],
                                       ["--report", "corpus/../corpus/img_05.pgm"]],
                             ids=["report", "csv", "report-resolved"])
    def test_output_over_a_corpus_image_is_usage_error(self, tmp_path, corpus, capsys,
                                                       monkeypatch, flags):
        read = []
        monkeypatch.setattr("bioshares.batch.load_image_file", read.append)
        monkeypatch.chdir(tmp_path)
        before = file_bytes(tmp_path)
        assert run(["batch", corpus, *flags]) == 2
        out, err = capsys.readouterr()
        assert f"would overwrite the input {flags[-1]}\n" in err
        assert (out, read) == ("", [])
        assert file_bytes(tmp_path) == before

    @pytest.mark.parametrize("kind, flags", [
        ("flat", ["--report", "corpus/summary.pgm"]),
        ("flat", ["--report", "out/r.json", "--csv", "corpus/rows.BMP"]),
        ("flat", ["--report", "out/../corpus/summary.pgm"]),
        ("orl-pgm", ["--report", "corpus/s1/new.pgm"]),
    ], ids=["flat-report", "flat-csv", "flat-report-resolved", "orl-report"])
    def test_output_the_next_walk_would_take_is_usage_error(self, tmp_path, corpus, capsys,
                                                            monkeypatch, kind, flags):
        # a later batch over the corpus would read it as an image
        (corpus / "s1").mkdir()
        write_pgm_file(textured_image(9, 16, 16), corpus / "s1" / "1.pgm")
        read = []
        monkeypatch.setattr("bioshares.batch.load_image_file", read.append)
        monkeypatch.chdir(tmp_path)
        before = file_bytes(tmp_path)
        assert run(["batch", "corpus", "--dataset-kind", kind, *flags]) == 2
        out, err = capsys.readouterr()
        label = "per-image CSV" if "--csv" in flags else "JSON report"
        assert err == f"error: the {label} {flags[-1]} would become an image of the corpus corpus\n"
        assert (out, read) == ("", [])
        assert file_bytes(tmp_path) == before

    @pytest.mark.parametrize("link, target, flags", [
        ("corpus/summary.pgm", "../elsewhere/x.pgm", ["--report", "corpus/summary.pgm"]),
    ], ids=["dangling-link-in-corpus"])
    def test_output_linked_into_the_walk_is_usage_error(self, tmp_path, corpus, capsys,
                                                         monkeypatch, link, target, flags):
        # the walk would take the link itself
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "out").mkdir()
        (tmp_path / link).symlink_to(target)
        read = []
        monkeypatch.setattr("bioshares.batch.load_image_file", read.append)
        monkeypatch.chdir(tmp_path)
        before = file_bytes(tmp_path)
        assert run(["batch", "corpus", *flags]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: the JSON report {flags[-1]} would become an image of the corpus corpus\n"
        assert (out, read) == ("", [])
        assert file_bytes(tmp_path) == before
        assert not (tmp_path / link).exists()  # still dangling: nothing written through it

    def test_output_link_into_the_walk_is_replaced(self, tmp_path, corpus, capsys,
                                                   monkeypatch):
        # the report is renamed over the link, so nothing lands in the corpus
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "r.pgm").symlink_to("../corpus/new.pgm")
        monkeypatch.chdir(tmp_path)
        before = file_bytes(corpus)
        assert run(["batch", "corpus", "--report", "out/r.pgm"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = tmp_path / "out" / "r.pgm"
        assert not report.is_symlink() and report.is_file()
        assert json.loads(report.read_text())["images"] == 6
        assert not os.path.lexists(corpus / "new.pgm")
        assert file_bytes(corpus) == before

    @pytest.mark.parametrize("report", [".", "/"])
    def test_report_naming_no_file_is_usage_error(self, tmp_path, corpus, capsys, monkeypatch,
                                                  report):
        read = []
        monkeypatch.setattr("bioshares.batch.load_image_file", read.append)
        monkeypatch.chdir(tmp_path)
        before = file_bytes(tmp_path)
        assert run(["batch", corpus, "--report", report]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: the JSON report {report} names no file\n"
        assert (out, read) == ("", [])
        assert file_bytes(tmp_path) == before

    def test_report_beside_the_corpus_images_is_kept(self, tmp_path, corpus, capsys):
        # neither the JSON nor its CSV has a suffix the walk takes
        report = corpus / "summary.json"
        assert run(["batch", corpus, "--seed", "4", "--report", report]) == 0
        assert json.loads(report.read_text())["images"] == 6
        assert report.with_suffix(".csv").exists()
        assert run(["batch", corpus, "--seed", "4", "--report", report]) == 0
        assert json.loads(report.read_text())["images"] == 6

    def test_empty_corpus_is_io_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["batch", empty, "--seed", "1"]) == 3

    def test_nested_tree_kind(self, tmp_path):
        root = tmp_path / "orl"
        for subject in ("s1", "s2"):
            (root / subject).mkdir(parents=True)
            for i in (1, 2):
                write_pgm_file(textured_image(i, 12, 12), root / subject / f"{i}.pgm")
        report = tmp_path / "report.json"
        assert run(["batch", root, "--dataset-kind", "orl-pgm", "--seed", "2",
                    "--report", report]) == 0
        assert json.loads(report.read_text())["images"] == 4


class TestJudgedBeforeAnyWork:
    """A user id no store name can be made from, and an output path no file
    can take (an existing directory, or a path below a file), exit 2 before
    any image or share is read: nothing decoded, printed or written."""

    CASES = {
        "enroll-user-outside-out": lambda t: (
            ["enroll", t.path, "--out", t.out, "--user", "../x", "--seed", "1"],
            "user_id must be a plain file name, got '../x'"),
        "enroll-out-file": lambda t: (
            ["enroll", t.path, "--out", t.path, "--seed", "1"],
            f"the enrollment {t.path}/alice_share_1.pgm lies below {t.path}, "
            "which is not a directory"),
        "enroll-out-below-file": lambda t: (
            ["enroll", t.path, "--out", t.path / "sub", "--seed", "1"],
            f"the enrollment {t.path}/sub/alice_share_1.pgm lies below {t.path}, "
            "which is not a directory"),
        "authenticate-out-file": lambda t: (
            ["authenticate", t.manifest, "--out", t.path],
            f"the reconstruction {t.path}/alice_reconstructed_secret.pgm lies below "
            f"{t.path}, which is not a directory"),
        "evaluate-report-dir": lambda t: (
            ["evaluate", t.path, t.manifest, "--report", t.dir],
            f"the JSON report {t.dir} names no file"),
        "batch-csv-dir": lambda t: (
            ["batch", t.corpus, "--csv", t.dir], f"the per-image CSV {t.dir} names no file"),
        "batch-report-dir": lambda t: (
            ["batch", t.corpus, "--report", t.dir], f"the JSON report {t.dir} names no file"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_before_any_read(self, tmp_path, original, capsys, monkeypatch, case):
        _, path = original
        store, corpus = tmp_path / "store", tmp_path / "corpus"
        assert run(["enroll", path, "--out", store, "--seed", "5"]) == 0
        corpus.mkdir()
        write_pgm_file(textured_image(4, 16, 16), corpus / "a.pgm")
        (tmp_path / "dir").mkdir()
        t = SimpleNamespace(path=path, out=tmp_path / "a" / "out", corpus=corpus,
                            manifest=store / "alice_manifest.json", dir=tmp_path / "dir")
        argv, message = self.CASES[case](t)

        def refuse(*args, **kwargs):
            raise AssertionError("read before the refusal")

        for name in ("load_image_file", "load_share_set", "run_batch"):
            monkeypatch.setattr(f"bioshares.cli.{name}", refuse)
        before = (sorted(tmp_path.rglob("*")), file_bytes(tmp_path))
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert (sorted(tmp_path.rglob("*")), file_bytes(tmp_path)) == before

    # output paths below symbolic links that lead nowhere a file can be written,
    # with `dangling -> nowhere` and `loop <-> loop2`
    LINK_CASES = {
        "enroll-out-dangling": (["enroll", "alice.pgm", "--out", "dangling", "--seed", "1"],
                                "the enrollment dangling/alice_share_1.pgm lies below dangling, "
                                "which is not a directory"),
        "enroll-out-loop": (["enroll", "alice.pgm", "--out", "loop", "--seed", "1"],
                            "the enrollment loop/alice_share_1.pgm lies below loop, "
                            "which is not a directory"),
        "report-below-dangling": (["evaluate", "alice.pgm", "store/alice_manifest.json",
                                   "--report", "dangling/r.json"],
                                  "the JSON report dangling/r.json lies below dangling, "
                                  "which is not a directory"),
    }

    @pytest.fixture
    def links(self, tmp_path, original, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["enroll", "alice.pgm", "--out", "store", "--seed", "5"]) == 0
        for link, target in [("dangling", "nowhere"), ("loop", "loop2"), ("loop2", "loop"),
                             ("dl2", "nowhere/r.json"), ("dl3", "r2.json")]:
            Path(link).symlink_to(target)
        return tmp_path

    @pytest.mark.parametrize("case", list(LINK_CASES))
    def test_link_to_no_directory_is_refused_before_any_read(self, links, capsys, monkeypatch,
                                                             case):
        argv, message = self.LINK_CASES[case]

        def refuse(*args, **kwargs):
            raise AssertionError("read before the refusal")

        for name in ("load_image_file", "load_share_set"):
            monkeypatch.setattr(f"bioshares.cli.{name}", refuse)
        before = (sorted(links.rglob("*")), file_bytes(links))
        capsys.readouterr()
        assert run(argv) == 2
        expected = message.format(tmp=os.path.realpath(links))
        assert capsys.readouterr() == ("", f"error: {expected}\n")
        assert (sorted(links.rglob("*")), file_bytes(links)) == before

    @pytest.mark.parametrize("link, target", [("dl2", "nowhere/r.json"), ("dl3", "r2.json")],
                             ids=["report-link-into-nowhere", "report-link-into-a-directory"])
    def test_report_link_is_replaced(self, links, link, target):
        # the report is renamed over the link, so nothing is written where it leads
        assert run(["evaluate", "alice.pgm", "store/alice_manifest.json", "--report", link]) == 0
        assert not Path(link).is_symlink() and Path(link).is_file()
        assert json.loads(Path(link).read_text())["pairs"] == 4
        assert not os.path.lexists(target) and not Path("nowhere").exists()


class TestHardLinkedOutputs:
    """An output that is a hard link to an input names the input's file, so
    the command exits 2 before any work and every file stays as it was."""

    CASES = {
        "enroll-share": ("alice.pgm", "st/alice_share_1.pgm", "enrollment",
                         ["enroll", "alice.pgm", "--out", "st", "--seed", "1"]),
        "evaluate-report": ("alice.pgm", "rep.json", "JSON report",
                            ["evaluate", "alice.pgm", "store/alice_manifest.json",
                             "--report", "rep.json"]),
        "batch-report": ("corpus/f0.pgm", "out/r.json", "JSON report",
                         ["batch", "corpus", "--report", "out/r.json"]),
        "authenticate-reconstruction": (
            "store/alice_share_2.pgm", "rec/alice_reconstructed_secret.pgm", "reconstruction",
            ["authenticate", "store/alice_manifest.json", "--out", "rec"]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_with_every_file_kept(self, tmp_path, original, capsys, monkeypatch, case):
        source, link, label, argv = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        assert run(["enroll", "alice.pgm", "--out", "store", "--seed", "5"]) == 0
        for name in ("corpus", "st", "out", "rec"):
            (tmp_path / name).mkdir()
        for i in range(3):
            write_pgm_file(textured_image(20 + i, 8, 8), tmp_path / "corpus" / f"f{i}.pgm")
        os.link(source, link)
        before = (sorted(tmp_path.rglob("*")), file_bytes(tmp_path))
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: the {label} would overwrite the input {link}\n")
        assert (sorted(tmp_path.rglob("*")), file_bytes(tmp_path)) == before
        assert os.path.samefile(source, link)


def test_paths_print_under_a_strict_stdout(tmp_path, original):
    # a path byte that is not UTF-8 reaches Python as a lone surrogate, which
    # a strict stdout cannot encode; it prints as a backslash escape
    _, path = original
    store = os.fsencode(tmp_path) + b"/st\xff"
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    printed = []
    for argv in (["enroll", path, "--out", store, "--seed", "1"],
                 ["authenticate", store + b"/alice_manifest.json", "--out", store + b"/rec"],
                 ["evaluate", path, store + b"/alice_manifest.json", "--report", store + b"/r.json"]):
        done = subprocess.run([sys.executable, "-m", "bioshares", *argv], env=env,
                              capture_output=True, timeout=120)
        assert (done.returncode, b"Traceback" in done.stderr) == (0, False), done.stderr
        printed.append(done.stdout)
    escaped = os.fsencode(tmp_path) + b"/st\\udcff"
    assert printed[0].endswith(b" -> " + escaped + b"/alice_manifest.json\n")
    assert printed[1].endswith(b"revealed original -> " + escaped
                               + b"/rec/alice_revealed_original.pgm\n")
    assert printed[2].endswith(b"report -> " + escaped + b"/r.json\n")
    stored = Path(os.fsdecode(store))
    assert sorted(p.name for p in stored.iterdir()) == [
        "alice_manifest.json", *(f"alice_share_{i}.pgm" for i in range(1, 5)), "r.json", "rec"]
    assert load_manifest(stored / "alice_manifest.json").user_id == "alice"


class TestNoCommandWritesOverItsInputs:
    """Each path a command writes is drawn from the command's own inputs and
    from fresh names, spelled directly or through a `dir/../dir` detour, and a
    fresh name may be made a hard link to a drawn input. The command exits 2
    exactly when an output names the file of an input or of another output,
    else 0, and every input byte is unchanged either way."""

    @pytest.fixture(scope="class")
    def template(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("template")
        write_pgm_file(textured_image(3, 12, 10), root / "alice.pgm")
        for k in range(3):
            write_pgm_file(textured_image(10 + k, 12, 10), root / f"c{k}.pgm")
        (root / "corpus").mkdir()
        for i in range(3):
            write_pgm_file(textured_image(20 + i, 8, 8), root / "corpus" / f"f{i}.pgm")
        assert run(["enroll", root / "alice.pgm", "--out", root / "store", "--method", "m3",
                    "--seed", "7"]) == 0
        return root

    @staticmethod
    def command(command, root, draw):
        """(argv, paths read, paths written) for one drawn command under `root`."""
        shares = [f"store/alice_share_{i}.pgm" for i in range(1, 5)]
        if command == "enroll":
            images = ["alice.pgm", "c0.pgm", "c1.pgm", "c2.pgm", *shares]
            reads = [draw(images) for _ in range(4)]
            out, user = draw(["store", "out"]), draw(["alice", "bob"])
            writes = [f"{out}/{user}_share_{i}.pgm" for i in range(1, 5)]
            writes.append(f"{out}/{user}_manifest.json")
            argv = ["enroll", reads[0], "--out", out, "--user", user, "--method", "m1"]
            for cover in reads[1:]:
                argv += ["--cover", cover]
        elif command == "authenticate":
            manifest = "store/" + draw(["alice_manifest.json", "alice_reconstructed_secret.pgm",
                                        "alice_reconstructed_cover_3.pgm",
                                        "alice_revealed_original.pgm"])
            if not (root / manifest).exists():
                shutil.copy(root / "store" / "alice_manifest.json", root / manifest)
            out = draw(["store", "rec"])
            reads = [manifest, *shares]
            writes = [f"{out}/alice_reconstructed_{name}.pgm"
                      for name in ("secret", "cover_1", "cover_2", "cover_3")]
            writes.append(f"{out}/alice_revealed_original.pgm")
            argv = ["authenticate", manifest, "--out", out]
        elif command == "evaluate":
            reads = ["alice.pgm", "store/alice_manifest.json", *shares]
            writes = [draw([*reads, "report.json", "store/new.json"])]
            argv = ["evaluate", reads[0], reads[1], "--report", writes[0]]
        else:
            reads = [f"corpus/f{i}.pgm" for i in range(3)]
            report = draw(["corpus/f0.pgm", "out/r.json", "out/r.csv", "r.json"])
            csv = draw([None, "corpus/f1.pgm", "out/r.json", "out/x.csv"])
            argv = ["batch", "corpus", "--method", "m3", "--shares", "2", "--report", report]
            if csv is not None:
                argv += ["--csv", csv]
            writes = [report, csv or str(Path(report).with_suffix(".csv"))]
        return argv, reads, writes

    @pytest.mark.parametrize("command", ["enroll", "authenticate", "evaluate", "batch"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_drawn_outputs(self, template, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "t"
            shutil.copytree(template, root)
            argv, reads, writes = self.command(
                command, root, lambda options: data.draw(st.sampled_from(options)))
            spelled = {}
            for rel in dict.fromkeys([*reads, *writes]):  # in a fixed order, for replay
                head, _, name = rel.rpartition("/")
                detour = head and data.draw(st.booleans(), label=f"detour {rel}")
                spelled[rel] = f"{head}/../{head}/{name}" if detour else rel
                if rel in writes and not (root / rel).exists() and data.draw(
                        st.booleans(), label=f"link {rel}"):
                    (root / rel).parent.mkdir(exist_ok=True)
                    os.link(root / data.draw(st.sampled_from(reads)), root / rel)
            argv = [str(root / spelled[a]) if a in spelled else a for a in argv]
            argv = [str(root / a) if a in ("corpus", "store", "out", "rec") else a for a in argv]

            def file_of(rel):
                path = root / rel
                return (path.stat().st_dev, path.stat().st_ino) if path.exists() else (
                    os.path.realpath(path))

            real = {file_of(rel) for rel in reads}
            clash = any(file_of(w) in real for w in writes) or (
                len({file_of(w) for w in writes}) < len(writes))
            before = {rel: (root / rel).read_bytes() for rel in reads}
            assert run(argv) == (2 if clash else 0)
            assert {rel: (root / rel).read_bytes() for rel in reads} == before


def _commands_stay_within_memory_budgets(tmp_path, variant):
    """Enroll, authenticate and evaluate one 512x512 texture under `variant`,
    each within its PEAK_BYTES_PER_PIXEL budget; returns the original."""
    img = textured_image(3, 512, 512)
    path = tmp_path / "alice.pgm"
    write_pgm_file(img, path)
    method = variant.split("-")[0]
    source = ["--seed", "7"]
    if variant == "m1-cover":
        source = []
        for k in range(3):
            write_pgm_file(textured_image(10 + k, 512, 512), tmp_path / f"cover{k}.pgm")
            source += ["--cover", tmp_path / f"cover{k}.pgm"]
    manifest = tmp_path / "store" / "alice_manifest.json"
    commands = {
        "enroll": ["enroll", path, "--out", tmp_path / "store", "--method", method, *source],
        "authenticate": ["authenticate", manifest, "--out", tmp_path / "rec"],
        "evaluate": ["evaluate", path, manifest],
    }
    budgets = PEAK_BYTES_PER_PIXEL[variant]
    for name, argv in commands.items():
        code, peak = traced(run, argv)
        assert code == 0, name
        assert peak < budgets[name] * img.pixel_count, (name, peak)
    return img


def test_m3_commands_stay_within_memory_budgets(tmp_path):
    img = _commands_stay_within_memory_budgets(tmp_path, "m3")
    # the reveal ran, and it is the original
    assert load_image_file(tmp_path / "rec" / "alice_revealed_original.pgm") == img


@pytest.mark.parametrize("variant", ["m2", "m1-seed", "m1-cover"])
def test_m1_m2_commands_stay_within_memory_budgets(tmp_path, variant):
    img = _commands_stay_within_memory_budgets(tmp_path, variant)
    assert load_image_file(tmp_path / "rec" / "alice_reconstructed_secret.pgm") == img
