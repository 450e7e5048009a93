import json

import numpy as np
import pytest

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

    def test_user_outside_out_is_usage_error(self, tmp_path, original, capsys):
        _, path = original
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "a" / "b" / "out"
        assert run(["enroll", path, "--out", out, "--user", "../../x", "--seed", "1"]) == 2
        assert "user_id must be a plain file name" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

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
        assert "truncated pixel payload" in capsys.readouterr().err

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

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert run(["authenticate", tmp_path / "absent.json"]) == 3

    def test_share_value_past_int_digit_limit_is_integrity_error(self, tmp_path, enrolled, capsys):
        _, manifest_path, store = enrolled
        share = load_pgm((store / "alice_share_1.pgm").read_bytes())
        (store / "alice_share_1.pgm").write_bytes(
            b"P2 24 16 255 " + b"9" * 5000 + b" " + b" ".join(b"%d" % v for v in share.data[1:]))
        assert run(["authenticate", manifest_path, "--out", tmp_path / "rec"]) == 4
        err = capsys.readouterr().err
        assert "share file alice_share_1.pgm is not a valid share: pixel value of more than" in err

    def test_share_rewritten_as_p2_with_long_leading_zeros_still_authenticates(
            self, tmp_path, enrolled):
        img, manifest_path, store = enrolled
        share = load_pgm((store / "alice_share_1.pgm").read_bytes())
        (store / "alice_share_1.pgm").write_bytes(
            b"P2 24 16 255 " + b" ".join(b"0" * 5000 + b"%d" % v for v in share.data))
        assert run(["authenticate", manifest_path, "--out", tmp_path / "rec"]) == 0
        assert load_pgm((tmp_path / "rec" / "alice_revealed_original.pgm").read_bytes()) == img

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
        assert "share_files must be a plain file name" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

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
