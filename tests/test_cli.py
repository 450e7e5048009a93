import json

import numpy as np
import pytest

from bioshares import (
    GrayImage,
    MetricsReport,
    PermutationKey,
    load_manifest,
    load_pgm,
    permute_image,
    pixel_digest,
    textured_image,
    write_pgm_file,
)
from bioshares.cli import main

from helpers import random_image


@pytest.fixture
def original(tmp_path):
    img = textured_image(3, 24, 16)
    path = tmp_path / "alice.pgm"
    write_pgm_file(img, path)
    return img, path


def run(argv):
    return main([str(a) for a in argv])


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

    def test_cover_flag_rejected_outside_m1(self, tmp_path, original):
        _, path = original
        cover = tmp_path / "c.pgm"
        write_pgm_file(GrayImage.filled(4, 4, 1), cover)
        assert run(["enroll", path, "--out", tmp_path, "--method", "m3",
                    "--cover", cover]) == 2

    def test_wrong_cover_count_is_usage_error(self, tmp_path, original):
        _, path = original
        cover = tmp_path / "c.pgm"
        write_pgm_file(GrayImage.filled(4, 4, 1), cover)
        assert run(["enroll", path, "--out", tmp_path / "out", "--method", "m1",
                    "--cover", cover, "--cover", cover]) == 2
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
        key = PermutationKey(manifest.params.seeds[0], img.pixel_count)
        assert secret == permute_image(img, key)
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

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert run(["authenticate", tmp_path / "absent.json"]) == 3

    def test_seed_override_with_wrong_count_is_usage_error(self, tmp_path, enrolled):
        _, manifest_path, _ = enrolled
        out = tmp_path / "rec"
        assert run(["authenticate", manifest_path, "--out", out, "--seeds", "1,2"]) == 2
        assert not out.exists()  # rejected before any reconstruction is written

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {k: v for k, v in doc.items() if k != "user_id"}, "'user_id' is missing"),
            (lambda doc: {k: v for k, v in doc.items() if k != "dims"}, "'dims' is missing"),
            (lambda doc: {**doc, "dims": [16]}, "'dims' is invalid"),
            (lambda doc: {**doc, "dims": [0, 5]}, "dims must be two positive sizes"),
            (lambda doc: {**doc, "dims": [-40, -30]}, "dims must be two positive sizes"),
            (lambda doc: [doc], "must be a JSON object"),
        ],
        ids=["no-user-id", "no-dims", "one-dim", "zero-dim", "negative-dims",
             "top-level-array"],
    )
    def test_malformed_manifest_is_format_error(self, tmp_path, enrolled, capsys, edit, message):
        _, manifest_path, _ = enrolled
        manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
        assert run(["authenticate", manifest_path, "--out", tmp_path / "rec"]) == 5
        assert message in capsys.readouterr().err
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
        averaged = MetricsReport.from_dict(doc["metrics"])
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
        averaged = MetricsReport.from_dict(doc["metrics"])
        per_share = [MetricsReport.from_dict(d) for d in doc["per_share"]]
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

    def test_share_count_above_max_is_usage_error(self, tmp_path, corpus, capsys):
        report = tmp_path / "report.json"
        assert run(["batch", corpus, "--shares", "200000000", "--report", report]) == 2
        err = capsys.readouterr().err
        assert "--shares must be between 2 and 64" in err
        assert "Traceback" not in err
        assert not report.exists()

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
