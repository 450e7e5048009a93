import hashlib
import json

import numpy as np
import pytest

from bioshares import (
    BitTransform,
    EnrollmentManifest,
    GrayImage,
    IntegrityError,
    Method,
    SchemeParams,
    enroll,
    load_manifest,
    load_share_set,
    pixel_digest,
    save_enrollment,
    save_manifest,
    write_pgm_file,
)

from helpers import random_image


def build_manifest(**overrides):
    fields = dict(
        user_id="alice",
        params=SchemeParams(Method.M3, n=2, bit_transform=BitTransform("rotate", 2), seeds=(5, 6)),
        dims=(4, 4),
        share_files=("alice_share_1.pgm", "alice_share_2.pgm"),
        content_digests=("a" * 64, "b" * 64),
    )
    fields.update(overrides)
    return EnrollmentManifest(**fields)


class TestManifest:
    def test_json_round_trip(self):
        m = build_manifest()
        assert EnrollmentManifest.from_json(m.to_json()) == m

    def test_json_fields(self):
        doc = json.loads(build_manifest().to_json())
        assert doc["schema"] == 1
        assert doc["method"] == "m3"
        assert doc["bit_transform"] == "rotate:2"
        assert doc["seeds"] == ["5", "6"]
        assert doc["dims"] == [4, 4]
        assert doc["digest_algorithm"] == "sha256"

    def test_file_round_trip(self, tmp_path):
        m = build_manifest()
        path = tmp_path / "m.json"
        save_manifest(m, path)
        assert load_manifest(path) == m

    def test_counts_must_match_n(self):
        with pytest.raises(ValueError, match="share files"):
            build_manifest(share_files=("only_one.pgm",))

    def test_seed_rule_applies(self):
        doc = json.loads(build_manifest().to_json())
        doc["seeds"] = ["5"]
        with pytest.raises(ValueError, match="takes 2 seeds"):
            EnrollmentManifest.from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["", ".", "..", "../x.pgm", "a/b.pgm", "/abs.pgm",
                                      "a\\b.pgm", "nul\0.pgm"])
    def test_store_names_must_be_plain(self, name):
        with pytest.raises(ValueError, match="user_id must be a plain file name"):
            build_manifest(user_id=name)
        with pytest.raises(ValueError, match="share_files must be a plain file name"):
            build_manifest(share_files=("alice_share_1.pgm", name))

    def test_plain_names_with_dots_are_kept(self):
        m = build_manifest(user_id="a.b", share_files=("..x.pgm", "x..pgm"))
        assert EnrollmentManifest.from_json(m.to_json()) == m

    @pytest.mark.parametrize("dims", [(0, 5), (5, 0), (-40, -30), (4,)])
    def test_dims_must_be_two_positive_sizes(self, dims):
        with pytest.raises(ValueError, match="dims must be two positive sizes"):
            build_manifest(dims=dims)

    def test_unknown_schema_rejected(self):
        doc = json.loads(build_manifest().to_json())
        doc["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            EnrollmentManifest.from_json(json.dumps(doc))

    def test_unknown_digest_algorithm_rejected(self):
        doc = json.loads(build_manifest().to_json())
        doc["digest_algorithm"] = "md5"
        with pytest.raises(ValueError, match="digest"):
            EnrollmentManifest.from_json(json.dumps(doc))

    def test_pixel_digest_is_sha256_of_payload(self):
        img = GrayImage(2, 2, [1, 2, 3, 4])
        assert pixel_digest(img) == hashlib.sha256(bytes([1, 2, 3, 4])).hexdigest()


class TestLoadShareSet:
    @pytest.fixture
    def enrolled(self, tmp_path):
        rng = np.random.default_rng(55)
        secret = random_image(rng, 6, 6)
        covers = [random_image(rng, 6, 6) for _ in range(2)]
        share_set = enroll(secret, covers, SchemeParams(Method.M1, n=3))
        manifest = load_manifest(save_enrollment(share_set, "u", tmp_path))
        return manifest, tmp_path, share_set

    def test_store_layout(self, enrolled):
        manifest, share_dir, share_set = enrolled
        assert sorted(p.name for p in share_dir.iterdir()) == [
            "u_manifest.json", "u_share_1.pgm", "u_share_2.pgm", "u_share_3.pgm"]
        assert manifest.share_files == ("u_share_1.pgm", "u_share_2.pgm", "u_share_3.pgm")
        assert manifest.content_digests == tuple(pixel_digest(s) for s in share_set.shares)
        assert manifest.params == share_set.params
        assert manifest.dims == (6, 6)

    def test_bad_user_writes_nothing(self, enrolled, tmp_path):
        _, _, share_set = enrolled
        out = tmp_path / "new" / "store"
        with pytest.raises(ValueError, match="user_id"):
            save_enrollment(share_set, "../u", out)
        assert not (tmp_path / "new").exists()

    def test_loads_verified_set(self, enrolled):
        manifest, share_dir, original_set = enrolled
        loaded = load_share_set(manifest, share_dir)
        assert loaded.shares == original_set.shares

    def test_missing_share(self, enrolled):
        manifest, share_dir, _ = enrolled
        (share_dir / manifest.share_files[1]).unlink()
        with pytest.raises(IntegrityError, match="missing share"):
            load_share_set(manifest, share_dir)

    def test_tampered_pixel(self, enrolled):
        manifest, share_dir, _ = enrolled
        path = share_dir / manifest.share_files[0]
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="digest mismatch"):
            load_share_set(manifest, share_dir)

    def test_undecodable_share(self, enrolled):
        manifest, share_dir, _ = enrolled
        (share_dir / manifest.share_files[0]).write_bytes(b"garbage")
        with pytest.raises(IntegrityError, match="not a valid share"):
            load_share_set(manifest, share_dir)

    def test_wrong_dimensions(self, enrolled):
        manifest, share_dir, _ = enrolled
        write_pgm_file(GrayImage.filled(5, 5, 0), share_dir / manifest.share_files[0])
        with pytest.raises(IntegrityError, match="dimensions"):
            load_share_set(manifest, share_dir)
