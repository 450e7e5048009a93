import contextlib
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioshares import (
    BitTransform,
    EnrollmentManifest,
    GrayImage,
    IntegrityError,
    ManifestError,
    Method,
    SchemeParams,
    enroll,
    load_manifest,
    load_share_set,
    pixel_digest,
    save_enrollment,
    save_manifest,
    textured_image,
    write_pgm_file,
)
from bioshares import manifest as manifest_module
from bioshares.codecs import MAX_PIXELS
from bioshares.cli import main

from helpers import random_image, traced


def build_manifest(**overrides):
    fields = dict(
        user_id="alice",
        params=SchemeParams(Method.M3, n=2, bit_transform=BitTransform("rotate:2"), seeds=(5, 6)),
        dims=(4, 4),
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
        with pytest.raises(ValueError, match="1 digests for n=2"):
            build_manifest(content_digests=("a" * 64,))

    def test_share_files_follow_user_and_n(self):
        m = build_manifest(params=SchemeParams(Method.M2, n=3, seeds=(1, 2)),
                           content_digests=("a" * 64,) * 3)
        assert m.share_files == ("alice_share_1.pgm", "alice_share_2.pgm", "alice_share_3.pgm")
        assert json.loads(m.to_json())["share_files"] == list(m.share_files)

    @pytest.mark.parametrize("stored", [
        ["bob_share_1.pgm", "bob_share_2.pgm"],
        ["alice_share_2.pgm", "alice_share_1.pgm"],
        ["alice_share_1.pgm"],
        ["alice_share_1.pgm", "alice_share_2.pgm", "alice_share_3.pgm"],
        ["alice_share_1.pgm", "../outside.pgm"],
        ["alice_share_1.pgm", "alice_reconstructed_secret.pgm"],
        "alice_share_1.pgm",
        None,
    ], ids=["renamed", "reordered", "shortened", "lengthened", "outside", "an-output",
            "string", "missing"])
    def test_stored_share_files_must_be_the_derived_list(self, stored):
        doc = json.loads(build_manifest().to_json())
        doc["share_files"] = stored
        if stored is None:
            del doc["share_files"]
        with pytest.raises(ValueError, match="'share_files' must list alice_share_1.pgm .. "
                                             "alice_share_2.pgm"):
            EnrollmentManifest.from_json(json.dumps(doc))

    def test_seed_rule_applies(self):
        doc = json.loads(build_manifest().to_json())
        doc["seeds"] = ["5"]
        with pytest.raises(ValueError, match="takes 2 seeds"):
            EnrollmentManifest.from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["", ".", "..", "../x.pgm", "a/b.pgm", "/abs.pgm",
                                      "a\\b.pgm", "nul\0.pgm", "\ud800", "a\udcff"])
    def test_store_names_must_be_plain(self, name):
        with pytest.raises(ManifestError, match="user_id must be a plain file name"):
            build_manifest(user_id=name)
        doc = json.loads(build_manifest().to_json())
        doc["share_files"][1] = name
        with pytest.raises(ManifestError, match="'share_files' must list"):
            EnrollmentManifest.from_json(json.dumps(doc))

    def test_plain_names_with_dots_are_kept(self):
        for user in ("a.b", "..x", "x.."):
            m = build_manifest(user_id=user)
            assert m.share_files == (f"{user}_share_1.pgm", f"{user}_share_2.pgm")
            assert EnrollmentManifest.from_json(m.to_json()) == m

    @pytest.mark.parametrize("dims", [(0, 5), (5, 0), (-40, -30), (4,)])
    def test_dims_must_be_two_positive_sizes(self, dims):
        with pytest.raises(ValueError, match="dims must be two positive sizes"):
            build_manifest(dims=dims)

    def test_dims_within_the_pixel_ceiling(self):
        # the ceiling bounds the one read of each share
        assert build_manifest(dims=(1, MAX_PIXELS)).dims == (1, MAX_PIXELS)
        for dims in [(1, MAX_PIXELS + 1), (2**13, 2**13 + 1)]:
            with pytest.raises(ManifestError, match=f"at most {MAX_PIXELS} pixels in all"):
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


class TestManifestError:
    """Every refusal of load_manifest is a ManifestError, whichever layer
    finds it, so the CLI can map it to exit 5 by its type."""

    @pytest.mark.parametrize("blob, message", [
        (b'{"schema": 1,', "Expecting property name"),
        (b'{"user_id": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 5000 + b"]" * 5000, "nested too deeply"),
        (b'{"schema": 1, "n": ' + b"1" * 5000 + b"}", "Exceeds the limit"),
    ], ids=["not-json", "not-utf8", "too-deep", "long-integer"])
    def test_undecodable_manifest(self, tmp_path, blob, message):
        path = tmp_path / "m.json"
        path.write_bytes(blob)
        with pytest.raises(ManifestError, match=message):
            load_manifest(path)

    def test_manifest_over_the_limit(self, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        save_manifest(build_manifest(), path)
        monkeypatch.setattr(manifest_module, "MAX_MANIFEST_BYTES", path.stat().st_size - 1)
        with pytest.raises(ManifestError, match="exceeds the limit"):
            load_manifest(path)

    def test_scheme_refusal_while_parsing(self, tmp_path):
        m = build_manifest(params=SchemeParams(Method.M3, n=4, seeds=(1, 2, 3, 4)),
                           content_digests=("a" * 64,) * 4)
        doc = json.loads(m.to_json())
        doc["seeds"] = doc["seeds"][:3]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="^method m3 takes 4 seeds, got 3$"):
            load_manifest(path)


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

    def test_tail_is_not_read(self, enrolled):
        # a share is refused by its size, so a 16 MiB tail costs no memory
        manifest, share_dir, _ = enrolled

        def load():
            with contextlib.suppress(IntegrityError):
                load_share_set(manifest, share_dir)

        untailed = traced(load)[1]
        with open(share_dir / manifest.share_files[-1], "ab") as f:
            f.write(bytes(16 << 20))
        with pytest.raises(IntegrityError, match="not a valid share"):
            load_share_set(manifest, share_dir)
        assert traced(load)[1] <= untailed + (64 << 10)

    def test_share_shorter_than_the_dims_promise_is_not_read(self, enrolled):
        # a read sets aside all it asks for, so a 16 MP manifest over 6x6
        # shares must not ask
        manifest, share_dir, _ = enrolled
        large = dataclasses.replace(manifest, dims=(4096, 4096))

        def load():
            with pytest.raises(IntegrityError, match="dimensions 4096x4096"):
                load_share_set(large, share_dir)

        assert traced(load)[1] < 64 << 10


MANIFEST_FIELDS = ("schema", "user_id", "method", "n", "bit_transform", "seeds", "dims",
                   "share_files", "digest_algorithm", "content_digests", "cover_sources")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                   max_size=4),
    max_leaves=10,
)


@st.composite
def edited_manifests(draw, doc):
    """Bytes of a valid manifest after random edits: a field set to any JSON
    value, dropped or added, one array entry replaced, a field (or the whole
    document) nested up to 3,000 arrays deep, or arbitrary bytes instead."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=300))
    doc = dict(doc)
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(MANIFEST_FIELDS))
        edit = draw(st.sampled_from(["set", "drop", "add", "entry"]))
        if edit == "set":
            doc[name] = draw(json_values)
        elif edit == "drop":
            doc.pop(name, None)
        elif edit == "add":
            doc[draw(st.text(max_size=8))] = draw(json_values)
        elif isinstance(doc.get(name), list) and doc[name]:
            entries = list(doc[name])
            entries[draw(st.integers(0, len(entries) - 1))] = draw(json_values)
            doc[name] = entries
    text = json.dumps(doc)
    depth = draw(st.integers(0, 3000))
    if depth:
        # built as text: json.dumps itself cannot encode a list this deep
        target = draw(st.sampled_from((None,) + MANIFEST_FIELDS))
        if target is None or target not in doc:
            text = "[" * depth + text + "]" * depth
        else:
            value, doc[target] = doc[target], "\0nest\0"
            text = json.dumps(doc).replace(
                json.dumps("\0nest\0"), "[" * depth + json.dumps(value) + "]" * depth)
    return text.encode()


MANIFEST_FUZZ_PEAK = 1 << 20
"""Budget for the traced peak of one fuzzed `authenticate` of a 24x16 store:
about 4x the largest seen, 0.27 MB, for manifests nested ~3,000 deep."""


class TestManifestFuzz:
    """Untrusted manifest bytes may fail only as ManifestError or OSError, and
    `authenticate` maps every one to a documented exit code within a bounded
    amount of memory."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        write_pgm_file(textured_image(3, 24, 16), root / "alice.pgm")
        assert main(["enroll", str(root / "alice.pgm"), "--out", str(root / "store"),
                     "--method", "m3", "--seed", "7"]) == 0
        return root

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_edited_manifest(self, store, data):
        valid = json.loads((store / "store" / "alice_manifest.json").read_text())
        path = store / "store" / "edited_manifest.json"
        path.write_bytes(data.draw(edited_manifests(valid), label="manifest"))
        try:
            load_manifest(path)
        except (ManifestError, OSError):
            pass
        argv = ["authenticate", str(path), "--out", str(store / "rec")]
        seeds = data.draw(st.none() | st.lists(st.integers(0, 2**64 - 1), min_size=1,
                                               max_size=5), label="--seeds")
        if seeds is not None:
            argv += ["--seeds", ",".join(map(str, seeds))]
        code, peak = traced(main, argv)
        assert code in (0, 2, 3, 4, 5)
        assert peak < MANIFEST_FUZZ_PEAK
