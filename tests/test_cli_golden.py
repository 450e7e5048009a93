"""Golden tests for the on-disk format the CLI writes.

Every file that `enroll`, `authenticate`, `evaluate` and `batch` write for
fixed seeds is pinned by its sha256, and a manifest text written by earlier
code is frozen verbatim: it must still load, re-serialise byte for byte and
authenticate. Each test runs inside its tmp_path with relative paths, so the
paths recorded in manifests and reports do not depend on where it runs. The
evaluate and batch reports hold float64 measures, so their digests also pin
the numeric results of the metrics.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bioshares import (
    BitTransform,
    Method,
    SchemeParams,
    generate_shares,
    load_manifest,
    textured_image,
    write_pgm_file,
)
from bioshares.cli import main

SEED = "2024"

# enroll flags -> sha256 of every file enroll, authenticate and evaluate write
# (store/: enroll --out, rec/: authenticate --out, eval/: evaluate --report)
ENROLL_CASES = {
    "m1": (
        ["--method", "m1", "--seed", SEED],
        {
            "store/face_manifest.json":
                "5028024b0a849a27ac9406ee488120b4fca27b49a88fb097bb5544411f157033",
            "store/face_share_1.pgm":
                "b1ea5af4226392cad144ffbaac5467ad78aec177eb3518b5dafd77089a8f7c25",
            "store/face_share_2.pgm":
                "b5aa34b2668fee4823f789bcc3980fd3ee4411e607535819ee1e18b104adb668",
            "store/face_share_3.pgm":
                "f78507eed2d51368501ad5135232d353cfc1caf31f964c209c5d77a880967446",
            "store/face_share_4.pgm":
                "71d491453758cd6723124d6226fceb808b8d5c5215e526bfd2a2208412b26a85",
            "rec/face_reconstructed_cover_1.pgm":
                "930ade074f684ccc6ed84746b7d18fb1a989d99a084efa9ae255f14e17b6607b",
            "rec/face_reconstructed_cover_2.pgm":
                "c278d42043041c533e3d0fccbfeccb6cd34e00e86ddaa0e64c9680aa176f72aa",
            "rec/face_reconstructed_cover_3.pgm":
                "a70a2239c1d45e6b157f189d771cb9ba09967177eccdef7127b633e68eefec85",
            "rec/face_reconstructed_secret.pgm":
                "755587aa88a6ac6bc73297de7a31f8ce6eee7c3bbcd3132941910ed75a13cb01",
            "eval/report.json":
                "2282ae396c142cdf86517e1a30ef69d0d2e1e2aa575d92ad7f62ec4cf2a36352",
        },
    ),
    "m1-cover": (
        ["--method", "m1", "--cover", "c1.pgm", "--cover", "c2.pgm", "--cover", "c3.pgm"],
        {
            "store/face_manifest.json":
                "9beb5fe7e0d687c19c2617295f8a8cbbca6b17a7833694813379ba1f38e1b4ff",
            "store/face_share_1.pgm":
                "b1ea5af4226392cad144ffbaac5467ad78aec177eb3518b5dafd77089a8f7c25",
            "store/face_share_2.pgm":
                "698efee7a3fdda5e874cf15c6e0a06d197be9b172d390f971619035cfb620ad8",
            "store/face_share_3.pgm":
                "f083dc990de616351923a4cc78fc029288b69f00783ca8eaf977eeecc36f73e4",
            "store/face_share_4.pgm":
                "4764f95da2496df6954d590a634fdffe86e94152f1d6cb3dc67525118aaf610e",
            "rec/face_reconstructed_cover_1.pgm":
                "ecd89e1ff84f2f576c5d06fd9be6242be8738c1669636c7b2432944d3e58f96c",
            "rec/face_reconstructed_cover_2.pgm":
                "24d464067f5a2f0709be719fa0e1b4523ca0c1cd753d8384dbffc7dd87e513b6",
            "rec/face_reconstructed_cover_3.pgm":
                "45698f38ca8f7422a7846ad9e0e0c3fedeeab988b948f43f774c340dfa441d23",
            "rec/face_reconstructed_secret.pgm":
                "755587aa88a6ac6bc73297de7a31f8ce6eee7c3bbcd3132941910ed75a13cb01",
            "eval/report.json":
                "3e1844d7c23d7585d5777916697c4944c35353d928f6ea25b91c80e393d01071",
        },
    ),
    "m2": (
        ["--method", "m2", "--seed", SEED],
        {
            "store/face_manifest.json":
                "0e8a1ee9bc81e38a5552882727fef0ab8a94defcc2d685efb081bcb1805dd257",
            "store/face_share_1.pgm":
                "b1ea5af4226392cad144ffbaac5467ad78aec177eb3518b5dafd77089a8f7c25",
            "store/face_share_2.pgm":
                "99f492a47384677f0253e53a079013e42217e82ecad73bbf948299f483994393",
            "store/face_share_3.pgm":
                "832a20636cfe14cdcaa189ee034bf830f7338b9ef19af14fa9a0cb8726e79263",
            "store/face_share_4.pgm":
                "b40ba20c4cb548f933df2b3bc930a5e45b942763b6e089681070df47da703ea8",
            "rec/face_reconstructed_cover_1.pgm":
                "f4ad0150af0d4c29865a96250d518fbc7838237ff8ad5fa953408005f29bcd17",
            "rec/face_reconstructed_cover_2.pgm":
                "951a87a0669ec9597e4cfb0034dcc287c3c8de257325764325effbb68c71bc17",
            "rec/face_reconstructed_cover_3.pgm":
                "2ce358bc756ba94080d217b1c80dcf4e6098d0c7472877eea4251d842a969a2b",
            "rec/face_reconstructed_secret.pgm":
                "755587aa88a6ac6bc73297de7a31f8ce6eee7c3bbcd3132941910ed75a13cb01",
            "eval/report.json":
                "0f00634c8b8b1f47751c870212da2c7817af71d7710c310bd34ffe3edff9c876",
        },
    ),
    "m3": (
        ["--method", "m3", "--seed", SEED],
        {
            "store/face_manifest.json":
                "ec72b6d19c2e50b6771cd70af6372f7dfb2d7581e0e1ff4ea10df3fa50ad6a30",
            "store/face_share_1.pgm":
                "99f492a47384677f0253e53a079013e42217e82ecad73bbf948299f483994393",
            "store/face_share_2.pgm":
                "39c912e090c251322171bb8065c739caaeea536650824829eb9f3fca804eb0ac",
            "store/face_share_3.pgm":
                "b40ba20c4cb548f933df2b3bc930a5e45b942763b6e089681070df47da703ea8",
            "store/face_share_4.pgm":
                "bc88d3c0b60117bcf70af666fbcc7100717b2940f45c23fb6a557fa0219df146",
            "rec/face_reconstructed_cover_1.pgm":
                "951a87a0669ec9597e4cfb0034dcc287c3c8de257325764325effbb68c71bc17",
            "rec/face_reconstructed_cover_2.pgm":
                "2ce358bc756ba94080d217b1c80dcf4e6098d0c7472877eea4251d842a969a2b",
            "rec/face_reconstructed_cover_3.pgm":
                "b451119535a58fd6d5de8a22c020cece89c5401316d0f682672a3912393dbc06",
            "rec/face_reconstructed_secret.pgm":
                "f4ad0150af0d4c29865a96250d518fbc7838237ff8ad5fa953408005f29bcd17",
            "rec/face_revealed_original.pgm":
                "755587aa88a6ac6bc73297de7a31f8ce6eee7c3bbcd3132941910ed75a13cb01",
            "eval/report.json":
                "163a302eca83500eef88460a7db8d46754c14797b1f05ceca24f159a8c15322a",
        },
    ),
}

BATCH_DIGESTS = {
    "batch/report.csv": "0942a083c6a3d861fd3e351b8ef99231db4d25406810893e13585939bcef39bb",
    "batch/report.json": "820de29908df7e57aa038df45c0a15fe76b2739f136c43c23930bee5d4fe72c1",
}

# written by `enroll face.pgm --out store --method m3 --shares 4
# --bit-transform rotate:3 --seed 2024` before EnrollmentManifest held a
# SchemeParams; it is the m3 case's store/face_manifest.json
FROZEN_M3_MANIFEST = """\
{
  "schema": 1,
  "user_id": "face",
  "method": "m3",
  "n": 4,
  "bit_transform": "rotate:3",
  "seeds": [
    "11487996472437173461",
    "1793612131670815442",
    "5507758030568793471",
    "2143266886397966425"
  ],
  "dims": [
    24,
    16
  ],
  "share_files": [
    "face_share_1.pgm",
    "face_share_2.pgm",
    "face_share_3.pgm",
    "face_share_4.pgm"
  ],
  "digest_algorithm": "sha256",
  "content_digests": [
    "0a9e456fc725026a5b760591d4179a044ba31d80ae4c004b9a5a9e63a63fd1d4",
    "9d9b76b001f2a6aba56cd38f673078ea8c9ffccfd9eee5988aa99015dfbee8aa",
    "26428e3f3a62597227146c30560d2b6c4597f41720f5210fdaf63b3cd299b235",
    "499769e3383c22855aa0cc51a02886996a059efc561b9c67e632e35d6d9e6f89"
  ],
  "cover_sources": []
}
"""


def run(argv):
    return main([str(a) for a in argv])


def tree_digests(*dirs):
    """sha256 of every file in the given directories, keyed `dir/name`."""
    return {
        f"{d}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for d in dirs
        for p in sorted(Path(d).iterdir())
    }


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_pgm_file(textured_image(5, 24, 16), tmp_path / "face.pgm")
    for i, (w, h) in enumerate([(12, 12), (30, 20), (24, 16)], start=1):
        write_pgm_file(textured_image(9 + i, w, h), tmp_path / f"c{i}.pgm")
    return tmp_path



@pytest.mark.parametrize("flags, expected", ENROLL_CASES.values(), ids=ENROLL_CASES.keys())
def test_enroll_authenticate_evaluate_outputs(workdir, flags, expected):
    assert run(["enroll", "face.pgm", "--out", "store", "--shares", "4",
                "--bit-transform", "rotate:3", *flags]) == 0
    assert run(["authenticate", "store/face_manifest.json", "--out", "rec"]) == 0
    assert run(["evaluate", "face.pgm", "store/face_manifest.json",
                "--report", "eval/report.json"]) == 0
    assert tree_digests("store", "rec", "eval") == expected


def test_batch_outputs(workdir):
    (workdir / "corpus").mkdir()
    for i in range(3):
        write_pgm_file(textured_image(20 + i, 16, 16), workdir / "corpus" / f"img_{i}.pgm")
    assert run(["batch", "corpus", "--method", "m3", "--shares", "3", "--seed", "77",
                "--bit-transform", "rotate:3", "--report", "batch/report.json"]) == 0
    assert tree_digests("batch") == BATCH_DIGESTS


@pytest.mark.parametrize("drop_cover_sources", [False, True], ids=["as-written", "no-cover-key"])
def test_frozen_manifest_loads_and_authenticates(workdir, drop_cover_sources):
    doc = json.loads(FROZEN_M3_MANIFEST)
    params = SchemeParams(Method.M3, 4, BitTransform("rotate:3"),
                          tuple(int(s) for s in doc["seeds"]))
    store = workdir / "store"
    store.mkdir()
    share_set = generate_shares(textured_image(5, 24, 16), params)
    for name, share in zip(doc["share_files"], share_set.shares):
        write_pgm_file(share, store / name)
    if drop_cover_sources:
        del doc["cover_sources"]
        (store / "face_manifest.json").write_text(json.dumps(doc))
    else:
        (store / "face_manifest.json").write_text(FROZEN_M3_MANIFEST)

    assert load_manifest(store / "face_manifest.json").to_json() == FROZEN_M3_MANIFEST
    assert run(["authenticate", "store/face_manifest.json", "--out", "rec"]) == 0
    expected = ENROLL_CASES["m3"][1]
    assert tree_digests("rec") == {k: v for k, v in expected.items() if k.startswith("rec/")}
