"""The benchmark's `--trace 1` run fails unless every function that
`bench/layers.py` COVERAGE lists is entered, and on batch-mixed-m1 unless
no name that `bench/layers.py` IDLE lists is. These tests run commands
through `bench/tracehook.py`:
- `evaluate` and a three-image flat m1 `batch` (one P2, one BMP, one P5)
  must enter each metrics and P2/BMP decoder name, `correlation` and `ssim`
  once per `report_all`, and the batch no permutation name;
- an m3 `enroll` and `authenticate --seeds` (reveal) must enter each keyed
  layer: prng, permutation, images and scheme.
So a faster measure, decoder or keyed kernel cannot bypass a traced name
unnoticed. The benchmark's files are only read."""

import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from bioshares import load_pgm, textured_image, write_pgm_file
from bioshares.cli import main

from helpers import build_bmp_8bit

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

CHECKED = [name for name in layers.COVERAGE
           if name.startswith("metrics.") or name in ("codecs.load_pgm.p2", "codecs.load_bmp")]
KEYED = [name for name in layers.COVERAGE
         if name.split(".")[0] in ("prng", "permutation", "images", "scheme")]


def traced(tmp_path, name, *args):
    """Run one CLI command under the trace hook; returns its span file."""
    spans = tmp_path / f"{name}.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "tracehook.py"), str(spans), "req", name, *map(str, args)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text())


def test_every_listed_measure_and_decoder_is_entered(tmp_path):
    assert any(name.startswith("metrics.") for name in CHECKED)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    p2 = textured_image(1, 24, 16).rows()
    (corpus / "a.pgm").write_bytes(
        b"P2\n# comment\n24 16\n255\n"
        + b"\n".join(b" ".join(b"%d" % v for v in row) for row in p2.tolist()) + b"\n")
    (corpus / "b.bmp").write_bytes(build_bmp_8bit(textured_image(2, 24, 16).rows()))
    write_pgm_file(textured_image(3, 24, 16), corpus / "c.pgm")
    probe = tmp_path / "probe.pgm"
    write_pgm_file(textured_image(4, 24, 16), probe)
    assert main(["enroll", str(probe), "--out", str(tmp_path / "store"), "--method", "m1",
                 "--seed", "5"]) == 0

    totals: dict[str, float] = defaultdict(float)
    layers.add_process(totals, traced(tmp_path, "evaluate", probe,
                                      tmp_path / "store" / "probe_manifest.json"))
    batch: dict[str, float] = defaultdict(float)
    layers.add_process(batch, traced(tmp_path, "batch", corpus, "--method", "m1", "--seed", "3",
                                     "--report", tmp_path / "batch.json"))
    for key, value in batch.items():
        totals[key] += value
    assert (totals["batch.run_batch.images"], totals["batch.run_batch.skipped"]) == (3, 0)
    assert [name for name in CHECKED if not totals[f"{name}.calls"]] == []
    # every pair enters both centred measures, even when the second reuses
    # the first's sums
    assert totals["metrics.report_all.calls"] == totals["metrics.correlation.calls"] \
        == totals["metrics.ssim.calls"]
    # the IDLE rule: an m1 batch derives no permutation
    assert batch["scheme.make_covers.calls"] == 3
    assert [key for prefix in layers.IDLE["batch-mixed-m1"] for key, value in batch.items()
            if key.startswith(prefix) and key.endswith(".calls") and value] == []


def test_m3_round_trip_enters_every_keyed_layer(tmp_path):
    assert {name.split(".")[0] for name in KEYED} == {"prng", "permutation", "images", "scheme"}
    probe = tmp_path / "probe.pgm"
    write_pgm_file(textured_image(5, 24, 16), probe)
    seeds = "11,12,13,14"
    totals: dict[str, float] = defaultdict(float)
    for doc in (
        traced(tmp_path, "enroll", probe, "--out", tmp_path / "store", "--method", "m3",
               "--seeds", seeds),
        traced(tmp_path, "authenticate", tmp_path / "store" / "probe_manifest.json",
               "--out", tmp_path / "rec", "--seeds", seeds),
    ):
        layers.add_process(totals, doc)
    assert [name for name in KEYED if not totals[f"{name}.calls"]] == []
    assert load_pgm((tmp_path / "rec" / "probe_revealed_original.pgm").read_bytes()) == \
        load_pgm(probe.read_bytes())
