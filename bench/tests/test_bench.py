"""Tests of the benchmark itself: input determinism, self-time arithmetic and
tracing transparency. Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracehook  # noqa: E402


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("write", [inputs.write_orl_tree, inputs.write_mixed_folder])
def test_corpus_is_a_function_of_the_seed(tmp_path, write):
    a = write(tmp_path / "a" / "x", 7)
    b = write(tmp_path / "b" / "x", 7)
    c = write(tmp_path / "c" / "x", 8)
    assert tree_digest(a.root) == tree_digest(b.root) != tree_digest(c.root)
    assert (a.enrolled, a.skipped) == (b.enrolled, b.skipped)
    assert len(a.enrolled) + len(a.skipped) == a.files


def test_mixed_folder_plants_the_same_mix_for_every_seed(tmp_path):
    for seed in (1, 2):
        corpus = inputs.write_mixed_folder(tmp_path / str(seed), seed)
        names = sorted(p.name for p in corpus.root.iterdir())
        assert len(names) == corpus.files == 80
        assert corpus.skip_counts() == {"pgm_error": 2, "bmp_error": 1, "os_error": 0,
                                        "degenerate": 1}
        suffixes = [n.rsplit(".", 1)[1] for n in sorted(corpus.enrolled)]
        assert suffixes.count("bmp") == inputs.MIXED_BMP8 + inputs.MIXED_BMP24
        assert suffixes.count("pgm") == inputs.MIXED_P2


def test_probe_is_a_function_of_the_seed(tmp_path):
    a = inputs.write_probe(tmp_path / "a.pgm", 3, (64, 48))
    assert a == inputs.write_probe(tmp_path / "b.pgm", 3, (64, 48))
    assert a != inputs.write_probe(tmp_path / "c.pgm", 4, (64, 48))
    assert a.startswith(b"P5\n64 48\n255\n") and len(a) == 13 + 64 * 48


def test_splitmix64_matches_the_published_first_output():
    # SplitMix64 with seed 0: first output 0xE220A8397B1DCDAF (Vigna's reference)
    assert int(inputs.splitmix64(0, 1)[0]) == 0xE220A8397B1DCDAF


def test_time_metrics_weigh_every_cpu_equally():
    # three fast samples on CPU 0, two slow ones on CPU 1
    samples = [(0, 1.0), (0, 2.0), (1, 10.0), (0, 3.0), (1, 11.0)]
    assert run.cpu_balanced_median(samples) == 6.25


def span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0, 100, -1),
        span("a", 10, 40, 0),
        span("a.child", 20, 30, 1),
        span("b", 50, 70, 0),
    ]
    assert layers.self_times(spans) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0, 100, -1), span("x", 10, 40, 0), span("y", 30, 60, 0),
             span("z", 90, 120, 0)]
    assert layers.self_times(spans)[0] == 100 - 50 - 10


def test_add_process_folds_counts_errors_and_skip_reasons():
    spans = [
        span("batch.run_batch", 0, 1000, -1, {"images": 1, "pairs": 4, "skipped": 2}),
        span("codecs.load_image_file", 0, 100, 0, {"error": "PgmError"}),
        span("codecs.load_image", 10, 90, 1, {"error": "PgmError"}),
        span("codecs.load_pgm", 20, 80, 2, {"variant": "p2", "bytes": 9, "error": "PgmError"}),
        span("codecs.load_image_file", 100, 200, 0, {"pixels": 1}),
        span("codecs.load_image_file", 200, 300, 0, {"pixels": 10304}),
    ]
    totals = defaultdict(float)
    layers.add_process(totals, {"spans": spans, "counters": {"images.GrayImage.constructs": 3}})
    assert totals["codecs.decode.errors"] == 1
    assert totals["codecs.load_pgm.p2.calls"] == 1 and totals["codecs.load_pgm.p2.bytes"] == 9
    assert totals["batch.run_batch.skipped_pgm_error"] == 1
    assert totals["batch.run_batch.skipped_degenerate"] == 1
    assert totals["batch.run_batch.self_s"] == pytest.approx(700e-9)
    assert totals["images.GrayImage.constructs"] == 3
    values = layers.finish(totals, 2)
    assert values["batch.run_batch.pairs"] == 2
    assert values["permutation.derive_permutation.repeat_ratio"] == 0.0


def test_coverage_flags_missing_and_unexpected_layers():
    totals = defaultdict(float, {f"{name}.calls": 1.0 for name in layers.COVERAGE})
    assert layers.coverage_failures(totals, "batch-orl-m3") == []
    assert layers.coverage_failures(totals, "batch-mixed-m1") != []  # permutation must idle
    totals["scheme.enroll.calls"] = 0.0
    assert "scheme.enroll was never entered on cli-1mp-m3" in layers.coverage_failures(
        totals, "cli-1mp-m3")


def test_every_wrapped_function_has_coverage():
    wrapped = {f"{layer}.{name}" for layer, names in tracehook.TARGETS.items() for name in names}
    covered = {name.rsplit(".", 1)[0] if name.startswith("codecs.load_pgm.") else name
               for name in layers.COVERAGE}
    assert wrapped == covered - {n for n in covered if n.startswith("cli.main.")}


def test_traced_command_is_transparent(tmp_path):
    """A traced enroll/authenticate writes the same bytes as an untraced one,
    wraps each caller's reference, and records no seed."""
    probe = tmp_path / "probe.pgm"
    inputs.write_probe(probe, 5, (40, 30))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    seed = "12345678901234567"
    outputs = {}
    for side in ("plain", "traced"):
        cwd = tmp_path / side
        cwd.mkdir()
        for args in (["enroll", "../probe.pgm", "--out", "rt", "--user", "u", "--seed", seed],
                     ["authenticate", "rt/u_manifest.json", "--out", "rt/auth"]):
            if side == "plain":
                argv = [sys.executable, "-m", "bioshares", *args]
            else:
                spans = tmp_path / f"{args[0]}.json"
                argv = [sys.executable, str(BENCH / "tracehook.py"), str(spans), "req", *args]
            done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.setdefault(side, []).append(done.stdout)
        outputs[side].append(tree_digest(cwd))
    assert outputs["plain"] == outputs["traced"]

    doc = json.loads((tmp_path / "authenticate.json").read_text())
    assert doc["sites"]["codecs.load_pgm"] >= 2  # codecs and manifest
    assert doc["sites"]["prng.splitmix64"] >= 2  # prng and permutation
    names = {s[0] for s in doc["spans"]}
    assert {"cli.main.authenticate", "manifest.load_share_set", "codecs.load_pgm",
            "scheme.authenticate", "scheme.reveal_original",
            "permutation.derive_permutation"} <= names
    derived = [s[4] for s in doc["spans"] if s[0] == "permutation.derive_permutation"]
    assert derived == [{"pixels": 1200, "repeat": 0}]
    text = (tmp_path / "enroll.json").read_text() + (tmp_path / "authenticate.json").read_text()
    manifest = json.loads((tmp_path / "plain" / "rt" / "u_manifest.json").read_text())
    for secret in [seed, *manifest["seeds"]]:
        assert secret not in text
