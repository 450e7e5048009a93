"""Smoke test of the command-line scripts: build a tiny synthetic corpus and
print the distortion table over it."""

import subprocess
import sys
from pathlib import Path

import pytest

from bioshares import MetricsReport
from bioshares.cli import IDEAL_ROW

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout


def test_distortion_table_over_synthetic_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    out = run_script("make_synthetic_corpus.py", corpus, "--count", 3, "--size", "16x16")
    assert "wrote 3 16x16 textures" in out
    assert len(list(corpus.glob("*.pgm"))) == 3

    rows = [line.split() for line in run_script("distortion_table.py", corpus).splitlines()]
    assert rows[0] == ["method", *MetricsReport.FIELDS]
    assert rows[1] == ["ideal", *(IDEAL_ROW[name] for name in MetricsReport.FIELDS)]
    assert [row[0] for row in rows[2:]] == ["m1", "m2", "m3"]
    for row in rows[2:]:
        assert len(row) == 1 + len(MetricsReport.FIELDS)
        cells = dict(zip(MetricsReport.FIELDS, row[1:]))
        assert float(cells["mse"]) > 0
        assert 0 < float(cells["npcr"]) <= 100


@pytest.mark.parametrize("size", ["abc", "5", "0x4"])
def test_bad_corpus_size_is_usage_error(tmp_path, size):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_synthetic_corpus.py"), str(tmp_path / "corpus"),
         "--size", size],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "usage:" in done.stderr and "WIDTHxHEIGHT" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "corpus").exists()
