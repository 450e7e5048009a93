"""Corpus-level evaluation: enroll every image of a dataset with seeds derived
from one master seed, score every share against its original, and emit a CSV
of per-image rows plus a JSON aggregate row.

Seed derivation (documented so runs are reproducible from the master seed
alone): image number i in corpus order gets base = mix_seed(master, i), and
its per-slot seeds are seed_sequence(base, seeds_needed). Evaluation pairs
each share with the original biometric; the aggregate is the arithmetic mean
over all (original, share) pairs.
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .codecs import BmpError, PgmError, load_image_file, write_file
from .datasets import EmptyCorpusError
from .images import BitTransform
from .metrics import MetricsReport, format_measure, mean_reports, report_all
from .prng import mix_seed, seed_sequence
from .scheme import Method, SchemeParams, generate_shares, seed_count

CSV_HEADER = ("index", "path", *MetricsReport.FIELDS)

PAIRING_NOTE = "each share vs the original biometric, averaged over shares and images"

BATCH_SCHEMA = 1


@dataclass(frozen=True)
class BatchRow:
    index: int
    path: str
    metrics: MetricsReport


@dataclass(frozen=True)
class CorpusReport:
    """One Table-style aggregate row for a (dataset, method) run."""

    dataset: str
    method: Method
    n: int
    bit_transform: BitTransform
    master_seed: int
    images: int
    pairs: int
    skipped: int
    cr_defined_pairs: int
    metrics: MetricsReport

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": BATCH_SCHEMA,
            "dataset": self.dataset,
            "method": self.method.value,
            "n": self.n,
            "bit_transform": self.bit_transform.descriptor,
            "master_seed": str(self.master_seed),
            "images": self.images,
            "pairs": self.pairs,
            "skipped": self.skipped,
            "cr_defined_pairs": self.cr_defined_pairs,
            "pairing": PAIRING_NOTE,
            "metrics": self.metrics.to_dict(),
        }


def image_seeds(master_seed: int, index: int, method: Method, n: int) -> tuple[int, ...]:
    """Per-slot seeds for corpus image `index` under `master_seed`."""
    base = mix_seed(master_seed, index)
    return tuple(seed_sequence(base, seed_count(method, n)))


def run_batch(
    root: str | Path,
    paths: Sequence[Path],
    method: Method,
    n: int,
    master_seed: int,
    transform: BitTransform,
) -> tuple[list[BatchRow], CorpusReport]:
    """Enroll and evaluate every image of a corpus; `paths` are the images
    `corpus_paths` found under `root`, in its order. See module docstring."""
    root = Path(root)
    rows: list[BatchRow] = []
    per_pair: list[MetricsReport] = []
    skipped = 0
    for index, path in enumerate(paths):
        rel = path.relative_to(root).as_posix()
        try:
            original = load_image_file(path)
        except (PgmError, BmpError, OSError) as exc:
            skipped += 1
            print(f"skipping {rel}: {exc}", file=sys.stderr)
            continue
        if original.pixel_count < 2:
            skipped += 1
            print(f"skipping {rel}: degenerate {original.width}x{original.height} image", file=sys.stderr)
            continue
        params = SchemeParams(
            method=method,
            n=n,
            bit_transform=transform,
            seeds=image_seeds(master_seed, index, method, n),
        )
        share_set = generate_shares(original, params)
        reports = [report_all(original, share) for share in share_set.shares]
        per_pair.extend(reports)
        rows.append(BatchRow(index=index, path=rel, metrics=mean_reports(reports)))

    if not rows:
        raise EmptyCorpusError(f"no decodable images under {root} ({skipped} skipped)")
    if skipped:
        print(f"skipped {skipped} unreadable/undecodable files", file=sys.stderr)

    report = CorpusReport(
        dataset=root.name,
        method=method,
        n=n,
        bit_transform=transform,
        master_seed=master_seed,
        images=len(rows),
        pairs=len(per_pair),
        skipped=skipped,
        cr_defined_pairs=sum(1 for r in per_pair if r.cr is not None),
        metrics=mean_reports(per_pair),
    )
    return rows, report


def write_batch_csv(rows: Sequence[BatchRow], path: str | Path) -> None:
    """Fixed-header CSV, one row per image, metrics averaged over its shares. A
    path is written as its file name's own bytes, even when they are not UTF-8."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        m = row.metrics
        writer.writerow(
            [str(row.index), row.path]
            + [format_measure(getattr(m, name), 6) for name in MetricsReport.FIELDS]
        )
    write_file(path, out.getvalue().encode(errors="surrogateescape"))
