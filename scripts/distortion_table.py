#!/usr/bin/env python3
"""Run all three cover strategies over one image corpus and print the
aggregate distortion row for each, next to the ideal same-image row.

Usage: python scripts/distortion_table.py CORPUS_DIR [--dataset-kind KIND]
       [--shares N] [--seed U64]

A seed outside 0..2**64-1 (or not plain decimal digits) and a share count
outside 2..64 exit 2 with a usage line, as in the bioshares CLI.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bioshares import MetricsReport, Method, run_batch
from bioshares.cli import IDEAL_ROW, MAX_SHARES, require_share_count
from bioshares.datasets import DATASET_KINDS, corpus_paths
from bioshares.images import REVERSE8
from bioshares.metrics import format_measure
from bioshares.prng import parse_seed


def _row(label: str, cells) -> str:
    return f"{label:<8}" + "".join(f"{c:>12}" for c in cells)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("corpus", type=Path)
    parser.add_argument("--dataset-kind", default="flat", choices=DATASET_KINDS)
    parser.add_argument("--shares", type=int, default=4, help=f"share count n (2..{MAX_SHARES})")
    parser.add_argument("--seed", default="1", metavar="U64", help="master seed")
    args = parser.parse_args()
    try:
        seed = parse_seed(args.seed)
        require_share_count(args.shares)
    except ValueError as exc:
        parser.error(str(exc))

    print(_row("method", MetricsReport.FIELDS))
    print(_row("ideal", (IDEAL_ROW[name] for name in MetricsReport.FIELDS)))
    paths = corpus_paths(args.corpus, args.dataset_kind)
    for method in Method:
        _, report = run_batch(
            root=args.corpus,
            paths=paths,
            method=method,
            n=args.shares,
            master_seed=seed,
            transform=REVERSE8,
        )
        cells = (format_measure(getattr(report.metrics, name)) for name in MetricsReport.FIELDS)
        print(_row(method.value, cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
