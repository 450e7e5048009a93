#!/usr/bin/env python3
"""Run all three cover strategies over one image corpus and print the
aggregate distortion row for each, next to the ideal same-image row.

Usage: python scripts/distortion_table.py CORPUS_DIR [--dataset-kind KIND]
       [--shares N] [--seed U64]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bioshares import MetricsReport, Method, run_batch
from bioshares.cli import IDEAL_ROW
from bioshares.images import REVERSE8
from bioshares.metrics import format_measure


def _row(label: str, cells) -> str:
    return f"{label:<8}" + "".join(f"{c:>12}" for c in cells)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("corpus", type=Path)
    parser.add_argument("--dataset-kind", default="flat", choices=("orl-pgm", "iitd-bmp", "flat"))
    parser.add_argument("--shares", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    print(_row("method", MetricsReport.FIELDS))
    print(_row("ideal", (IDEAL_ROW[name] for name in MetricsReport.FIELDS)))
    for method in Method:
        _, report = run_batch(
            root=args.corpus,
            kind=args.dataset_kind,
            method=method,
            n=args.shares,
            master_seed=args.seed,
            transform=REVERSE8,
        )
        cells = (format_measure(getattr(report.metrics, name)) for name in MetricsReport.FIELDS)
        print(_row(method.value, cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
