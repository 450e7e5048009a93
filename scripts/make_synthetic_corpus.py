#!/usr/bin/env python3
"""Write a corpus of deterministic synthetic textures as PGM files.

Usage: python scripts/make_synthetic_corpus.py OUT_DIR [--count N] [--size WxH]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bioshares import textured_image, write_pgm_file


def image_size(text: str) -> tuple[int, int]:
    """WIDTHxHEIGHT, two positive decimal sizes."""
    parts = text.lower().split("x")
    if len(parts) != 2 or not all(part.isdigit() and int(part) > 0 for part in parts):
        raise argparse.ArgumentTypeError(f"expected WIDTHxHEIGHT such as 64x64, got {text!r}")
    return int(parts[0]), int(parts[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--size", type=image_size, default="64x64",
                        help="WIDTHxHEIGHT (default 64x64)")
    args = parser.parse_args()

    width, height = args.size
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for index in range(args.count):
        path = args.out_dir / f"texture_{index:03d}.pgm"
        write_pgm_file(textured_image(index, width, height), path)
    print(f"wrote {args.count} {width}x{height} textures to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
