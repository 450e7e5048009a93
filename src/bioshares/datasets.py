"""Dataset walkers: flat directories of images plus the two tree layouts used
for face/iris corpora (nested PGM subject folders, nested BMP folders)."""

from __future__ import annotations

from pathlib import Path

# kind -> (file suffixes taken, whether subdirectories are walked)
_KINDS = {
    "orl-pgm": ((".pgm",), True),
    "iitd-bmp": ((".bmp",), True),
    "flat": ((".pgm", ".bmp"), False),
}
DATASET_KINDS = tuple(_KINDS)


class EmptyCorpusError(ValueError):
    """No decodable images were found under the dataset root."""


def corpus_paths(root: str | Path, kind: str) -> list[Path]:
    """Image paths for a dataset, in deterministic (relative-path) order."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root is not a directory: {root}")
    if kind not in _KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}; expected one of {DATASET_KINDS}")
    suffixes, nested = _KINDS[kind]
    found = root.rglob("*") if nested else root.iterdir()
    paths = [p for p in found if p.is_file() and p.suffix.lower() in suffixes]
    return sorted(paths, key=lambda p: p.relative_to(root).as_posix())
