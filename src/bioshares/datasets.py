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


def in_corpus(root: Path, path: Path, kind: str) -> bool:
    """Whether the walk of a `kind` dataset under `root` takes a file at
    `path`: one with the kind's suffix, in `root` itself or, for a nested
    kind, at any depth below it. Paths are compared as spelled."""
    suffixes, nested = _KINDS[kind]
    return path.suffix.lower() in suffixes and (
        path.parent == root or nested and root in path.parents)


def corpus_paths(root: str | Path, kind: str) -> list[Path]:
    """Image paths for a dataset, in deterministic (relative-path) order."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root is not a directory: {root}")
    if kind not in _KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}; expected one of {DATASET_KINDS}")
    _, nested = _KINDS[kind]
    found = root.rglob("*") if nested else root.iterdir()
    paths = [p for p in found if p.is_file() and in_corpus(root, p, kind)]
    return sorted(paths, key=lambda p: p.relative_to(root).as_posix())
