"""Deterministic benchmark inputs, keyed by the workload seed.

Nothing here imports the program under test: the inputs, their file
encodings and the outcomes the program must produce on them (which files it
enrolls, which it skips and why) come from this module alone. Randomness is
SplitMix64, so a seed names the same bytes on every platform.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

ORL_SUBJECTS = 40
ORL_PER_SUBJECT = 10
ORL_SIZE = (92, 112)
MIXED_SIZE = (320, 240)
MIXED_BMP8 = 36
MIXED_BMP24 = 36
MIXED_P2 = 4
LARGE_SIZE = (1024, 1024)

# Planted bad files of the mixed folder and the skip reason each must get.
SKIP_REASONS = ("pgm_error", "bmp_error", "os_error", "degenerate")
_PLANTED = (
    ("truncated_bmp", "bmp", "bmp_error"),
    ("bad_pgm_header", "pgm", "pgm_error"),
    ("empty_file", "pgm", "pgm_error"),
    ("one_pixel", "pgm", "degenerate"),
)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First `count` SplitMix64 outputs for `seed`."""
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + np.uint64(_GOLDEN) * steps
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def child_seed(seed: int, index: int) -> int:
    """The index-th SplitMix64 output of `seed`, as a Python int."""
    return int(splitmix64(seed, index + 1)[index])


def texture(seed: int, width: int, height: int) -> np.ndarray:
    """A smooth, non-constant (height, width) uint8 texture with fine noise."""
    grid = (splitmix64(seed, 81) & np.uint64(0xFF)).astype(np.float64).reshape(9, 9)
    ys = np.linspace(0.0, 8.0, height)
    xs = np.linspace(0.0, 8.0, width)
    rows = np.array([np.interp(xs, np.arange(9), grid[r]) for r in range(9)])
    smooth = np.array([np.interp(ys, np.arange(9), rows[:, c]) for c in range(width)]).T
    fine = (splitmix64(seed ^ 0x5A5A, width * height) & np.uint64(31)).astype(np.float64)
    img = 0.85 * smooth + fine.reshape(height, width) - 16.0 + 20.0
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def encode_p5(pixels: np.ndarray) -> bytes:
    """Binary PGM in the exact layout the program writes (maxval 255)."""
    height, width = pixels.shape
    return b"P5\n%d %d\n255\n" % (width, height) + pixels.tobytes()


def encode_p2(pixels: np.ndarray) -> bytes:
    height, width = pixels.shape
    lines = [b"P2", b"# benchmark input", b"%d %d" % (width, height), b"255"]
    lines += [" ".join(map(str, row.tolist())).encode() for row in pixels]
    return b"\n".join(lines) + b"\n"


def _bmp(width: int, height: int, bpp: int, palette: bytes, raster: np.ndarray) -> bytes:
    """Uncompressed bottom-up BMP; `raster` is (height, width*bpp/8) top-down."""
    stride = ((bpp * width + 31) // 32) * 4
    padded = np.zeros((height, stride), dtype=np.uint8)
    padded[:, : raster.shape[1]] = raster
    body = padded[::-1].tobytes()
    offset = 14 + 40 + len(palette)
    header = b"BM" + struct.pack("<IHHI", offset + len(body), 0, 0, offset)
    info = struct.pack(
        "<IiiHHIIiiII", 40, width, height, 1, bpp, 0, len(body), 2835, 2835,
        len(palette) // 4 if palette else 0, 0,
    )
    return header + info + palette + body


def encode_bmp24(pixels: np.ndarray, seed: int) -> bytes:
    """24-bit BMP whose three channels are tinted copies of the texture."""
    height, width = pixels.shape
    tint = (splitmix64(seed, 3) % np.uint64(40)).astype(np.int16)
    bgr = np.stack([np.clip(pixels.astype(np.int16) - t, 0, 255) for t in tint], axis=-1)
    return _bmp(width, height, 24, b"", bgr.astype(np.uint8).reshape(height, width * 3))


def encode_bmp8(pixels: np.ndarray, seed: int) -> bytes:
    """8-bit palette BMP with a warm-tinted gray ramp as palette."""
    height, width = pixels.shape
    ramp = np.arange(256, dtype=np.int16)
    shift = int(splitmix64(seed, 1)[0] % np.uint64(24))
    pal = np.stack([np.clip(ramp - shift, 0, 255), ramp, np.clip(ramp + shift, 0, 255),
                    np.zeros(256, np.int16)], axis=-1).astype(np.uint8)
    return _bmp(width, height, 8, pal.tobytes(), pixels)


@dataclass
class Corpus:
    """A generated dataset folder and what `batch` must make of it."""

    root: Path
    files: int
    enrolled: set[str] = field(default_factory=set)  # relative posix paths
    skipped: dict[str, str] = field(default_factory=dict)  # relative path -> reason

    def skip_counts(self) -> dict[str, int]:
        return {r: sum(1 for v in self.skipped.values() if v == r) for r in SKIP_REASONS}


def write_orl_tree(root: Path, seed: int) -> Corpus:
    """40 subject folders of 10 P5 faces, 92x112, as in the ORL layout."""
    corpus = Corpus(root, ORL_SUBJECTS * ORL_PER_SUBJECT)
    width, height = ORL_SIZE
    for s in range(1, ORL_SUBJECTS + 1):
        folder = root / f"s{s}"
        folder.mkdir(parents=True, exist_ok=True)
        for k in range(1, ORL_PER_SUBJECT + 1):
            image_seed = child_seed(seed, s * 100 + k)
            (folder / f"{k}.pgm").write_bytes(encode_p5(texture(image_seed, width, height)))
            corpus.enrolled.add(f"s{s}/{k}.pgm")
    return corpus


def write_mixed_folder(root: Path, seed: int) -> Corpus:
    """A flat folder of 320x240 BMP (8 and 24 bit) and P2 files plus planted
    bad files. The mix is the same for every seed; the seed picks contents
    and which file name gets which kind."""
    kinds = ["bmp8"] * MIXED_BMP8 + ["bmp24"] * MIXED_BMP24 + ["p2"] * MIXED_P2
    kinds += [name for name, _, _ in _PLANTED]
    order = np.argsort(splitmix64(seed, len(kinds)), kind="stable")
    root.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(root, len(kinds))
    width, height = MIXED_SIZE
    planted = {name: (ext, reason) for name, ext, reason in _PLANTED}
    for slot, k in enumerate(order.tolist()):
        kind = kinds[k]
        image_seed = child_seed(seed, 1000 + slot)
        ext = "bmp" if kind.startswith("bmp") else "pgm"
        if kind in planted:
            ext = planted[kind][0]
        name = f"img_{slot:03d}.{ext}"
        if kind == "bmp8":
            data = encode_bmp8(texture(image_seed, width, height), image_seed)
        elif kind == "bmp24":
            data = encode_bmp24(texture(image_seed, width, height), image_seed)
        elif kind == "p2":
            data = encode_p2(texture(image_seed, width, height))
        elif kind == "truncated_bmp":
            full = encode_bmp24(texture(image_seed, width, height), image_seed)
            data = full[: len(full) // 2]
        elif kind == "bad_pgm_header":
            data = b"P5\n320 x240\n255\n" + bytes(width * height)
        elif kind == "empty_file":
            data = b""
        else:  # one_pixel
            data = encode_p5(np.full((1, 1), 128, dtype=np.uint8))
        (root / name).write_bytes(data)
        if kind in planted:
            corpus.skipped[name] = planted[kind][1]
        else:
            corpus.enrolled.add(name)
    return corpus


def write_probe(path: Path, seed: int, size: tuple[int, int]) -> bytes:
    """One P5 image for the enroll/authenticate/evaluate round trips."""
    data = encode_p5(texture(seed, *size))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return data
