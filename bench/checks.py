"""Output checks behind `failed`: every file a command writes is compared
with what the generated inputs imply, recomputed here without the program's
code, and, for the default seed, with values frozen in golden.json."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from inputs import Corpus

SHARES = 4
REL_TOL = 1e-9
USER = "probe"
METRIC_FIELDS = ("cr", "mse", "rmse", "mae", "psnr", "ssim", "npcr", "uaci")
REVERSE8 = np.array([int(f"{v:08b}"[::-1], 2) for v in range(256)], dtype=np.uint8)


def close(got, want) -> bool:
    """Equal within REL_TOL relative; also matches None and the string "inf"."""
    if isinstance(got, (int, float)) and isinstance(want, (int, float)):
        return got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want))
    return got == want


def compare_metrics(got: dict, want: dict, what: str) -> list[str]:
    return [
        f"{what}: {name} is {got.get(name)!r}, expected {want[name]!r}"
        for name in want
        if not close(got.get(name), want[name])
    ]


def read_p5(path: Path, dims: tuple[int, int]) -> np.ndarray | None:
    """Pixel payload of a P5 file in the program's output layout, else None."""
    header = b"P5\n%d %d\n255\n" % dims
    try:
        data = path.read_bytes()
    except OSError:
        return None
    if not data.startswith(header) or len(data) != len(header) + dims[0] * dims[1]:
        return None
    return np.frombuffer(data, dtype=np.uint8, offset=len(header))


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def check_batch(out: Path, corpus: Corpus, golden: dict | None) -> tuple[int, list[str], dict]:
    """Check one `batch --report out/report.json` run.

    Returns (failed operations out of corpus.files + 1, messages, report):
    each file enrolled or skipped against the plan is one failed operation,
    and any wrong aggregate fails the report operation."""
    report = _read_json(out / "report.json")
    try:
        rows = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
    except OSError:
        rows = None
    if report is None or rows is None:
        return corpus.files + 1, [f"{out}: report or CSV missing or unreadable"], {}
    enrolled = {row.split(",")[1] for row in rows if row}
    wrong = sorted(corpus.enrolled ^ enrolled)
    errors = [f"{out}: {path} was {'skipped' if path in corpus.enrolled else 'enrolled'} "
              f"against the plan" for path in wrong]
    images = len(corpus.enrolled)
    expect = {"images": images, "pairs": SHARES * images, "skipped": len(corpus.skipped),
              "cr_defined_pairs": SHARES * images}
    report_errors = compare_metrics(report, expect, f"{out}/report.json")
    metrics = report.get("metrics", {})
    if not all(isinstance(metrics.get(f), float) and math.isfinite(metrics[f])
               for f in METRIC_FIELDS):
        report_errors.append(f"{out}/report.json: metrics missing or not finite")
    if golden is not None:
        report_errors += compare_metrics(metrics, golden, f"{out}/report.json vs golden")
    return len(wrong) + bool(report_errors), errors + report_errors, report


def check_enroll(rt: Path, dims: tuple[int, int], golden: dict | None):
    """Shares must be P5 files whose pixel digests match the manifest (and
    the frozen digests for the default seed). Returns (errors, shares, digests)."""
    manifest = _read_json(rt / f"{USER}_manifest.json")
    if manifest is None:
        return [f"{rt}: manifest missing or unreadable"], [], []
    errors, shares, digests = [], [], []
    files = manifest.get("share_files", [])
    wanted = manifest.get("content_digests", [])
    if len(files) != SHARES or len(wanted) != SHARES:
        errors.append(f"{rt}: manifest lists {len(files)} shares, expected {SHARES}")
    for name, want in zip(files, wanted):
        pixels = read_p5(rt / Path(name).name, dims)
        if pixels is None:
            errors.append(f"{rt}/{name}: not a {dims[0]}x{dims[1]} P5 share")
            continue
        digest = hashlib.sha256(pixels).hexdigest()
        if digest != want:
            errors.append(f"{rt}/{name}: pixel digest differs from the manifest")
        shares.append(pixels)
        digests.append(digest)
    if golden is not None and digests != golden["share_digests"]:
        errors.append(f"{rt}: share digests differ from the frozen golden digests")
    return errors, shares, digests


def check_authenticate(rt: Path, original: bytes, dims: tuple[int, int], method: str,
                       shares: list[np.ndarray]) -> list[str]:
    """The reconstruction must chain back to the stored shares, hold only
    permutations of the original (m3) or the original itself (m1 secret),
    and for m3 reveal the original byte for byte."""
    auth = rt / "auth"
    names = [f"{USER}_reconstructed_secret.pgm"]
    names += [f"{USER}_reconstructed_cover_{i}.pgm" for i in range(1, SHARES)]
    images = [read_p5(auth / name, dims) for name in names]
    if any(img is None for img in images):
        return [f"{auth}: reconstructed secret or covers missing or malformed"]
    errors = []
    stack = np.stack(images)
    chained = REVERSE8[np.bitwise_xor.accumulate(np.bitwise_xor.accumulate(stack), axis=0)]
    if len(shares) != SHARES or not np.array_equal(chained, np.stack(shares)):
        errors.append(f"{auth}: reconstruction does not chain back to the stored shares")
    pixels = np.frombuffer(original, dtype=np.uint8)[-dims[0] * dims[1]:]
    if method == "m3":
        hist = np.bincount(pixels, minlength=256)
        if any(not np.array_equal(np.bincount(img, minlength=256), hist) for img in images):
            errors.append(f"{auth}: a reconstructed image is not a permutation of the original")
        try:
            revealed = (auth / f"{USER}_revealed_original.pgm").read_bytes()
        except OSError:
            revealed = None
        if revealed != original:
            errors.append(f"{auth}: revealed original differs from the input")
    elif not np.array_equal(images[0], pixels):
        errors.append(f"{auth}: reconstructed m1 secret differs from the input")
    return errors


def check_evaluate(rt: Path, original: bytes, dims: tuple[int, int],
                   shares: list[np.ndarray], golden: dict | None) -> tuple[list[str], dict]:
    """mse, mae and npcr of every share are recomputed here; the averaged
    report must match the frozen one for the default seed."""
    doc = _read_json(rt / "evaluate.json")
    if doc is None:
        return [f"{rt}/evaluate.json missing or unreadable"], {}
    errors = compare_metrics(doc, {"pairs": SHARES}, f"{rt}/evaluate.json")
    a = np.frombuffer(original, dtype=np.uint8)[-dims[0] * dims[1]:].astype(np.float64)
    for i, (share, got) in enumerate(zip(shares, doc.get("per_share", []))):
        d = a - share.astype(np.float64)
        want = {"mse": float((d * d).mean()), "mae": float(np.abs(d).mean()),
                "npcr": 100.0 * int(np.count_nonzero(d)) / d.size}
        errors += compare_metrics(got, want, f"{rt}/evaluate.json share {i + 1}")
    if golden is not None:
        errors += compare_metrics(doc.get("metrics", {}), golden, f"{rt}/evaluate.json vs golden")
    return errors, doc.get("metrics", {})


def same_tree(a: Path, b: Path) -> list[str]:
    """Paths under a and b whose presence or bytes differ."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(
        str(rel) for rel in files_a | files_b
        if rel not in files_a or rel not in files_b
        or (a / rel).read_bytes() != (b / rel).read_bytes()
    )
