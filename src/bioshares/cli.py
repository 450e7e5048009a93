"""Command-line interface: enroll, authenticate, evaluate, batch.

Exit codes: 0 success, 2 usage, 3 I/O (including an empty corpus, and
running out of memory, which prints `error: out of memory` and no
traceback), 4 integrity (a missing, rewritten or mismatching share), 5
image format or dimension problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import secrets
import sys
from pathlib import Path
from typing import Iterable

from .batch import run_batch, write_batch_csv
from .codecs import BmpError, PgmError, load_image_file, write_file, write_pgm_file
from .datasets import DATASET_KINDS, EmptyCorpusError, corpus_paths, in_corpus
from .images import BitTransform, DimensionMismatchError
from .manifest import (
    IntegrityError,
    ManifestError,
    load_manifest,
    load_share_set,
    manifest_name,
    save_enrollment,
    share_names,
)
from .metrics import MetricsReport, format_measure, mean_reports, report_all
from .prng import parse_seed, seed_sequence
from .scheme import (
    DegenerateImageError,
    Method,
    SchemeError,
    SchemeParams,
    authenticate,
    generate_shares,
    reveal_original,
    seed_count,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTEGRITY = 4
EXIT_FORMAT = 5

EVALUATE_SCHEMA = 1

MAX_SHARES = 64

IDEAL_ROW = {
    "cr": "1.0", "mse": "0.0", "rmse": "0.0", "mae": "0.0",
    "psnr": "inf", "ssim": "1.0", "npcr": "0.0", "uaci": "0.0",
}


class UsageError(ValueError):
    pass


def _u64(text: str) -> int:
    try:
        return parse_seed(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed_list(text: str) -> tuple[int, ...]:
    return tuple(map(_u64, text.split(",")))


def _bit_transform(text: str) -> BitTransform:
    try:
        return BitTransform(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bioshares",
        description="Generate, reconstruct and evaluate cancelable biometric image shares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scheme = argparse.ArgumentParser(add_help=False)  # the options enroll and batch share
    scheme.add_argument("--method", choices=[m.value for m in Method], default="m3")
    scheme.add_argument("--shares", type=int, default=4, metavar="N",
                        help=f"share count n (2..{MAX_SHARES})")
    scheme.add_argument("--bit-transform", type=_bit_transform, default=BitTransform(),
                        metavar="{reverse8,rotate:K}")

    p_enroll = sub.add_parser("enroll", parents=[scheme],
                              help="split an image into shares and write a manifest")
    p_enroll.add_argument("input", type=Path, help="secret image (PGM or BMP)")
    p_enroll.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p_enroll.add_argument("--user", default=None, help="user id (default: input file stem)")
    seed_source = p_enroll.add_mutually_exclusive_group()
    seed_source.add_argument("--seed", type=_u64, default=None, metavar="U64",
                             help="master seed; per-slot seeds derive from it")
    seed_source.add_argument("--seeds", type=_seed_list, default=None, metavar="LIST",
                             help="comma-separated explicit per-slot seeds")
    p_enroll.add_argument("--cover", type=Path, action="append", default=[],
                          help="cover image for method m1 (repeat n-1 times)")
    p_enroll.set_defaults(func=cmd_enroll)

    p_auth = sub.add_parser("authenticate", help="verify digests and reconstruct from a manifest")
    p_auth.add_argument("manifest", type=Path)
    p_auth.add_argument("--share-dir", type=Path, default=None,
                        help="directory holding the share files (default: manifest directory)")
    p_auth.add_argument("--out", type=Path, default=None,
                        help="output directory (default: share directory)")
    p_auth.add_argument("--seeds", type=_seed_list, default=None, metavar="LIST",
                        help="override the manifest seeds (m3 reveal)")
    p_auth.set_defaults(func=cmd_authenticate)

    p_eval = sub.add_parser("evaluate", help="score the shares of a manifest against an original")
    p_eval.add_argument("original", type=Path)
    p_eval.add_argument("manifest", type=Path)
    p_eval.add_argument("--share-dir", type=Path, default=None)
    p_eval.add_argument("--report", type=Path, default=None, help="write the JSON report here")
    p_eval.set_defaults(func=cmd_evaluate)

    p_batch = sub.add_parser("batch", parents=[scheme], help="enroll and evaluate a whole dataset")
    p_batch.add_argument("root", type=Path, help="dataset root directory")
    p_batch.add_argument("--dataset-kind", choices=DATASET_KINDS, default="flat")
    p_batch.add_argument("--seed", type=_u64, default=1, metavar="U64", help="master seed")
    p_batch.add_argument("--report", type=Path, default=None,
                         help="write the JSON aggregate here (CSV lands next to it)")
    p_batch.add_argument("--csv", type=Path, default=None, help="write the per-image CSV here")
    p_batch.set_defaults(func=cmd_batch)

    return parser


def require_share_count(n: int) -> None:
    """Refuse a --shares value outside 2..MAX_SHARES."""
    if not 2 <= n <= MAX_SHARES:
        raise UsageError(f"--shares must be between 2 and {MAX_SHARES}, got {n}")


def _say(text: str, file=None) -> None:
    """Print a line that holds command-line paths, with what the stream cannot
    encode (such as a path byte that is not UTF-8) as a backslash escape."""
    file = file or sys.stdout
    encoding = file.encoding or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding), file=file)


def _file_key(path: Path) -> tuple[int, int] | str:
    """The file a path names: its device and inode if it exists, else its resolved path."""
    try:
        found = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return found.st_dev, found.st_ino


def _refuse_overwrite(writes: list[tuple[str, Path | None]], reads: Iterable[Path],
                      corpus: tuple[Path, str] | None = None) -> None:
    """Refuse, before any image is decoded or any file written, a command that
    would write at a path that is there but is no regular file (a directory or a
    FIFO), below a path that is not a directory, over a file it reads, or two of
    its outputs to one file. `writes` pairs a label with each output path (None:
    not written). Paths are compared by the file they name (`_file_key`), so
    `a/../a/x`, a symbolic link to `x` and a hard link to `x` all name `x`.
    Directory entries above an output are judged, so a link there that leads to
    no directory (dangling or looping) is refused as a file is. An output is
    renamed into place, so a link at the output itself is replaced, not
    followed. A `corpus` (root, kind) also refuses an output whose own entry
    its next walk would take."""
    writes = [(label, path) for label, path in writes if path is not None]
    if not writes:
        return
    inputs = {_file_key(p) for p in reads}
    earlier: dict[tuple[int, int] | str, str] = {}
    for label, path in writes:
        there = next((p for p in (path, *path.parents) if os.path.lexists(p)), path)
        if os.path.exists(path) and not os.path.isfile(path):
            raise UsageError(f"the {label} {path} names no file")
        if there != path and not os.path.isdir(there):
            raise UsageError(f"the {label} {path} lies below {there}, which is not a directory")
        key = _file_key(path)
        if key in inputs:
            raise UsageError(f"the {label} would overwrite the input {path}")
        if key in earlier:
            raise UsageError(f"the {label} would overwrite the {earlier[key]}")
        earlier[key] = f"{label} {path}"
        entry = Path(os.path.realpath(path.parent), path.name)
        if corpus and in_corpus(Path(os.path.realpath(corpus[0])), entry, corpus[1]):
            raise UsageError(f"the {label} {path} would become an image of the corpus {corpus[0]}")


def cmd_enroll(args) -> int:
    require_share_count(args.shares)
    method = Method(args.method)
    user = args.user or args.input.stem
    try:
        names = [*share_names(user, args.shares), manifest_name(user)]
    except ManifestError as exc:  # the user id is not a plain file name
        raise UsageError(str(exc)) from exc
    _refuse_overwrite([("enrollment", args.out / name) for name in names],
                      [args.input, *args.cover])
    original = load_image_file(args.input)

    seeds = args.seeds
    # beside covers, seeds come only from an explicit --seed, which
    # SchemeParams then refuses
    if seeds is None and (args.seed is not None or not args.cover):
        master = args.seed if args.seed is not None else secrets.randbits(64)
        seeds = seed_sequence(master, seed_count(method, args.shares))
    params = SchemeParams(
        method=method,
        n=args.shares,
        bit_transform=args.bit_transform,
        seeds=seeds or (),
        cover_sources=tuple(args.cover),
    )
    # covers are read only once the params accept them
    covers = [load_image_file(p) for p in args.cover]
    share_set = generate_shares(original, params, covers)
    manifest_path = save_enrollment(share_set, user, args.out)
    _say(f"enrolled {user}: {args.shares} shares ({method.value}, "
         f"{original.width}x{original.height}) -> {manifest_path}")
    return EXIT_OK


def _open_store(args):
    """The manifest named on the command line, its share directory, and the
    store files the command reads: the manifest and every share."""
    manifest = load_manifest(args.manifest)
    share_dir = args.share_dir or args.manifest.parent
    return manifest, share_dir, [args.manifest, *(share_dir / n for n in manifest.share_files)]


def cmd_authenticate(args) -> int:
    manifest, share_dir, reads = _open_store(args)
    out_dir = args.out or share_dir
    user, params = manifest.user_id, manifest.params
    if args.seeds is not None:  # judged before any share is read
        params = dataclasses.replace(params, seeds=args.seeds)
    outputs = [out_dir / f"{user}_reconstructed_secret.pgm"]
    outputs += [out_dir / f"{user}_reconstructed_cover_{i}.pgm" for i in range(1, params.n)]
    if params.method is Method.M3:
        outputs.append(out_dir / f"{user}_revealed_original.pgm")
    _refuse_overwrite([("reconstruction", path) for path in outputs], reads)
    share_set = load_share_set(manifest, share_dir)
    secret, covers = authenticate(share_set)

    for path, img in zip(outputs, (secret, *covers)):
        write_pgm_file(img, path)
    _say(f"digests verified; reconstructed secret and {len(covers)} covers -> {out_dir}")

    if params.method is Method.M3:
        write_pgm_file(reveal_original(secret, params), outputs[-1])
        _say(f"revealed original -> {outputs[-1]}")
    return EXIT_OK


def _format_table(report: MetricsReport) -> str:
    lines = [f"{'measure':<8} {'value':>14} {'ideal':>8}"]
    for name in MetricsReport.FIELDS:
        text = format_measure(getattr(report, name))
        lines.append(f"{name:<8} {text:>14} {IDEAL_ROW[name]:>8}")
    return "\n".join(lines)


def cmd_evaluate(args) -> int:
    manifest, share_dir, reads = _open_store(args)
    _refuse_overwrite([("JSON report", args.report)], [args.original, *reads])
    original = load_image_file(args.original)
    share_set = load_share_set(manifest, share_dir)
    reports = [report_all(original, share) for share in share_set.shares]
    averaged = mean_reports(reports)

    _say(f"{manifest.user_id}: {len(reports)} shares vs {args.original}")
    print(_format_table(averaged))
    doc = {
        "schema": EVALUATE_SCHEMA,
        "original": str(args.original),
        "manifest": str(args.manifest),
        "pairs": len(reports),
        "metrics": averaged.to_dict(),
        "per_share": [r.to_dict() for r in reports],
    }
    if args.report is not None:
        write_file(args.report, (json.dumps(doc, indent=2) + "\n").encode())
        _say(f"report -> {args.report}")
    return EXIT_OK


def cmd_batch(args) -> int:
    require_share_count(args.shares)
    csv_path = args.csv
    if csv_path is None and args.report is not None:  # the guard refuses `.` before `.csv`
        csv_path = args.report.parent / f"{args.report.stem}.csv"
    paths = corpus_paths(args.root, args.dataset_kind)
    _refuse_overwrite([("JSON report", args.report), ("per-image CSV", csv_path)], paths,
                      corpus=(args.root, args.dataset_kind))
    rows, report = run_batch(
        root=args.root,
        paths=paths,
        method=Method(args.method),
        n=args.shares,
        master_seed=args.seed,
        transform=args.bit_transform,
    )
    text = json.dumps(report.to_dict(), indent=2)
    print(text)
    if args.report is not None:
        write_file(args.report, (text + "\n").encode())
    if csv_path is not None:
        write_batch_csv(rows, csv_path)
        _say(f"per-image rows -> {csv_path}", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, SchemeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (PgmError, BmpError, DimensionMismatchError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ManifestError, DegenerateImageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except EmptyCorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
