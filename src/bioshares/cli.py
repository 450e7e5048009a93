"""Command-line interface: enroll, authenticate, evaluate, batch.

Exit codes: 0 success, 2 usage, 3 I/O (including an empty corpus, and
running out of memory, which prints `error: out of memory` and no
traceback), 4 integrity (digest mismatch or missing share), 5 image format
or dimension problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import secrets
import sys
from pathlib import Path

from .batch import run_batch, write_batch_csv
from .codecs import BmpError, PgmError, load_image_file, write_pgm_file
from .datasets import DATASET_KINDS, EmptyCorpusError
from .images import BitTransform, DimensionMismatchError
from .manifest import IntegrityError, load_manifest, load_share_set, save_enrollment
from .metrics import MetricsReport, format_measure, mean_reports, report_all
from .prng import parse_seed, seed_sequence
from .scheme import (
    Method,
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
        return BitTransform.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bioshares",
        description="Generate, reconstruct and evaluate cancelable biometric image shares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enroll = sub.add_parser("enroll", help="split an image into shares and write a manifest")
    p_enroll.add_argument("input", type=Path, help="secret image (PGM or BMP)")
    p_enroll.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p_enroll.add_argument("--user", default=None, help="user id (default: input file stem)")
    p_enroll.add_argument("--method", choices=[m.value for m in Method], default="m3")
    p_enroll.add_argument("--shares", type=int, default=4, metavar="N",
                          help=f"share count n (2..{MAX_SHARES})")
    seed_source = p_enroll.add_mutually_exclusive_group()
    seed_source.add_argument("--seed", type=_u64, default=None, metavar="U64",
                             help="master seed; per-slot seeds derive from it")
    seed_source.add_argument("--seeds", type=_seed_list, default=None, metavar="LIST",
                             help="comma-separated explicit per-slot seeds")
    p_enroll.add_argument("--bit-transform", type=_bit_transform, default=BitTransform(),
                          metavar="{reverse8,rotate:K}")
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

    p_batch = sub.add_parser("batch", help="enroll and evaluate a whole dataset")
    p_batch.add_argument("root", type=Path, help="dataset root directory")
    p_batch.add_argument("--dataset-kind", choices=DATASET_KINDS, default="flat")
    p_batch.add_argument("--method", choices=[m.value for m in Method], default="m3")
    p_batch.add_argument("--shares", type=int, default=4, metavar="N")
    p_batch.add_argument("--seed", type=_u64, default=1, metavar="U64", help="master seed")
    p_batch.add_argument("--bit-transform", type=_bit_transform, default=BitTransform(),
                         metavar="{reverse8,rotate:K}")
    p_batch.add_argument("--report", type=Path, default=None,
                         help="write the JSON aggregate here (CSV lands next to it)")
    p_batch.add_argument("--csv", type=Path, default=None, help="write the per-image CSV here")
    p_batch.set_defaults(func=cmd_batch)

    return parser


def require_share_count(n: int) -> None:
    """Refuse a --shares value outside 2..MAX_SHARES."""
    if not 2 <= n <= MAX_SHARES:
        raise UsageError(f"--shares must be between 2 and {MAX_SHARES}, got {n}")


def cmd_enroll(args) -> int:
    require_share_count(args.shares)
    method = Method(args.method)
    user = args.user or args.input.stem
    original = load_image_file(args.input)

    seeds = args.seeds
    # beside covers, seeds come only from an explicit --seed, which
    # SchemeParams then refuses
    if seeds is None and (args.seed is not None or not args.cover):
        master = args.seed if args.seed is not None else secrets.randbits(64)
        seeds = seed_sequence(master, seed_count(method, args.shares))
    try:
        params = SchemeParams(
            method=method,
            n=args.shares,
            bit_transform=args.bit_transform,
            seeds=seeds or (),
            cover_sources=tuple(args.cover),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # covers are read only once the params accept them
    covers = [load_image_file(p) for p in args.cover]
    share_set = generate_shares(original, params, covers)
    try:
        manifest_path = save_enrollment(share_set, user, args.out)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"enrolled {user}: {args.shares} shares ({method.value}, "
          f"{original.width}x{original.height}) -> {manifest_path}")
    return EXIT_OK


def _load_enrollment(args):
    """The manifest named on the command line and its digest-checked shares."""
    manifest = load_manifest(args.manifest)
    return manifest, load_share_set(manifest, args.share_dir or args.manifest.parent)


def _write_report(path: Path | None, doc: dict) -> None:
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def cmd_authenticate(args) -> int:
    manifest, share_set = _load_enrollment(args)
    out_dir = args.out or args.share_dir or args.manifest.parent
    params = manifest.params
    if args.seeds is not None:
        try:
            params = dataclasses.replace(params, seeds=args.seeds)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    secret, covers = authenticate(share_set)

    out_dir.mkdir(parents=True, exist_ok=True)
    user = manifest.user_id
    write_pgm_file(secret, out_dir / f"{user}_reconstructed_secret.pgm")
    for i, cover in enumerate(covers, start=1):
        write_pgm_file(cover, out_dir / f"{user}_reconstructed_cover_{i}.pgm")
    print(f"digests verified; reconstructed secret and {len(covers)} covers -> {out_dir}")

    if params.method is Method.M3:
        revealed = reveal_original(secret, params)
        write_pgm_file(revealed, out_dir / f"{user}_revealed_original.pgm")
        print(f"revealed original -> {out_dir / (user + '_revealed_original.pgm')}")
    return EXIT_OK


def _format_table(report: MetricsReport) -> str:
    lines = [f"{'measure':<8} {'value':>14} {'ideal':>8}"]
    for name in MetricsReport.FIELDS:
        text = format_measure(getattr(report, name))
        lines.append(f"{name:<8} {text:>14} {IDEAL_ROW[name]:>8}")
    return "\n".join(lines)


def cmd_evaluate(args) -> int:
    original = load_image_file(args.original)
    manifest, share_set = _load_enrollment(args)
    reports = [report_all(original, share) for share in share_set.shares]
    averaged = mean_reports(reports)

    print(f"{manifest.user_id}: {len(reports)} shares vs {args.original}")
    print(_format_table(averaged))
    doc = {
        "schema": EVALUATE_SCHEMA,
        "original": str(args.original),
        "manifest": str(args.manifest),
        "pairs": len(reports),
        "metrics": averaged.to_dict(),
        "per_share": [r.to_dict() for r in reports],
    }
    _write_report(args.report, doc)
    if args.report is not None:
        print(f"report -> {args.report}")
    return EXIT_OK


def cmd_batch(args) -> int:
    require_share_count(args.shares)
    csv_path = args.csv
    if csv_path is None and args.report is not None:
        csv_path = args.report.with_suffix(".csv")
    if args.report is not None and csv_path.resolve() == args.report.resolve():
        raise UsageError(f"the per-image CSV would overwrite the JSON report {args.report}; "
                         "give --csv another path")
    rows, report = run_batch(
        root=args.root,
        kind=args.dataset_kind,
        method=Method(args.method),
        n=args.shares,
        master_seed=args.seed,
        transform=args.bit_transform,
    )
    doc = report.to_dict()
    print(json.dumps(doc, indent=2))
    _write_report(args.report, doc)
    if csv_path is not None:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        write_batch_csv(rows, csv_path)
        print(f"per-image rows -> {csv_path}", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (PgmError, BmpError, DimensionMismatchError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except EmptyCorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
