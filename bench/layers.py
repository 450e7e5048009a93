"""Per-layer numbers from the span files that traced commands write.

A span is [name, start_ns, end_ns, parent_index, attrs]; one file holds the
spans of one process, which is one request. Self time is a span's duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict

DECODE_SPANS = ("codecs.load_image", "codecs.load_pgm", "codecs.load_bmp")
SKIP_REASON_OF_ERROR = {"PgmError": "pgm_error", "BmpError": "bmp_error"}

ALL = ("batch-orl-m3", "batch-mixed-m1", "cli-1mp-m3")
M3 = ("batch-orl-m3", "cli-1mp-m3")
M1 = ("batch-mixed-m1",)
BATCH = ("batch-orl-m3", "batch-mixed-m1")

# The end-to-end metric each layer should move, and on which workload:
#   prng          images_per_s on batch-mixed-m1 (noise covers)
#   permutation   images_per_s on batch-orl-m3, enroll_s and authenticate_s on
#                 cli-1mp-m3; idle on batch-mixed-m1, where the prediction is no change
#   images        enroll_s and authenticate_s on cli-1mp-m3
#   scheme        the same
#   metrics       images_per_s on batch-mixed-m1, evaluate_s everywhere
#   codecs        P2/BMP: images_per_s on batch-mixed-m1; P5 and writes: cli-1mp-m3
#   manifest      authenticate_s and evaluate_s
#   datasets      images_per_s
#   batch         images_per_s
#   cli           setup_s (process.import_s) and every command latency

# span name -> workloads on which it must be entered at least once
COVERAGE = {
    "prng.splitmix64": ALL,
    "permutation.derive_permutation": M3,
    "permutation.permute_image": M3,
    "permutation.inverse_permute_image": M3,
    "images.xor_images": ALL,
    "images.bit_transform": ALL,
    "scheme.make_covers": ALL,
    "scheme.enroll": ALL,
    "scheme.authenticate": ALL,
    "scheme.reveal_original": M3,
    "metrics.report_all": ALL,
    "metrics.correlation": ALL,
    "metrics.mse": ALL,
    "metrics.mae": ALL,
    "metrics.ssim": ALL,
    "metrics.npcr": ALL,
    "metrics.uaci": ALL,
    "metrics.psnr_from_mse": ALL,
    "metrics.mean_reports": ALL,
    "codecs.load_image_file": ALL,
    "codecs.load_image": ALL,
    "codecs.load_pgm.p5": ALL,
    "codecs.load_pgm.p2": M1,
    "codecs.load_bmp": M1,
    "codecs.save_pgm": ALL,
    "codecs.write_pgm_file": ALL,
    "manifest.pixel_digest": ALL,
    "manifest.load_share_set": ALL,
    "manifest.load_manifest": ALL,
    "manifest.save_manifest": ALL,
    "datasets.corpus_paths": BATCH,
    "batch.run_batch": BATCH,
    "cli.main.enroll": ALL,
    "cli.main.authenticate": ALL,
    "cli.main.evaluate": ALL,
    "cli.main.batch": BATCH,
}

# workload -> span-name prefixes that must never be entered (the workload
# on which a change to that layer must show no effect)
IDLE = {"batch-mixed-m1": ("permutation.",)}


def self_times(spans: list[list]) -> list[int]:
    """Self time of every span, in the spans' clock unit."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def metric_name(span: list) -> str:
    attrs = span[4] or {}
    return f"{span[0]}.{attrs['variant']}" if "variant" in attrs else span[0]


def add_process(totals: dict[str, float], doc: dict) -> None:
    """Fold one process's span file into running totals.

    Adds `<span>.calls` and `<span>.self_s` for every span, `<span>.<key>`
    for every numeric attr, the counters, decode and integrity errors and
    batch skip reasons."""
    spans = doc["spans"]
    for span, self_ns in zip(spans, self_times(spans)):
        name = metric_name(span)
        attrs = span[4] or {}
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += self_ns / 1e9
        for key, value in attrs.items():
            if key not in ("variant", "error"):
                totals[f"{name}.{key}"] += value
        parent = spans[span[3]][0] if span[3] >= 0 else ""
        error = attrs.get("error")
        if error and span[0] in DECODE_SPANS and parent not in DECODE_SPANS:
            totals["codecs.decode.errors"] += 1
        if error == "IntegrityError" and span[0] == "manifest.load_share_set":
            totals["manifest.integrity.errors"] += 1
        if span[0] == "codecs.load_image_file" and parent == "batch.run_batch":
            if error:
                reason = SKIP_REASON_OF_ERROR.get(error, "os_error")
                totals[f"batch.run_batch.skipped_{reason}"] += 1
            elif attrs["pixels"] < 2:
                totals["batch.run_batch.skipped_degenerate"] += 1
    for key, value in doc["counters"].items():
        totals[key] += value
    totals["trace.spans"] += len(spans)


def finish(totals: dict[str, float], iterations: int) -> dict[str, float]:
    """Per-iteration values, plus ratios that need whole-run totals."""
    out = {key: value / iterations for key, value in totals.items()}
    calls = totals["permutation.derive_permutation.calls"]
    repeats = totals["permutation.derive_permutation.repeat"]
    out["permutation.derive_permutation.repeat_ratio"] = repeats / calls if calls else 0.0
    return out


def coverage_failures(totals: dict[str, float], workload: str) -> list[str]:
    """Wrapped names not hit where they must be, or hit where they must not."""
    failures = [
        f"{name} was never entered on {workload}"
        for name, workloads in COVERAGE.items()
        if workload in workloads and totals[f"{name}.calls"] == 0
    ]
    for prefix in IDLE.get(workload, ()):
        failures += [
            f"{key} is {value} on {workload}, expected 0"
            for key, value in totals.items()
            if key.startswith(prefix) and key.endswith(".calls") and value
        ]
    return failures
