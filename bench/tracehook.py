"""Run one traced bioshares command.

Usage: python3 tracehook.py SPANS_OUT REQUEST_ID BIOSHARES_ARGS...

Imports bioshares, replaces each public function listed in TARGETS with a
span-recording wrapper wherever a bioshares module holds a reference to it
(so `bioshares.manifest.load_pgm` is wrapped as well as
`bioshares.codecs.load_pgm`), then calls `bioshares.cli.main(BIOSHARES_ARGS)`.
Spans stay in memory and are written to SPANS_OUT as JSON when the command
ends. The wrappers change no argument or result, so the command's outputs
are byte-identical to an untraced run. Seeds and pixel data are never
recorded; only sizes, counts and exception class names are.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer (bioshares module) -> public functions wrapped there
TARGETS = {
    "prng": ("splitmix64",),
    "permutation": ("derive_permutation", "permute_image", "inverse_permute_image"),
    "images": ("xor_images", "bit_transform"),
    "scheme": ("make_covers", "enroll", "authenticate", "reveal_original"),
    "metrics": ("report_all", "correlation", "mse", "mae", "ssim", "npcr", "uaci",
                "psnr_from_mse", "mean_reports"),
    "codecs": ("load_image_file", "load_image", "load_pgm", "load_bmp", "save_pgm",
               "write_pgm_file"),
    "manifest": ("pixel_digest", "load_share_set", "load_manifest", "save_manifest"),
    "datasets": ("corpus_paths",),
    "batch": ("run_batch",),
}


def _nbytes(img) -> int:
    return int(img.data.nbytes)


# span name -> attrs(args, kwargs, result); result is None when the call raised
NOTES = {
    "prng.splitmix64": lambda a, k, r: {"outputs": int(a[1])},
    "images.xor_images": lambda a, k, r: {"bytes": 3 * _nbytes(a[0])},
    "metrics.report_all": lambda a, k, r: {"pixels": a[0].pixel_count},
    "codecs.load_pgm": lambda a, k, r: {"variant": "p5" if a[0][1:2] == b"5" else "p2",
                                        "bytes": len(a[0])},
    "codecs.load_bmp": lambda a, k, r: {"bytes": len(a[0])},
    "codecs.load_image_file": lambda a, k, r: None if r is None else {"pixels": r.pixel_count},
    "codecs.save_pgm": lambda a, k, r: None if r is None else {"bytes": len(r)},
    "codecs.write_pgm_file": lambda a, k, r: {"bytes": _nbytes(a[0])},
    "manifest.pixel_digest": lambda a, k, r: {"bytes": _nbytes(a[0])},
    "datasets.corpus_paths": lambda a, k, r: None if r is None else {"files": len(r)},
    "batch.run_batch": lambda a, k, r: None if r is None else {
        "images": r[1].images, "pairs": r[1].pairs, "skipped": r[1].skipped},
}


class Recorder:
    """In-memory spans [name, start_ns, end_ns, parent_index, attrs] and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.seen_keys: set[tuple[int, int]] = set()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        note = self._derive_note if name == "permutation.derive_permutation" else NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
                attrs = note(args, kwargs, result) if note else None
                if error is not None:
                    attrs = dict(attrs or {}, error=error)
                span[4] = attrs

        return wrapper

    def _derive_note(self, args, kwargs, result) -> dict[str, int]:
        # `repeat`: this (seed, length) was already derived in this process
        key = (args[0].seed, args[0].length)
        repeat = key in self.seen_keys
        self.seen_keys.add(key)
        return {"pixels": args[0].length, "repeat": int(repeat)}

    def count_constructs(self, cls) -> None:
        original = cls.__post_init__
        counters = self.counters
        counters["images.GrayImage.constructs"] = 0
        counters["images.GrayImage.bytes"] = 0

        def post_init(img) -> None:
            original(img)
            counters["images.GrayImage.constructs"] += 1
            counters["images.GrayImage.bytes"] += img.data.nbytes

        cls.__post_init__ = post_init

    def dump(self, path: str, request: str, import_s: float, sites: dict[str, int]) -> None:
        doc = {"request": request, "import_s": import_s, "sites": sites,
               "counters": self.counters, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(recorder: Recorder) -> dict[str, int]:
    """Wrap every TARGETS function at each place a bioshares module refers
    to it. Returns the number of patched references per span name; a name
    that no longer exists raises AttributeError."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "bioshares"]
    sites: dict[str, int] = {}
    for layer, names in TARGETS.items():
        home = sys.modules[f"bioshares.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            name = f"{layer}.{fname}"
            wrapped = recorder.wrap(name, original)
            sites[name] = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        sites[name] += 1
    recorder.count_constructs(sys.modules["bioshares.images"].GrayImage)
    return sites


def main(argv: list[str]) -> int:
    spans_out, request, args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    from bioshares import cli

    import_s = time.perf_counter() - start
    recorder = Recorder()
    sites = install(recorder)
    command = args[0] if args and not args[0].startswith("-") else "none"
    run = recorder.wrap(f"cli.main.{command}", cli.main)
    try:
        return run(args)
    finally:
        recorder.dump(spans_out, request, import_s, sites)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
