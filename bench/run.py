#!/usr/bin/env python3
"""bioshares benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one table each

Every bioshares command runs as a fresh interpreter (`python3 -m bioshares`
with PYTHONPATH=src), started from this process one at a time: a closed loop
with one client. A workload iteration is one `batch` process (batch
workloads) followed by enroll -> authenticate (with reveal) -> evaluate
round trips on a probe image, each with fresh seeds, so every workload
reports every end-to-end metric. Iterations repeat until --seconds have
passed.

Iteration k runs pinned to the k-th usable CPU in turn, and a time metric is
the mean over CPUs of the median of the samples taken on each CPU. On a
shared machine the cores can differ in speed by a third for minutes at a
time; without the rotation a run's result would depend on which core the
scheduler happened to favour. Inputs are generated from --seed into
.bench_work/ and their generation time is logged but kept out of every
metric. Every output is checked (see checks.py); `failed` counts wrong
outcomes out of `attempted` operations (one per corpus file and report of a
batch, one per CLI command).

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced iterations with the same arguments: traced
commands run through tracehook.py, their outputs must be byte-identical to
the untraced ones, every wrapped function must be hit where layers.COVERAGE
says, and the per-layer metrics of BENCHMARK.json are reported per traced
iteration together with the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full result, with the samples and the
machine it ran on, is written to .bench_results/. The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
import layers

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1  # golden.json holds the outputs frozen for this seed
GOLDEN_ROUNDTRIPS = 3  # round trips per run whose outputs are frozen
RUN_DEADLINE_S = 170.0  # every process is killed past this point of a run


@dataclass(frozen=True)
class Workload:
    method: str
    probe_size: tuple[int, int]
    dataset_kind: str | None  # None: the workload runs no batch command
    roundtrips: int  # per iteration; small probes take several for steadier medians


# Why each workload exists is recorded in BENCHMARK.json. In short: many small
# images with their own seeds (permutation derivation and per-call overhead),
# mid-size images without permutations (metrics, decoders, skips; the
# no-change prediction for permutation work), and one large image per command.
WORKLOADS = {
    "batch-orl-m3": Workload("m3", inputs.ORL_SIZE, "orl-pgm", 3),
    "batch-mixed-m1": Workload("m1", inputs.MIXED_SIZE, "flat", 3),
    "cli-1mp-m3": Workload("m3", inputs.LARGE_SIZE, None, 1),
}


@dataclass
class Proc:
    label: str
    trip: int | None  # round trip within the iteration; None for batch
    rc: int
    wall_s: float
    rss_mb: float
    stdout: Path
    stderr: Path


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, errors: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors += errors


class Runner:
    """Starts bioshares processes, one at a time, from one checkout."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.cpus = sorted(os.sched_getaffinity(0))

    def use_cpu(self, k: int) -> int:
        """Pin this process, and so the children it starts, to the k-th CPU in turn."""
        cpu = self.cpus[k % len(self.cpus)]
        os.sched_setaffinity(0, {cpu})
        return cpu

    def run(self, argv: list[str], cwd: Path, label: str, trip: int | None, log: str) -> Proc:
        out, err = self.work / "logs" / f"{log}.out", self.work / "logs" / f"{log}.err"
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=fout, stderr=ferr)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(label, trip, proc.returncode, wall, usage.ru_maxrss / 1024.0, out, err)

    def setup_probe(self) -> float:
        proc = self.run([sys.executable, "-c", "import bioshares"], self.work, "setup", None, "setup")
        if proc.rc != 0:
            raise RuntimeError(f"import bioshares failed: {proc.stderr.read_text()[-400:]}")
        return proc.wall_s


def trip_number(w: Workload, k: int, j: int) -> int:
    """Round trip j of iteration k, counted over the run; it keys the trip's seeds."""
    return k * w.roundtrips + j


def commands(w: Workload, seed: int, k: int, corpus: inputs.Corpus | None):
    """(label, round trip, bioshares args) of iteration k; paths are relative
    to the side's cwd."""
    it = f"it{k}"
    out = []
    if corpus is not None:
        out.append(("batch", None, [
            "batch", f"../input/{corpus.root.name}", "--dataset-kind", w.dataset_kind,
            "--method", w.method, "--shares", str(checks.SHARES),
            "--seed", str(inputs.child_seed(seed, 2)), "--report", f"{it}/batch/report.json"]))
    for j in range(w.roundtrips):
        rt = f"{it}/rt{j}"
        manifest = f"{rt}/{checks.USER}_manifest.json"
        out += [
            ("enroll", j, ["enroll", "../input/probe.pgm", "--out", rt, "--user", checks.USER,
                           "--method", w.method, "--shares", str(checks.SHARES),
                           "--seed", str(inputs.child_seed(seed, 100 + trip_number(w, k, j)))]),
            ("authenticate", j, ["authenticate", manifest, "--out", f"{rt}/auth"]),
            ("evaluate", j, ["evaluate", "../input/probe.pgm", manifest,
                             "--report", f"{rt}/evaluate.json"]),
        ]
    return out


class Bench:
    def __init__(self, name: str, seed: int, root: Path):
        self.name, self.w, self.seed, self.root = name, WORKLOADS[name], seed, root
        self.work = root / ".bench_work" / f"{name}-seed{seed}"
        golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
        self.golden = golden["workloads"].get(name, {}) if seed == golden["seed"] else {}
        self.tally = Tally()
        self.observed: dict = {"roundtrips": []}

    def prepare(self) -> float:
        shutil.rmtree(self.work, ignore_errors=True)
        for sub in ("input", "logs", "spans", "plain", "traced"):
            (self.work / sub).mkdir(parents=True)
        start = time.perf_counter()
        data_seed = inputs.child_seed(self.seed, 0)
        self.corpus = None
        if self.w.dataset_kind == "orl-pgm":
            self.corpus = inputs.write_orl_tree(self.work / "input" / "orl", data_seed)
        elif self.w.dataset_kind == "flat":
            self.corpus = inputs.write_mixed_folder(self.work / "input" / "mixed", data_seed)
        self.probe = inputs.write_probe(self.work / "input" / "probe.pgm",
                                        inputs.child_seed(self.seed, 1), self.w.probe_size)
        self.runner = Runner(self.root, self.work)
        return time.perf_counter() - start

    def iteration(self, k: int, traced: bool) -> list[Proc]:
        side = "traced" if traced else "plain"
        procs = []
        for label, j, args in commands(self.w, self.seed, k, self.corpus):
            name = f"it{k}-{label}" if j is None else f"it{k}-{label}{j}"
            if traced:
                spans = self.work / "spans" / f"{name}.json"
                argv = [sys.executable, str(BENCH_DIR / "tracehook.py"), str(spans),
                        f"{self.name}/{name}", *args]
            else:
                argv = [sys.executable, "-m", "bioshares", *args]
            procs.append(self.runner.run(argv, self.work / side, label, j, f"{side}-{name}"))
        self.check(k, side, procs)
        return procs

    def check(self, k: int, side: str, procs: list[Proc]) -> None:
        out = self.work / side / f"it{k}"
        rc = {(p.label, p.trip): p.rc for p in procs}
        for p in procs:
            if p.rc != 0:
                self.tally.errors.append(f"{side} it{k} {p.label}: exit {p.rc}: "
                                         f"{p.stderr.read_text(errors='replace')[-300:]}")
        if self.corpus is not None:
            failed, errors, report = checks.check_batch(
                out / "batch", self.corpus, self.golden.get("batch_metrics"))
            self.tally.add(self.corpus.files + 1, failed, errors)
            if k == 0 and side == "plain":
                self.observed["batch_metrics"] = report.get("metrics")
        frozen = self.golden.get("roundtrips", [])
        dims = self.w.probe_size
        for j in range(self.w.roundtrips):
            g, rt = trip_number(self.w, k, j), out / f"rt{j}"
            golden = frozen[g] if g < len(frozen) else None
            errors, shares, digests = checks.check_enroll(
                rt, dims, golden and {"share_digests": golden["share_digests"]})
            self.tally.add(1, bool(errors) or rc["enroll", j] != 0, errors)
            errors = checks.check_authenticate(rt, self.probe, dims, self.w.method, shares)
            self.tally.add(1, bool(errors) or rc["authenticate", j] != 0, errors)
            errors, metrics = checks.check_evaluate(
                rt, self.probe, dims, shares, golden and golden["evaluate"])
            self.tally.add(1, bool(errors) or rc["evaluate", j] != 0, errors)
            if side == "plain" and g < GOLDEN_ROUNDTRIPS:
                self.observed["roundtrips"].append({"share_digests": digests, "evaluate": metrics})

    def measure(self, seconds: float) -> tuple[dict[str, list[tuple[int, float]]], list[float]]:
        """Untraced loop; returns (CPU, value) samples per end-to-end metric
        and the max RSS of every command process."""
        self.runner.setup_probe()  # compiles bytecode once, as an installed package has it
        samples: dict[str, list[tuple[int, float]]] = defaultdict(list)
        rss = []
        start, k = time.perf_counter(), 0
        while k == 0 or time.perf_counter() - start < seconds:
            cpu = self.runner.use_cpu(k)
            samples["setup_s"].append((cpu, self.runner.setup_probe()))
            trips: dict[int, float] = defaultdict(float)
            for p in self.iteration(k, traced=False):
                rss.append(p.rss_mb)
                if p.trip is None:
                    samples["images_per_s"].append((cpu, len(self.corpus.enrolled) / p.wall_s))
                else:
                    samples[f"{p.label}_s"].append((cpu, p.wall_s))
                    trips[p.trip] += p.wall_s
            if self.corpus is None:  # one image enrolled, authenticated and scored per trip
                samples["images_per_s"] += [(cpu, 1.0 / wall) for wall in trips.values()]
            shutil.rmtree(self.work / "plain" / f"it{k}", ignore_errors=True)
            k += 1
        return samples, rss

    def measure_traced(self, seconds: float) -> tuple[dict[str, float], dict]:
        """Alternating untraced/traced loop; returns per-layer values and samples."""
        self.runner.setup_probe()
        totals: dict[str, float] = defaultdict(float)
        batch_totals: dict[str, float] = defaultdict(float)
        samples: dict[str, list[float]] = defaultdict(list)
        start, k = time.perf_counter(), 0
        while k == 0 or time.perf_counter() - start < seconds:
            self.runner.use_cpu(k)
            plain = self.iteration(k, traced=False)
            traced = self.iteration(k, traced=True)
            samples["plain_iteration_s"].append(sum(p.wall_s for p in plain))
            samples["traced_iteration_s"].append(sum(p.wall_s for p in traced))
            for p in traced:
                spans = self.work / "spans" / (
                    f"it{k}-{p.label}.json" if p.trip is None else f"it{k}-{p.label}{p.trip}.json")
                try:
                    doc = json.loads(spans.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    self.tally.add(1, 1, [f"traced it{k} {p.label}: no span file"])
                    continue
                layers.add_process(totals, doc)
                samples["import_s"].append(doc["import_s"])
                if p.label == "batch":
                    layers.add_process(batch_totals, doc)
                    samples["traced_batch_s"].append(p.wall_s)
                spans.unlink()
            self.compare_sides(k, plain, traced)
            k += 1
        values = layers.finish(totals, k)
        coverage = layers.coverage_failures(totals, self.name)
        self.tally.add(len(layers.COVERAGE), len(coverage), coverage)
        if self.corpus is not None:
            want = {f"batch.run_batch.skipped_{r}": float(n)
                    for r, n in self.corpus.skip_counts().items()}
            got = {key: values.get(key, 0.0) for key in want}
            errors = checks.compare_metrics(got, want, "traced skip reasons")
            self.tally.add(1, bool(errors), errors)
        if samples["traced_batch_s"]:
            perm_self = sum(v for key, v in batch_totals.items()
                            if key.startswith("permutation.") and key.endswith(".self_s"))
            values["permutation.batch_self_share"] = perm_self / sum(samples["traced_batch_s"])
        if samples["import_s"]:
            values["cli.process.import_s"] = statistics.median(samples["import_s"])
        values["trace.overhead_ratio"] = statistics.median(
            t / p - 1.0 for t, p in zip(samples["traced_iteration_s"], samples["plain_iteration_s"]))
        return values, samples

    def compare_sides(self, k: int, plain: list[Proc], traced: list[Proc]) -> None:
        """Traced outputs, stdout and stderr must equal the untraced ones byte for byte."""
        diffs = checks.same_tree(self.work / "plain" / f"it{k}", self.work / "traced" / f"it{k}")
        for a, b in zip(plain, traced):
            for x, y in ((a.stdout, b.stdout), (a.stderr, b.stderr)):
                if x.read_bytes() != y.read_bytes():
                    diffs.append(f"{a.label} {x.suffix[1:]}")
        self.tally.add(1, bool(diffs), [f"it{k}: traced output differs: {d}" for d in diffs])
        for side in ("plain", "traced"):
            shutil.rmtree(self.work / side / f"it{k}", ignore_errors=True)


def cpu_balanced_median(samples: list[tuple[int, float]]) -> float:
    """Mean over CPUs of the median of the values measured on each CPU."""
    by_cpu: dict[int, list[float]] = defaultdict(list)
    for cpu, value in samples:
        by_cpu[cpu].append(value)
    return statistics.fmean(statistics.median(v) for v in by_cpu.values())


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p90/p99 with at least ten samples beyond it, if any."""
    for p in (99, 90, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(values, p))
    return None


def environment(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]) == root:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout: src_sha256 still names the code
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 spec: dict) -> dict:
    bench = Bench(name, seed, root)
    gen_s = bench.prepare()
    print(f"[{name}] inputs generated in {gen_s:.2f} s (not measured)", file=sys.stderr)
    try:
        if trace:
            values, samples = bench.measure_traced(seconds)
            wanted = spec["per_layer"]
        else:
            samples, rss = bench.measure(seconds)
            values = {key: cpu_balanced_median(v) for key, v in samples.items()}
            values["peak_rss_mb"] = max(rss)
            samples["peak_rss_mb"] = rss
            wanted = spec["end_to_end"]
    finally:
        os.sched_setaffinity(0, bench.runner.cpus)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    tally = bench.tally
    correct = tally.failed == 0 and not tally.errors
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    doc = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
           "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
           "environment": environment(root), "generate_s": gen_s,
           "failed_ratio": tally.failed / max(1, tally.attempted), "errors": tally.errors[:50],
           "samples": samples, "observed": bench.observed, "result": result}
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print_table(name, doc, wanted)
    if correct:
        shutil.rmtree(bench.work, ignore_errors=True)
    return result


def print_table(name: str, doc: dict, wanted: list[dict]) -> None:
    samples, metrics = doc["samples"], doc["result"]["metrics"]
    print(f"== {name} (seed {doc['seed']}, trace {doc['trace']}): "
          f"{doc['result']['failed']} failed of {doc['result']['attempted']} attempted, "
          f"failed_ratio {doc['failed_ratio']:.4g}")
    for m in wanted:
        values = samples.get(m["name"], [])
        if m["name"] == "peak_rss_mb":
            extra = f"  (max of n={len(values)} processes)"
        elif values and not doc["trace"]:
            cpus = {cpu for cpu, _ in values}
            values = [v for _, v in values]
            extra = (f"  (median per CPU over n={len(values)} on {len(cpus)} CPUs; "
                     f"overall median {statistics.median(values):.6g})")
        else:
            extra = ""
        high = high_percentile(values) if values else None
        if high:
            extra += f"  p{high[0]}={high[1]:.6g}"
        print(f"  {m['name']:<48} {metrics[m['name']]['value']:>14.6g} {m['unit']:<6}{extra}")
    if doc["trace"]:
        print(f"  tracing overhead: traced iteration median "
              f"{statistics.median(samples['traced_iteration_s']):.3f} s vs untraced "
              f"{statistics.median(samples['plain_iteration_s']):.3f} s "
              f"over {len(samples['plain_iteration_s'])} pairs")
    env = doc["environment"]
    print(f"  env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"platform={env['platform']} commit={env['commit']} src_sha256={env['src_sha256'][:16]}")
    for error in doc["errors"][:10]:
        print(f"  FAILED: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bioshares" / "__init__.py").is_file():
        print(f"error: no src/bioshares under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, seconds, bool(args.trace), root, spec)
               for n in names}
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()), "workloads": results}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
