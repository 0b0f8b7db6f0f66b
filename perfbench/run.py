#!/usr/bin/env python3
"""End-to-end train/serve benchmark of the ScalParC tools.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the repository's
`scalparc` and `scalparc-serve` (Release, through perfbench/CMakeLists.txt)
into .bench_build/perfbench; later runs reuse the build.

--trace 0 drives the built tools as child processes in a closed loop (one
tool process at a time, 4 rank threads in it) for --seconds seconds, checks
every output, and reports the end-to-end metrics. --trace 1 replays the same
path in one process through perfbench_trace, with spans around every public
call and the program's own phase spans on, times the untraced and p=1 fits
in fresh processes, runs each tool once more, and reports the per-layer
metrics. --workload all runs every workload in turn and prefixes each metric
with its workload. See perfbench/README.md.

The last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
The exit code is 0 when every output checked is correct, 1 when a
correctness gate failed, and 2, with no result line, when the benchmark
could not run or a step it depends on failed.
"""

import argparse
import contextlib
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "work"
TRACE_DIR = ROOT / ".bench_build" / "traces"
TOOLS = BUILD_DIR / "scalparc" / "tools"
SPAWN = BUILD_DIR / "perfbench_spawn"

RANKS = 4
BATCH = 256
GENERATOR_FLAGS = ["--function", "F6", "--noise", "0.05"]
TOOL_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "serve"
    records: int
    train_flags: list = field(default_factory=list)
    rounds: int = 1
    setup_repeats: int = 3


WORKLOADS = {
    # The paper's algorithm at >= 1M records: presort, the node table and
    # PerformSplitII's alltoall enquiries dominate induction.
    "train-exact": Workload(
        kind="train", records=1_000_000,
        train_flags=["--max-depth", "14"], setup_repeats=1),
    # Histogram split finding: no presort, no node table; FindSplitI's
    # per-level histogram allreduce dominates.
    "train-histogram": Workload(
        kind="train", records=400_000,
        train_flags=["--max-depth", "14", "--split-mode", "histogram",
                     "--hist-bins", "64"]),
    # Batched scoring of a model trained at set-up: tree load, CSV ingest,
    # the compiled tree and the serve fan-out; no induction.
    "serve-csv": Workload(
        kind="serve", records=200_000, train_flags=["--max-depth", "14"],
        rounds=100),
}

# The metrics each mode reports, name -> unit, as BENCHMARK.json declares.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {
    0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}


class BenchError(Exception):
    """The benchmark could not run (exit 2, no result line)."""


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    """Builds the tools and the traced harness; serialized by a lock file."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
             "scalparc", "scalparc-serve", "perfbench_trace",
             "perfbench_spawn"],
        ]
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise BenchError(f"build step failed: {' '.join(step)}")


@dataclass
class ToolRun:
    code: int
    wall_s: float
    maxrss_mb: float


def run_tool(argv, out_path):
    """Runs one child process to completion; its wall time and peak RSS.

    perfbench_spawn starts the child and measures it: a child started
    straight from Python would inherit Python's peak RSS in ru_maxrss.
    """
    result = Path(f"{out_path}.rusage")
    result.unlink(missing_ok=True)
    with open(out_path, "wb") as out:
        # Own process group, so that a kill reaches the tool as well.
        proc = subprocess.Popen([str(SPAWN), str(result), *map(str, argv)],
                                stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=TOOL_TIMEOUT_S)
        except BaseException as e:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if not isinstance(e, subprocess.TimeoutExpired):
                raise
            log(f"{Path(argv[0]).name} timed out after {TOOL_TIMEOUT_S} s")
            return ToolRun(-signal.SIGKILL, TOOL_TIMEOUT_S, 0.0)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"perfbench_spawn failed on {Path(argv[0]).name}")
    measured = json.loads(result.read_text())
    if measured["exit"] != 0:
        tail = Path(out_path).read_text(errors="replace")[-2000:]
        log(f"{Path(argv[0]).name} exited {measured['exit']}:\n{tail}")
    return ToolRun(measured["exit"], measured["wall_s"],
                   measured["maxrss_kb"] / 1024.0)


def checked(argv, out_path):
    run = run_tool(argv, out_path)
    if run.code != 0:
        raise BenchError(f"step failed: {' '.join(map(str, argv))}")
    return run


def crc32(path):
    return zlib.crc32(Path(path).read_bytes())


def expected_batches(records, ranks, batch, rounds):
    """Global batch count of scalparc-serve's per-rank sharding."""
    total = 0
    for r in range(ranks):
        lo, hi = records * r // ranks, records * (r + 1) // ranks
        total += rounds * ((hi - lo + batch - 1) // batch)
    return total


class Spans:
    """The harness's own spans: name, begin, end, parent; one run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.records = []
        self.stack = []

    @contextlib.contextmanager
    def span(self, name):
        span_id = len(self.records)
        self.records.append({
            "run_id": self.run_id, "id": span_id, "name": name,
            "parent": self.stack[-1] if self.stack else -1,
            "begin_s": time.perf_counter() - self.origin})
        self.stack.append(span_id)
        try:
            yield span_id
        finally:
            self.stack.pop()
            self.records[span_id]["end_s"] = time.perf_counter() - self.origin

    def adopt(self, children, parent_id):
        """Adds spans recorded by a child process under `parent_id`."""
        base = len(self.records)
        offset = self.records[parent_id]["begin_s"]
        for child in children:
            self.records.append({
                "run_id": self.run_id, "id": base + child["id"],
                "name": child["name"],
                "parent": (parent_id if child["parent"] < 0
                           else base + child["parent"]),
                "begin_s": offset + child["begin_s"],
                "end_s": offset + child["end_s"]})


class Bench:
    def __init__(self, name, workload, seed, workdir):
        self.name = name
        self.w = workload
        self.seed = seed
        self.dir = workdir
        self.csv = workdir / "data.csv"
        self.scalparc = str(TOOLS / "scalparc")
        self.serve = str(TOOLS / "scalparc-serve")
        self.trace_bin = str(BUILD_DIR / "perfbench_trace")
        self.attempted = 0
        self.failed = 0

    # -- commands --------------------------------------------------------
    def generate(self):
        checked([self.scalparc, "generate", "--records", str(self.w.records),
                 "--seed", str(self.seed), *GENERATOR_FLAGS,
                 "--out", str(self.csv)], self.dir / "generate.log")

    def train_argv(self, ranks, model):
        return [self.scalparc, "train", "--data", str(self.csv),
                "--model", str(model), "--ranks", str(ranks),
                *self.w.train_flags]

    def serve_argv(self, model, report):
        return [self.serve, "--model", str(model), "--data", str(self.csv),
                "--ranks", str(RANKS), "--batch", str(BATCH),
                "--rounds", str(self.w.rounds), "--report", str(report)]

    # -- correctness gates -------------------------------------------------
    def gate(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"correctness gate failed: {what}")
        return ok

    def check_tree(self, run, tree, ref_crc):
        ok = run.code == 0 and tree.exists() and crc32(tree) == ref_crc
        return self.gate(ok, f"{tree.name} differs from the p=1 reference")

    def check_serve(self, run, report_path, expected):
        ok = run.code == 0 and report_path.exists()
        if ok:
            report = json.loads(report_path.read_text())
            quality = report["quality"]
            batches = expected_batches(self.w.records, RANKS, BATCH,
                                       self.w.rounds)
            ok = (report["batches_served"] == batches
                  and report["workload_records"] * report["rounds"]
                  == expected["total"]
                  and quality["accuracy"] == expected["accuracy"]
                  and quality["classes"] == expected["classes"])
        return self.gate(ok, "serve report differs from core::evaluate")

    # -- set-up ------------------------------------------------------------
    def setup(self):
        """Inputs plus the reference the gates compare against."""
        self.generate()
        if self.w.kind == "train":
            ref = self.dir / "ref.tree"
            checked(self.train_argv(1, ref), self.dir / "ref.log")
            return crc32(ref)
        model = self.dir / "model.tree"
        checked(self.train_argv(RANKS, model), self.dir / "model.log")
        expected = self.dir / "expected.json"
        checked([self.trace_bin, "evaluate", "--model", str(model),
                 "--data", str(self.csv), "--rounds", str(self.w.rounds)],
                expected)
        return json.loads(expected.read_text())

    # -- trace 0: end-to-end -----------------------------------------------
    def end_to_end(self, seconds, tamper):
        setup_times = []
        reference = None
        for _ in range(self.w.setup_repeats):
            start = time.perf_counter()
            again = self.setup()
            setup_times.append(time.perf_counter() - start)
            if reference is not None and again != reference:
                raise BenchError("set-up is not deterministic for one seed")
            reference = again
        if tamper:
            reference = (reference ^ 1 if self.w.kind == "train"
                         else {**reference, "accuracy": -1.0})

        walls, rss = [], []
        start = time.perf_counter()
        while True:
            if self.w.kind == "train":
                tree = self.dir / "out.tree"
                tree.unlink(missing_ok=True)
                run = run_tool(self.train_argv(RANKS, tree),
                               self.dir / "train.log")
                self.check_tree(run, tree, reference)
            else:
                report = self.dir / "report.json"
                report.unlink(missing_ok=True)
                run = run_tool(self.serve_argv(self.dir / "model.tree", report),
                               self.dir / "serve.log")
                self.check_serve(run, report, reference)
            walls.append(run.wall_s)
            rss.append(run.maxrss_mb)
            # Start another run only if it is expected to end in time.
            if (time.perf_counter() - start + statistics.median(walls)
                    > seconds):
                break
        log(f"{self.name}: {len(walls)} run(s), walls "
            + " ".join(f"{w:.3f}" for w in walls)
            + " s; rss " + " ".join(f"{r:.0f}" for r in rss)
            + " MB; set-ups " + " ".join(f"{s:.3f}" for s in setup_times))
        return {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
        }

    # -- trace 1: per-layer ------------------------------------------------
    def traced(self, tamper):
        run_id = f"{self.name}-seed{self.seed}-{os.getpid()}"
        spans = Spans(run_id)
        inproc_tree = self.dir / "inproc.tree"
        ref = self.dir / "ref.tree"
        TRACE_DIR.mkdir(parents=True, exist_ok=True)

        def harness(name, subcommand, *flags):
            """One perfbench_trace process, its spans adopted under `name`."""
            out = self.dir / f"{name}.json"
            with spans.span(name) as span_id:
                checked([self.trace_bin, subcommand, "--data", str(self.csv),
                         "--run-id", run_id, *flags, *self.w.train_flags],
                        out)
            doc = json.loads(out.read_text().splitlines()[-1])
            spans.adopt(doc["spans"], span_id)
            return doc

        with spans.span("run"):
            with spans.span("setup.generate"):
                self.generate()
            inproc = harness(
                "inprocess", "trace", "--model-out", str(inproc_tree),
                "--ranks", str(RANKS), "--batch", str(BATCH),
                "--rounds", str(self.w.rounds),
                "--trace-out", str(TRACE_DIR / f"{run_id}.program.json"))
            untraced = harness("baseline.fit_untraced", "fit",
                               "--ranks", str(RANKS))
            p1 = harness("baseline.fit_p1", "fit", "--ranks", "1",
                         "--tree-out", str(ref))
            ref_crc = crc32(ref) ^ (1 if tamper else 0)
            self.gate(crc32(inproc_tree) == ref_crc,
                      "in-process p=4 tree differs from the p=1 reference")
            with spans.span("tool.train"):
                tool_tree = self.dir / "tool.tree"
                train = run_tool(self.train_argv(RANKS, tool_tree),
                                 self.dir / "train.log")
                self.check_tree(train, tool_tree, ref_crc)
            with spans.span("tool.serve"):
                report_path = self.dir / "report.json"
                serve = run_tool(self.serve_argv(inproc_tree, report_path),
                                 self.dir / "serve.log")
                self.check_serve(serve, report_path, inproc["quality"])
        (TRACE_DIR / f"{run_id}.spans.json").write_text(
            json.dumps({"run_id": run_id, "spans": spans.records}, indent=1))

        metrics = dict(inproc["metrics"])
        metrics["core.fit_speedup_p4"] = p1["fit_s"] / untraced["fit_s"]
        metrics["trace.overhead_pct"] = (
            100.0 * (metrics["core.fit_s"] - untraced["fit_s"])
            / untraced["fit_s"])
        if serve.code != 0 or not report_path.exists():
            raise BenchError("scalparc-serve wrote no report")
        report = json.loads(report_path.read_text())
        metrics["tools.serve_records_per_s"] = report["records_per_s"]
        metrics["tools.serve_batch_p50_us"] = report["latency"]["p50_us"]
        metrics["tools.serve_batch_p99_us"] = report["latency"]["p99_us"]
        metrics["tools.serve_efficiency"] = (
            report["records_per_s"]
            / metrics["core.predict_kernel_records_per_s"])
        # The driven tool's wall against the same calls made in-process.
        metrics["tools.process_overhead_s"] = (
            train.wall_s - inproc["train_calls_s"] if self.w.kind == "train"
            else serve.wall_s - inproc["serve_calls_s"])
        return metrics


def run_workload(name, args):
    """One workload's run; its Bench (gate counts) and metrics."""
    workload = WORKLOADS[name]
    if args.records is not None:
        workload = replace(workload, records=args.records)
    workdir = WORK_DIR / f"{name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        bench = Bench(name, workload, args.seed, workdir)
        metrics = (bench.traced(args.tamper) if args.trace
                   else bench.end_to_end(args.seconds, args.tamper))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = DECLARED[args.trace]
    missing = sorted(declared.keys() - metrics.keys())
    if missing:
        raise BenchError(f"{name} lacks metrics: {missing}")
    for metric, unit in declared.items():
        log(f"{name:16s} {metric:36s} {metrics[metric]:.6g} {unit}")
    return bench, {k: (metrics[k], unit) for k, unit in declared.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smoke-scale overrides for perfbench/selfcheck.py.
    parser.add_argument("--records", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--tamper", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        build()
        for name in names:
            bench, result = run_workload(name, args)
            attempted += bench.attempted
            failed += bench.failed
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in result.items()})
    except BenchError as e:
        log(f"error: {e}")
        return 2

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
