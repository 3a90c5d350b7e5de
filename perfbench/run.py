"""Benchmark of the ambitrace command-line chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory.  The seed generates the workload's input files (see
``workloads.py``); the program receives only those files.  Every command
runs as its own child process, exactly as a user runs ``ambitrace``, with
``--jobs 1``.

``--trace 0`` measures the end-to-end metrics.  Each repetition first times
one set-up probe (a fresh interpreter importing ``ambitrace.cli`` and
running ``load_manifest`` with its shape check), then the workload's command
sequence; repetitions continue until ``--seconds`` are used, and every
metric is the median over repetitions.  ``--trace 1`` runs the sequence
untraced for half of ``--seconds``, then once more with every command under
``tracer.py``, and reports the per-layer metrics.

Outputs are checked after every repetition; a failed check or command makes
``correct`` false and the exit code 1.  Lines before the last describe the
run for a reader; the last line is the JSON result.  The full result,
environment and (with ``--trace 1``) every span are also written to
``.perfbench_out/`` at the repository root.
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
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
TRACER = Path(__file__).resolve().parent / "tracer.py"
# Every run must end well inside three minutes, whatever the program does.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, unit): "<span>.<calls|s|self_s>", a counter named "<span>.<count>",
# or one of the values derived in measure_per_layer.
PER_LAYER = [
    ("cli.import_s", "s"),
    ("data_io.load_manifest.s", "s"),
    ("data_io.prepare_item.calls", "count"),
    ("data_io.prepare_item.self_s", "s"),
    ("data_io.prepare_item.per_item", "ratio"),
    ("data_io.load_trace_table.s", "s"),
    ("data_io.load_trace_table.rows", "count"),
    ("data_io.load_feature_table.s", "s"),
    ("data_io.dataset_hash.s", "s"),
    ("data_io.dataset_hash.bytes", "bytes"),
    ("traces.window_aggregate.s", "s"),
    ("traces.shift_delay.s", "s"),
    ("traces.align.s", "s"),
    ("representations.interval_representation.s", "s"),
    ("representations.fit_gaussian.calls", "count"),
    ("representations.fit_gaussian.s", "s"),
    ("representations.fit_beta.calls", "count"),
    ("representations.pool_neighbors.calls", "count"),
    ("representations.write_representation.bytes", "bytes"),
    ("model.train.calls", "count"),
    ("model._forward.calls", "count"),
    ("model._forward.rows", "count"),
    ("model._forward.validation_share", "ratio"),
    ("model._backward.calls", "count"),
    ("model.ccc_loss_grad.calls", "count"),
    ("model.Adam.step.calls", "count"),
    ("model.save_checkpoint.bytes", "bytes"),
    ("model.skipped_segments", "count"),
    ("metrics.ccc.calls", "count"),
    ("metrics.sda.calls", "count"),
    ("hot_layer.self_s", "s"),
    ("hot_layer.share", "ratio"),
    ("trace.overhead_s", "s"),
]

# Printed for a reader but not in the JSON line: these layers run on some
# workloads only, and a time that is 0 on every run of a workload is no
# measurement.
PRINTED_LAYERS = [
    "representations.individual_ordinal.s", "representations.group_ordinal.s",
    "representations.fit_beta.s", "representations.write_representation.s",
    "model.train.s", "model.train.self_s", "model._forward.s", "model._backward.s",
    "model.ccc_loss_grad.s", "model.Adam.step.s", "model._validation_loss.s",
    "model.predict.s", "model.save_checkpoint.s", "metrics.ccc.s", "metrics.sda.s",
    "pipeline.run_train_eval.self_s", "pipeline.run_represent.self_s",
]


@dataclass
class Sample:
    start: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


def run_child(argv, env, log_path, deadline):
    """Run one child process to completion; wall time, CPU and max RSS via wait4."""
    start = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6,
                  proc.returncode)


def digest_tree(path):
    """sha256 over every output file's relative path and bytes."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


class Session:
    """One benchmark run: the generated inputs, every child process and every check."""

    def __init__(self, workload, seed, work_dir, deadline):
        self.workload = workload
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.log = os.path.join(work_dir, "children.log")
        self.inputs = workload.generate(seed, os.path.join(work_dir, "data"))
        self.attempted = 0
        # Failed operations: commands that exited non-zero plus repetitions
        # whose outputs failed a check; ``failures`` holds every message.
        self.failed = 0
        self.failures = []
        self.reference_digest = None
        self.quality = None
        self.reps = 0

    def child(self, argv, label):
        self.attempted += 1
        sample = run_child(argv, self.env, self.log, self.deadline)
        if sample.exit_code != 0:
            self.failed += 1
            self.failures.append(f"{label} exited with code {sample.exit_code}")
        return sample

    def warm_up(self):
        """Compile the package's bytecode and confirm it comes from this checkout."""
        probe = subprocess.run(
            [sys.executable, "-c", "import ambitrace.cli; print(ambitrace.cli.__file__)"],
            env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.perf_counter()))
        if probe.returncode != 0 or not Path(probe.stdout.strip()).is_relative_to(SRC):
            raise SystemExit(f"ambitrace.cli does not import from {SRC}:\n{probe.stderr}")

    def setup_probe(self):
        return self.child([sys.executable, "-c",
                           "import sys, ambitrace.cli, ambitrace.data_io;"
                           " ambitrace.data_io.load_manifest(sys.argv[1])",
                           self.inputs.manifest], "set-up probe")

    def sequence(self, traced_dir=None):
        """Run the command sequence once; returns (wall, per-command samples)."""
        self.reps += 1
        out_dir = os.path.join(self.work_dir, f"rep{self.reps}")
        os.makedirs(out_dir)
        commands = self.workload.commands(self.inputs, out_dir)
        samples = []
        failed_before = len(self.failures)
        start = time.perf_counter()
        for index, (label, args) in enumerate(commands):
            if traced_dir is None:
                argv = [sys.executable, "-m", "ambitrace.cli", *args]
            else:
                spans = os.path.join(traced_dir, f"{index:02d}.json")
                argv = [sys.executable, str(TRACER), spans, f"{self.reps}.{index}", *args]
            samples.append((label, self.child(argv, label)))
        wall = time.perf_counter() - start
        if len(self.failures) == failed_before:
            self.check(out_dir)
        shutil.rmtree(out_dir)
        return wall, samples

    def check(self, out_dir):
        try:
            problems = self.workload.check(self.inputs, out_dir)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        digest = digest_tree(out_dir)
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            problems.append("outputs differ from the first repetition's")
        if self.workload.quality is not None and self.quality is None and not problems:
            self.quality = self.workload.quality(out_dir)
        self.failed += bool(problems)
        self.failures += [f"output check, repetition {self.reps}: {p}" for p in problems]

    def work_per_s(self, samples):
        seconds = sum(s.wall_s for label, s in samples
                      if label.startswith(self.workload.work_command))
        return self.workload.work(self.inputs) / seconds


def measure_end_to_end(session, seconds):
    setup, walls, cpus, rss, rates = [], [], [], [], []
    start = time.perf_counter()
    while True:
        setup.append(session.setup_probe().wall_s)
        wall, samples = session.sequence()
        walls.append(wall)
        cpus.append(sum(s.cpu_s for _, s in samples))
        rss.append(max(s.rss_mb for _, s in samples))
        rates.append(session.work_per_s(samples))
        per_rep = (time.perf_counter() - start) / len(walls)
        if time.perf_counter() - start + per_rep > seconds or session.failures:
            break
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
    }
    extra = {f"{session.workload.work_unit}_per_s": (statistics.median(rates), "1/s"),
             "repetitions": (len(walls), "count"),
             "wall_s.min": (min(walls), "s"), "wall_s.max": (max(walls), "s")}
    return metrics, extra


def measure_per_layer(session, seconds, out_path):
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(session.sequence()[0])
        if time.perf_counter() - start + walls[-1] > seconds / 2 or session.failures:
            break
    traced_dir = os.path.join(session.work_dir, "spans")
    os.makedirs(traced_dir)
    traced_wall, samples = session.sequence(traced_dir)
    records = []
    for index, (_, sample) in enumerate(samples):
        path = os.path.join(traced_dir, f"{index:02d}.json")
        if not os.path.exists(path):  # the command crashed; already a failure
            continue
        with open(path) as fh:
            record = json.load(fh)
        # The parent's view of the child process becomes the root span, so
        # interpreter start-up and exit count as its self time.
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child.
        record["spans"] = [["process", sample.start, sample.start + sample.wall_s, -1]] + [
            [span, start, end, parent + 1] for span, start, end, parent in record["spans"]]
        records.append(record)
    with open(out_path, "w") as fh:
        json.dump(records, fh)
    summary = tracer.summarize(records)
    layers, counts = summary["layers"], summary["counts"]

    def layer(name, field):
        return layers.get(name, {}).get(field, 0)

    hot = session.workload.hot_layer
    hot_self = sum(v["self_s"] for k, v in layers.items()
                   if k == hot or (hot.endswith(".") and k.startswith(hot)))
    values = {
        "cli.import_s": summary["import_s"],
        "data_io.prepare_item.per_item": (layer("data_io.prepare_item", "calls")
                                          / len(session.inputs.item_ids)),
        "model._forward.validation_share": summary["forward_validation_share"],
        "model.skipped_segments": counts.get("model.train.skipped_segments", 0),
        "hot_layer.self_s": hot_self,
        "hot_layer.share": hot_self / summary["top_level_s"] if records else 0.0,
        "trace.overhead_s": traced_wall - statistics.median(walls),
    }
    for name, _ in PER_LAYER:
        if name not in values:
            span, _, field = name.rpartition(".")
            values[name] = counts[name] if name in counts else layer(span, field)
    metrics = {name: values[name] for name, _ in PER_LAYER}

    extra = {name: (layer(*name.rsplit(".", 1)), "s") for name in PRINTED_LAYERS}
    folds = summary["train_fold_s"]
    if folds:
        extra["pipeline._train_fold.s.median"] = (statistics.median(folds), "s")
        extra["pipeline._train_fold.s.max"] = (max(folds), "s")
    top_self = sorted(((v["self_s"], k) for k, v in layers.items()), reverse=True)[:8]
    by_module = {}
    for k, v in layers.items():
        by_module[k.split(".")[0]] = by_module.get(k.split(".")[0], 0.0) + v["self_s"]
    extra.update({
        "trace.top_level_s": (summary["top_level_s"], "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (statistics.median(walls), "s"),
    })
    notes = [
        f"hot layer predicted: {hot}",
        "largest self times: " + ", ".join(f"{k} {s:.3f}s" for s, k in top_self),
        "self time by module: " + ", ".join(
            f"{k} {s:.3f}s" for k, s in sorted(by_module.items(), key=lambda kv: -kv[1])),
    ]
    if summary["absent"]:
        notes.append("absent hooks (reported as 0): " + ", ".join(summary["absent"]))
    if summary["uncounted"]:
        notes.append("counters that could not be read: " + ", ".join(summary["uncounted"]))
    return metrics, extra, notes


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, or 'unknown' where it is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ambitrace" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'ambitrace'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the train_eval check reloads checkpoints
    workload = workloads.WORKLOADS[args.workload]
    deadline = time.perf_counter() + HARD_LIMIT_S
    WORK_ROOT.mkdir(exist_ok=True)
    OUT_ROOT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = tempfile.mkdtemp(prefix=stem + "-", dir=WORK_ROOT)
    try:
        session = Session(workload, args.seed, work_dir, deadline)
        session.warm_up()
        if args.trace:
            metrics, extra, notes = measure_per_layer(
                session, args.seconds, OUT_ROOT / f"{stem}-spans.json")
            units = dict(PER_LAYER)
        else:
            metrics, extra = measure_end_to_end(session, args.seconds)
            notes = []
            units = END_TO_END
        if session.quality is not None:
            extra.update({k: (v, "1") for k, v in session.quality.items()})
        failures = list(session.failures)
        attempted, failed = session.attempted, session.failed
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(args.seed)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(OUT_ROOT / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "environment": env, "result": result,
                   "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                   "notes": notes, "failures": failures}, fh, indent=2)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<46} {value:>16.6f} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<46} {value:>16.6f} {unit}")
    for line in notes + failures:
        print(line)
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
