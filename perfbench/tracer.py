"""Run one ambitrace command in this process with its layers traced.

    python3 perfbench/tracer.py SPANS_JSON RUN_ID <ambitrace arguments...>

The program must be importable (``PYTHONPATH=src``).  Every public function
of ``cli``, ``pipeline``, ``data_io``, ``traces``, ``representations``,
``model`` and ``metrics``, the private hooks in ``PRIVATE_HOOKS`` and
``model.Adam.step`` are wrapped, and each wrapper is bound under every name
the package looks it up by (``pipeline`` imports ``train`` and
``prepare_item`` by name, ``data_io`` imports ``shift_delay``, ...).  Spans
(name, start, end, parent) stay in memory and are written to SPANS_JSON when
the command ends; the process exits with the command's exit code.

``summarize`` turns span files back into per-layer calls, times and counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

MODULES = ("cli", "pipeline", "data_io", "traces", "representations", "model", "metrics")
# Private functions worth a span; a later refactor may rename them, so a
# missing one is reported as absent rather than failing the run.
PRIVATE_HOOKS = ("model._forward", "model._backward", "model._validation_loss",
                 "pipeline._train_fold")
METHODS = ("model.Adam.step",)


def _forward_rows(args, kwargs, result):
    x = args[2] if len(args) > 2 else kwargs["x"]
    shape = getattr(x, "shape", ())
    return {"rows": shape[0] * shape[1] if len(shape) == 3 else len(x)}


def _dataset_bytes(args, kwargs, result):
    manifest = args[0] if args else kwargs["manifest"]
    return {"bytes": sum(os.path.getsize(manifest.resolve(rel))
                         for item in manifest.dataset.items
                         for rel in (item.trace_file, item.feature_file))}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


# Work counts taken from a call's arguments or result, after its span ends.
COUNTERS = {
    "data_io.load_trace_table": lambda a, k, r: {"rows": len(r[0].values)},
    "data_io.dataset_hash": _dataset_bytes,
    "representations.write_representation": _written_bytes,
    "model.save_checkpoint": _written_bytes,
    "model._forward": _forward_rows,
    "model.train": lambda a, k, r: {"skipped_segments": r.skipped_segments},
}


class Recorder:
    """In-memory spans: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.uncounted = set()

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name, counter, args, kwargs, result):
        try:
            values = counter(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, OSError, TypeError):
            self.uncounted.add(name)
            return
        for key, value in values.items():
            full = f"{name}.{key}"
            self.counts[full] = self.counts.get(full, 0) + int(value)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                self.count(name, counter, args, kwargs, result)
            return result

        return traced


def install(recorder):
    """Wrap the package's functions in place; returns the hooks not found."""
    package = importlib.import_module("ambitrace")
    modules = {name: importlib.import_module(f"ambitrace.{name}") for name in MODULES}
    wrappers = {}
    for mod_name, module in modules.items():
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                wrappers[obj] = recorder.wrap(f"{mod_name}.{attr}", obj)
    absent = []
    for hook in PRIVATE_HOOKS:
        mod_name, attr = hook.split(".")
        obj = getattr(modules[mod_name], attr, None)
        if inspect.isfunction(obj):
            wrappers[obj] = recorder.wrap(hook, obj)
        else:
            absent.append(hook)
    for hook in METHODS:
        mod_name, cls_name, attr = hook.split(".")
        cls = getattr(modules[mod_name], cls_name, None)
        method = getattr(cls, attr, None)
        if inspect.isfunction(method):
            setattr(cls, attr, recorder.wrap(hook, method))
        else:
            absent.append(hook)
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    return absent


def main(argv):
    spans_path, run_id, *cli_args = argv
    recorder = Recorder()
    index = recorder.open("cli.import")
    import ambitrace.cli
    recorder.close(index)
    absent = install(recorder)
    code = 0
    index = recorder.open(f"cli.{cli_args[0]}")
    try:
        ambitrace.cli.main(cli_args, prog_name="ambitrace", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.close(index)
        with open(spans_path, "w") as fh:
            json.dump({"run_id": run_id, "command": cli_args[0], "exit_code": code,
                       "absent": absent, "uncounted": sorted(recorder.uncounted),
                       "counts": recorder.counts, "spans": recorder.spans}, fh)
    return code


# --- aggregation (runs in the benchmark process) ----------------------------


def summarize(records):
    """Per-layer figures from the span files of one traced sequence.

    Self time is a span's duration minus the time its direct children
    cover; children run nested on one thread, so they never overlap.
    """
    layers = {}
    counts = {}
    top_level = 0.0
    imports = []
    forward_calls = forward_in_validation = 0
    fold_seconds = []
    for record in records:
        spans = record["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            entry = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered[i]
            if parent < 0:
                top_level += end - start
            if name == "cli.import":
                imports.append(end - start)
            elif name == "pipeline._train_fold":
                fold_seconds.append(end - start)
            elif name == "model._forward":
                forward_calls += 1
                forward_in_validation += (parent >= 0
                                          and spans[parent][0] == "model._validation_loss")
        for key, value in record["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {
        "layers": layers,
        "counts": counts,
        "top_level_s": top_level,
        "import_s": statistics.median(imports) if imports else 0.0,
        "train_fold_s": fold_seconds,
        "forward_validation_share": (forward_in_validation / forward_calls
                                     if forward_calls else 0.0),
        "absent": sorted({h for r in records for h in r["absent"]}),
        "uncounted": sorted({h for r in records for h in r["uncounted"]}),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
