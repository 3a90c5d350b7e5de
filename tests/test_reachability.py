"""Every function in ``src/ambitrace`` is called by the commands' own chain.

The chain runs in this process under ``sys.settrace``, which sees only call
events and records the code of each call into the package.  The package is
imported anew inside the trace, so its own imports count as the commands'
start-up does.  A function that no command reaches fails the test: code
that only the tests need lives in the tests.
"""

import ast
import importlib
import json
import os
import sys
from contextlib import contextmanager

from conftest import run_cli

import ambitrace

PACKAGE = os.path.dirname(ambitrace.__file__)
IMPORT_SYSTEM = "<frozen importlib._bootstrap>"

SYNTH = {"items": 6, "groups": 3, "windows": 25, "seed": 5,
         "train": {"max_epochs": 2, "segment_length": 10}}


def package_functions():
    """(module file, first line, name) of every ``def`` in the package.

    The first line is the one a call's code object starts at: a decorated
    function's code starts at its first decorator.
    """
    found = set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found.add((path, first, node.name))
    return found


@contextmanager
def package_imported_anew():
    """The package's modules leave ``sys.modules`` for the block and come back after it."""
    def ours(name):
        return name == "ambitrace" or name.startswith("ambitrace.")

    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if ours(name)}
    try:
        yield
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def run_chain(root):
    """synth, represent, train-eval and report, one checkpoint reload, one usage error,
    one bad manifest and one bad table."""
    def cli(*args, exit_code=0):
        result = run_cli(args)
        assert result.exit_code == exit_code, result.output

    config = root / "synth.json"
    config.write_text(json.dumps(SYNTH))
    data = root / "data"
    cli("synth", "--config", config, "--out", data)
    manifest = data / "manifest.json"
    for tag in ("I", "O_I", "O_G"):
        cli("represent", "--manifest", manifest, "--tag", tag, "--out", root / f"rep_{tag}")
    doc = json.loads(manifest.read_text())
    beta = data / "beta.json"
    beta.write_text(json.dumps(dict(doc, representation={"family": "beta_mapped"},
                                    dataset=dict(doc["dataset"], bounds=[-10.0, 10.0]))))
    cli("represent", "--manifest", beta, "--tag", "I", "--out", root / "rep_beta")
    cli("train-eval", "--manifest", manifest, "--tag", "I", "--jobs", "1", "--out", root / "run")
    cli("report", root / "run", "--out", root / "report")
    cli("represent", "--manifest", manifest, "--tag", "X", "--out", root / "usage", exit_code=2)
    checkpoint = importlib.import_module("ambitrace.model").load_checkpoint(
        root / "run" / "fold_00_mu.ckpt")
    assert checkpoint.config.input_dim > 0
    bad = data / "bad.json"
    bad.write_text(json.dumps(dict(doc, train=dict(doc["train"], max_epoch=2))))
    cli("train-eval", "--manifest", bad, "--tag", "I", "--out", root / "bad", exit_code=2)
    # A bad cell ahead of an undecodable byte: the line walk names the cell.
    (data / "traces" / "damaged.csv").write_bytes(b"time_s,ann0\n0,x\n1,\xff\n")
    items = [dict(doc["dataset"]["items"][0], trace_file="traces/damaged.csv")]
    damaged = data / "damaged.json"
    damaged.write_text(json.dumps(dict(doc, dataset=dict(doc["dataset"], items=items))))
    cli("represent", "--manifest", damaged, "--tag", "I", "--out", root / "damaged", exit_code=2)


def test_every_package_function_is_called_by_the_commands(tmp_path):
    called = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        # A call from the import system, such as the attribute probe of
        # ``from package import name``, is no command's own call.
        if (event == "call" and os.path.dirname(code.co_filename) == PACKAGE
                and frame.f_back.f_code.co_filename != IMPORT_SYSTEM):
            called.add((code.co_filename, code.co_firstlineno, code.co_name))
        # No local trace: no line events are raised inside any frame.

    previous = sys.gettrace()
    with package_imported_anew():
        sys.settrace(on_call)
        try:
            run_chain(tmp_path)
        finally:
            sys.settrace(previous)
    never = sorted(package_functions() - called)
    assert not never, "never called by a command: " + ", ".join(
        f"{os.path.basename(path)}:{line} {name}" for path, line, name in never)
