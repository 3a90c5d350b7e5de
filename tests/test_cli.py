import builtins
import collections
import concurrent.futures
import errno
import hashlib
import json
import os
import pathlib
import re
import shutil
import stat
import sys
import tempfile
from dataclasses import asdict, fields

import numpy as np
import pytest
from conftest import run_cli, run_fresh, run_with_file_size_limit
from hypothesis import given, settings
from hypothesis import strategies as st

from ambitrace import data_io, dataset, model, pipeline
from ambitrace.data_io import (
    DatasetConfig,
    ItemEntry,
    ModelConfig,
    RepresentationConfig,
    SplitSpec,
    TrainConfig,
)
from ambitrace.dataset import SynthConfig, read_table, write_feature_table, write_trace_table
from ambitrace.report import render_summary_table

FAST_SYNTH = {
    "items": 6,
    "groups": 3,
    "annotators": 4,
    "windows": 19,
    "seed": 11,
    "train": {"max_epochs": 3, "segment_length": 19},
    "split": {"k": 3, "seed": 11},
    "model": {"hidden_dim": 8},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic dataset generated once through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "synth.json"
    cfg.write_text(json.dumps(FAST_SYNTH))
    result = run_cli(["synth", "--config", cfg, "--out", root / "data"])
    assert result.exit_code == 0, result.output
    return root


def one_window_manifest(workspace):
    """A copy of the workspace manifest that keeps one window per item."""
    doc = json.loads((workspace / "data" / "manifest.json").read_text())
    doc["dataset"]["keep_first"] = 1
    path = workspace / "data" / "one_window.json"
    path.write_text(json.dumps(doc))
    return path


def command_args(command, workspace, runs, tmp_path):
    """A run of ``command`` on good inputs, without ``--out``.

    Every command writes ``synth.json`` into ``tmp_path``, the config synth reads.
    """
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(FAST_SYNTH))
    manifest = workspace / "data" / "manifest.json"
    return {"synth": ["synth", "--config", cfg],
            "represent": ["represent", "--manifest", manifest, "--tag", "I"],
            "train-eval": ["train-eval", "--manifest", manifest, "--tag", "I", "--target", "mu"],
            "report": ["report", runs / "I"]}[command]


def read_columns(path):
    """A table's header metadata and its columns by name."""
    table = read_table(path)
    return table.meta, dict(zip(table.names, table.rows.T))


class TestSynth:
    # Other tests add tables and memo entries to the shared workspace, so
    # the directories listed are those of a fresh synth run.
    def test_outputs_exist(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(FAST_SYNTH))
        assert run_cli(["synth", "--config", cfg, "--out", tmp_path / "data"]).exit_code == 0
        data = tmp_path / "data"
        assert sorted(p.name for p in data.iterdir()) == [
            "features", "latents", "manifest.json", "traces"]
        for sub in ("traces", "features", "latents"):
            assert sorted(p.name for p in (data / sub).iterdir()) == [
                f"item{i:03d}.csv" for i in range(6)]

    def test_byte_identical_rerun(self, workspace, tmp_path):
        cfg = workspace / "synth.json"
        result = run_cli(["synth", "--config", cfg, "--out", tmp_path / "again"])
        assert result.exit_code == 0
        for sub in ("traces", "features", "latents"):
            again = sorted((tmp_path / "again" / sub).iterdir())
            assert len(again) == 6
            for f in again:
                assert f.read_bytes() == (workspace / "data" / sub / f.name).read_bytes()

    def test_lagged_annotators_trail_the_latent(self, tmp_path):
        cfg = tmp_path / "lag.json"
        cfg.write_text(json.dumps(dict(FAST_SYNTH, lag_windows=2, noise_std=0.0,
                                       offset_std=0.0, gain_std=0.0)))
        assert run_cli(["synth", "--config", cfg, "--out", tmp_path / "data"]).exit_code == 0
        lags = []
        for i in range(FAST_SYNTH["items"]):
            _, columns = read_columns(tmp_path / "data" / "latents" / f"item{i:03d}.csv")
            latent = columns["latent"]
            # The latent k windows late, holding its first value.
            shifted = [np.concatenate([np.full(k, latent[0]), latent[:len(latent) - k]])
                       for k in range(3)]
            _, traces = read_columns(tmp_path / "data" / "traces" / f"item{i:03d}.csv")
            for name in [f"ann{m}" for m in range(FAST_SYNTH["annotators"])]:
                lag = [k for k in range(3) if np.array_equal(traces[name], shifted[k])]
                assert lag, (i, name)
                lags.append(lag[0])
        assert max(lags) > 0

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"noise_std": -1.0}))
        result = run_cli(["synth", "--config", cfg, "--out", tmp_path / "out"])
        assert result.exit_code == 2
        assert "noise_std" in result.output

    def test_unknown_field_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"wibble": 3}))
        result = run_cli(["synth", "--config", cfg, "--out", tmp_path / "out"])
        assert result.exit_code == 2
        assert "wibble" in result.output

    @pytest.mark.parametrize("text", [
        "5",
        "null",
        '{"annotators": 2.5}',
        '{"windows": 3.5}',
        '{"seed": -1}',
        '{"seed": 1.5}',
        '{"noise_std": NaN}',
        '{"split": 5}',
        '{"model": [1]}',
        '{"items": 3, "groups": 5}',
    ])
    def test_malformed_config_exits_2_writing_nothing(self, tmp_path, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        result = run_cli(["synth", "--config", cfg, "--out", tmp_path / "out"])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: config {cfg}: "), result.stderr
        assert not (tmp_path / "out").exists()

    def test_one_group_for_grouped_folds_names_groups(self, tmp_path):
        # The default split.k, min(10, groups), is 1 here, which no config set.
        cfg = tmp_path / "g1.json"
        cfg.write_text(json.dumps({"items": 3, "groups": 1, "windows": 8}))
        result = run_cli(["synth", "--config", cfg, "--out", tmp_path / "out"])
        assert result.exit_code == 2, result.output
        assert result.stderr == (f"error: config {cfg}: groups: expected at least 2 for "
                                 "grouped folds, got 1\n")
        assert not (tmp_path / "out").exists()

    def test_one_group_with_a_fixed_split_is_written(self, tmp_path):
        cfg = tmp_path / "g1.json"
        cfg.write_text(json.dumps({"items": 3, "groups": 1, "windows": 8,
                                   "split": {"mode": "fixed_train_dev"}}))
        result = run_cli(["synth", "--config", cfg, "--out", tmp_path / "out"])
        assert result.exit_code == 0, result.output
        split = json.loads((tmp_path / "out" / "manifest.json").read_text())["split"]
        assert split["mode"] == "fixed_train_dev"


class TestRepresent:
    def test_interval_on_constant_data_has_zero_sigma(self, tmp_path):
        cfg = tmp_path / "const.json"
        cfg.write_text(json.dumps({
            "items": 2, "groups": 2, "annotators": 3, "windows": 8,
            "trend_amplitude": 0.0, "offset_std": 0.0, "noise_std": 0.0, "seed": 0,
        }))
        assert run_cli(["synth", "--config", cfg, "--out", tmp_path / "d"]).exit_code == 0
        result = run_cli(["represent", "--manifest", tmp_path / "d" / "manifest.json",
                          "--tag", "I", "--out", tmp_path / "rep"])
        assert result.exit_code == 0
        _, cols = read_columns(tmp_path / "rep" / "I_item000.csv")
        np.testing.assert_allclose(cols["sigma"], 0.0, atol=1e-12)

    def test_group_tag_emits_gradient_columns(self, workspace, tmp_path):
        result = run_cli(["represent", "--manifest", workspace / "data" / "manifest.json",
                          "--tag", "O_G", "--out", tmp_path / "rep"])
        assert result.exit_code == 0
        meta, cols = read_columns(tmp_path / "rep" / "O_G_item000.csv")
        assert meta["representation"] == "O_G"
        assert {"dmu", "dsigma"} <= set(cols)

    def test_individual_summary_written(self, workspace, tmp_path):
        result = run_cli(["represent", "--manifest", workspace / "data" / "manifest.json",
                          "--tag", "O_I", "--out", tmp_path / "rep"])
        assert result.exit_code == 0
        summary = (tmp_path / "rep" / "summary_O_I.csv").read_text()
        assert summary.count("\nitem0") == 6

    def test_longest_item_id_names_its_tables(self, workspace, tmp_path):
        # 247 bytes in UTF-8, the most an id may have: its O_G table's name
        # takes 255 bytes.
        item_id = "é" * 123 + "x"
        doc = json.loads((workspace / "data" / "manifest.json").read_text())
        doc["dataset"]["items"][0]["item_id"] = item_id
        path = workspace / "data" / "longest_id.json"
        path.write_text(json.dumps(doc))
        for tag in data_io.TAGS:
            result = run_cli(["represent", "--manifest", path, "--tag", tag,
                              "--out", tmp_path / tag])
            assert result.exit_code == 0, result.output
            assert (tmp_path / tag / f"{tag}_{item_id}.csv").is_file()
            assert f"\n{item_id}," in (tmp_path / tag / f"summary_{tag}.csv").read_text()
        assert len(f"O_G_{item_id}.csv".encode("utf-8")) == 255

    def test_beta_fit_failure_exits_3(self, tmp_path):
        # constant bounded traces cannot be Beta-fitted
        cfg = tmp_path / "const.json"
        cfg.write_text(json.dumps({
            "items": 2, "groups": 2, "annotators": 3, "windows": 8,
            "trend_amplitude": 0.0, "offset_std": 0.0, "noise_std": 0.0, "seed": 0,
        }))
        assert run_cli(["synth", "--config", cfg, "--out", tmp_path / "d"]).exit_code == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        manifest["dataset"]["bounds"] = [-1.0, 1.0]
        manifest["representation"] = {"family": "beta_mapped", "neighbor_radius": 1}
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
        result = run_cli(["represent", "--manifest", tmp_path / "d" / "manifest.json",
                          "--tag", "I", "--out", tmp_path / "rep"])
        assert result.exit_code == 3
        assert "item000" in result.output

    @pytest.mark.parametrize("tag", ["O_I", "O_G"])
    def test_one_window_items_exit_2(self, workspace, tmp_path, tag):
        result = run_cli(["represent", "--manifest", one_window_manifest(workspace),
                          "--tag", tag, "--out", tmp_path / "rep"])
        assert result.exit_code == 2, result.output
        assert (f"item000.csv: only one window after alignment; represent --tag {tag} "
                "needs at least two") in result.output
        assert not (tmp_path / "rep").exists()

    def test_one_window_items_interval(self, workspace, tmp_path):
        result = run_cli(["represent", "--manifest", one_window_manifest(workspace),
                          "--tag", "I", "--out", tmp_path / "rep"])
        assert result.exit_code == 0, result.output
        _, cols = read_columns(tmp_path / "rep" / "I_item000.csv")
        assert len(cols["mu"]) == 1


class TestStartUp:
    """Each command pays only for what it runs; checked in fresh interpreters."""

    def test_package_import_is_lazy_and_changes_nothing(self):
        code = ("import os, sys\n"
                "before = dict(os.environ)\n"
                "import ambitrace\n"
                "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
                "assert dict(os.environ) == before, 'environment changed'\n")
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr

    def test_unknown_package_attribute_raises(self):
        import ambitrace

        with pytest.raises(AttributeError, match="wibble"):
            ambitrace.wibble

    def test_cli_defaults_to_one_blas_thread(self):
        # numpy is imported after the CLI, as a command imports it, so that
        # OpenBLAS has started when the threads are counted.
        code = ("import os, sys\n"
                "import ambitrace.cli\n"
                "import numpy\n"
                "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
                "if sys.platform.startswith('linux'):\n"
                "    with open('/proc/self/status') as fh:\n"
                "        threads = [line for line in fh if line.startswith('Threads:')]\n"
                "    print(threads[0].split()[1])\n")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        result = run_fresh(code, env=env)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.split()
        assert lines[0] == "1"
        if sys.platform.startswith("linux"):
            assert lines[1] == "1"

    def test_cli_keeps_an_exported_blas_thread_count(self):
        code = "import os, ambitrace.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
        result = run_fresh(code, env=dict(os.environ, OPENBLAS_NUM_THREADS="2"))
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "2"

    def test_only_train_eval_loads_the_model(self, workspace, runs, tmp_path):
        """Each command in a fresh interpreter: only train-eval loads the model, and
        every command but report loads numpy."""
        manifest = workspace / "data" / "manifest.json"
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(FAST_SYNTH))
        commands = [
            ["synth", "--config", cfg, "--out", tmp_path / "d"],
            ["represent", "--manifest", manifest, "--tag", "O_G", "--out", tmp_path / "rep"],
            ["report", runs / "I", "--out", tmp_path / "report"],
            ["train-eval", "--manifest", manifest, "--tag", "I", "--target", "mu",
             "--out", tmp_path / "run"],
        ]
        for args in commands:
            expected = {"synth": ["numpy"], "represent": ["numpy"], "report": [],
                        "train-eval": ["numpy", "ambitrace.model"]}[args[0]]
            code, loaded, _ = modules_after(args, ("numpy", "ambitrace.model"))
            assert (code, loaded) == (0, expected), args[0]

    def test_cli_import_loads_the_standard_library_and_data_io_only(self):
        # Neither report nor pipeline: synth and represent never compile report.py.
        code = ("import json, sys\n"
                "before = set(sys.modules)\n"
                "import ambitrace.cli\n"
                "print(json.dumps([sorted(m for m in set(sys.modules) - before\n"
                "                         if m.split('.')[0] == 'ambitrace'),\n"
                f"                  {FOREIGN_SINCE_BEFORE}]))\n")
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [
            ["ambitrace", "ambitrace.cli", "ambitrace.data_io"], []]

    def test_commands_run_without_click(self, workspace, runs, tmp_path):
        def command_lines(root):
            return (["represent", "--manifest", str(workspace / "data" / "manifest.json"),
                     "--tag", "O_I", "--out", str(root / "rep")],
                    ["report", str(runs / "I"), "--out", str(root / "report")])

        for args in command_lines(tmp_path / "plain"):
            assert run_cli(args).exit_code == 0
        represent, report = command_lines(tmp_path / "no-click")
        # A None entry makes every ``import click`` raise ImportError.
        result = run_fresh("import sys\n"
                           "sys.modules['click'] = None\n"
                           "from ambitrace.cli import main\n"
                           f"main({represent!r})\n"
                           f"main({report!r})\n")
        assert result.returncode == 0, result.stderr
        for sub in ("rep", "report"):
            names = sorted(os.listdir(tmp_path / "plain" / sub))
            assert names and names == sorted(os.listdir(tmp_path / "no-click" / sub))
            for name in names:
                assert (tmp_path / "plain" / sub / name).read_bytes() == \
                    (tmp_path / "no-click" / sub / name).read_bytes()


# In a child interpreter: the top-level modules loaded since ``before`` that
# are neither the standard library's nor ``ambitrace``.
FOREIGN_SINCE_BEFORE = ("sorted({m.split('.')[0] for m in set(sys.modules) - before}"
                        " - set(sys.stdlib_module_names) - {'ambitrace'})")


def modules_after(args, modules=("numpy", "_hashlib")):
    """After ``ambitrace ARGS`` in a fresh interpreter: (exit code, those of
    ``modules`` loaded, top-level modules loaded from outside the standard
    library and ``ambitrace``)."""
    result = run_fresh("import json, sys\n"
                       "before = set(sys.modules)\n"
                       "from ambitrace.cli import main\n"
                       "code = 0\n"
                       "try:\n"
                       f"    main({[str(a) for a in args]!r})\n"
                       "except SystemExit as exc:\n"
                       "    code = exc.code\n"
                       f"print(json.dumps([code, [m for m in {modules!r} if m in sys.modules],\n"
                       f"                  {FOREIGN_SINCE_BEFORE}]))\n")
    assert result.returncode == 0, result.stderr
    return tuple(json.loads(result.stdout.splitlines()[-1]))


def test_manifest_path_loads_no_numpy(workspace):
    # The benchmark's set-up probe: the CLI and a manifest, read and checked.
    path = str(workspace / "data" / "manifest.json")
    code = ("import sys, ambitrace.cli, ambitrace.data_io\n"
            f"manifest = ambitrace.data_io.load_manifest({path!r})\n"
            "assert len(manifest.dataset.items) == 6\n"
            "loaded = [m for m in ('numpy', '_hashlib') if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("case, exit_code", [
    ("report", 0), ("report --out", 0), ("--help", 0), ("usage error", 2),
    ("malformed manifest", 2), ("malformed manifest train-eval", 2), ("non-empty --out synth", 2),
    ("non-empty --out represent", 2), ("non-empty --out train-eval", 2),
])
def test_commands_that_compute_nothing_load_no_numpy(workspace, runs, tmp_path, case,
                                                     exit_code):
    manifest = workspace / "data" / "manifest.json"
    (tmp_path / "bad.json").write_text('{"dataset": {"items": []}}')
    full = tmp_path / "full"
    full.mkdir()
    (full / "keep.txt").write_text("kept\n")
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(FAST_SYNTH))
    args = {
        "report": ["report", runs / "I"],
        "report --out": ["report", runs / "I", "--out", tmp_path / "report"],
        "--help": ["--help"],
        "usage error": ["represent", "--manifest", manifest, "--tag", "X",
                        "--out", tmp_path / "rep"],
        "malformed manifest": ["represent", "--manifest", tmp_path / "bad.json", "--tag", "I",
                               "--out", tmp_path / "rep"],
        "malformed manifest train-eval": ["train-eval", "--manifest", tmp_path / "bad.json",
                                          "--tag", "I", "--out", tmp_path / "run"],
        "non-empty --out synth": ["synth", "--config", cfg, "--out", full],
        "non-empty --out represent": ["represent", "--manifest", manifest, "--tag", "I",
                                      "--out", full],
        "non-empty --out train-eval": ["train-eval", "--manifest", manifest, "--tag", "I",
                                       "--out", full],
    }[case]
    assert modules_after(args) == (exit_code, [], [])
    assert (tmp_path / "report" / "report.json").exists() is (case == "report --out")
    assert sorted(p.name for p in full.iterdir()) == ["keep.txt"]


@pytest.mark.parametrize("command, names", [
    ([], ["synth", "represent", "train-eval", "report"]),
    (["synth"], ["--config", "--out", "--seed"]),
    (["represent"], ["--manifest", "--tag", "--out"]),
    (["train-eval"], ["--manifest", "--tag", "--target", "--out", "--seed", "--jobs",
                      "default: both", "default: 1"]),
    (["report"], ["RESULT_DIR", "--out"]),
])
def test_help_lists_every_option(command, names):
    result = run_cli([*command, "--help"])
    assert result.exit_code == 0, result.output
    text = " ".join(result.stdout.split())  # help lines wrap at the terminal's width
    assert [n for n in names if n not in text] == [], result.stdout


def test_multiprocessing_stays_off_the_import_path():
    code = ("import sys\n"
            "import ambitrace.cli\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'multiprocessing'\n"
            "          or m == 'concurrent.futures' or m.startswith('concurrent.futures.')]\n"
            "assert not loaded, loaded\n")
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


class TestTrainEval:
    def test_single_target_run(self, workspace, tmp_path):
        result = run_cli(["train-eval", "--manifest", workspace / "data" / "manifest.json",
                          "--tag", "I", "--target", "mu", "--out", tmp_path / "run"])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["targets"] == ["mu"]
        assert set(summary["mean"]) == {"ccc_mu", "sda_mu"}
        assert len(summary["folds"]) == 3
        assert (tmp_path / "run" / "fold_00.json").exists()
        assert (tmp_path / "run" / "fold_00_mu.ckpt").exists()

    def test_deterministic_rerun(self, workspace, tmp_path):
        args = ["train-eval", "--manifest", workspace / "data" / "manifest.json",
                "--tag", "O_G", "--target", "mu"]
        assert run_cli(args + ["--out", tmp_path / "a"]).exit_code == 0
        assert run_cli(args + ["--out", tmp_path / "b"]).exit_code == 0
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()

    def test_jobs_flag_matches_serial(self, workspace, tmp_path):
        args = ["train-eval", "--manifest", workspace / "data" / "manifest.json",
                "--tag", "I", "--target", "mu"]
        assert run_cli(args + ["--out", tmp_path / "serial"]).exit_code == 0
        assert run_cli(args + ["--out", tmp_path / "par", "--jobs", "2"]).exit_code == 0
        assert (tmp_path / "serial" / "summary.json").read_bytes() == \
            (tmp_path / "par" / "summary.json").read_bytes()

    def test_pool_is_capped_at_the_fold_count(self, workspace, tmp_path, monkeypatch):
        workers = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        args = ["train-eval", "--manifest", workspace / "data" / "manifest.json",
                "--tag", "I", "--target", "mu"]
        assert run_cli(args + ["--out", tmp_path / "serial"]).exit_code == 0
        assert run_cli(args + ["--out", tmp_path / "par", "--jobs", "5"]).exit_code == 0
        assert workers == [3]
        names = sorted(os.listdir(tmp_path / "serial"))
        assert names == sorted(os.listdir(tmp_path / "par"))
        for name in names:
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "par" / name).read_bytes()

    @pytest.mark.parametrize("jobs, stacks", [
        (1, [[0, 1, 2]]),
        (2, [[0, 1], [2]]),
        (3, [[0], [1], [2]]),
    ])
    def test_fold_stacks_leave_a_stack_per_worker(self, workspace, tmp_path, monkeypatch,
                                                  jobs, stacks):
        workers, trained, handed_back = [], [], []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                job_args = list(iterables[0])
                trained.extend([fold[0] for fold in args[0]] for args in job_args)
                for results in super().map(fn, job_args, **kwargs):
                    handed_back.append(results)
                    yield results

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        args = ["train-eval", "--manifest", workspace / "data" / "manifest.json",
                "--tag", "I", "--target", "mu"]
        assert run_cli(args + ["--out", tmp_path / "serial"]).exit_code == 0
        assert run_cli(args + ["--out", tmp_path / "par", "--jobs", jobs]).exit_code == 0
        # A serial run stacks all three small folds and starts no pool.
        assert (workers, trained) == (([jobs], stacks) if jobs > 1 else ([], []))
        # Each worker hands back its folds' summary records, plain JSON values:
        # the worker wrote the fold files and checkpoints, so no model comes back.
        assert len(handed_back) == len(trained)
        assert json.loads(json.dumps(handed_back)) == handed_back
        summary = json.loads((tmp_path / "par" / "summary.json").read_text())
        assert [fold for folds in handed_back for fold in folds] == \
            (summary["folds"] if jobs > 1 else [])
        names = sorted(os.listdir(tmp_path / "serial"))
        assert names == sorted(os.listdir(tmp_path / "par"))
        for name in names:
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "par" / name).read_bytes()

    # Per fold: (training, validation) sequence lengths, the model and train
    # settings.  train_eval is the benchmark's shape: 10 folds of 27 training
    # and 3 validation items of 19 windows, 32 units.  paper is a paper-like
    # one: 6 folds of 10 and 2 items of 110 windows, 64 units, segments of 100.
    SHAPES = {
        "train_eval": ([([19] * 27, [19] * 3)] * 10, ModelConfig(input_dim=8, hidden_dim=32),
                       TrainConfig(segment_length=19, batch_segments=8)),
        "paper": ([([110] * 10, [110] * 2)] * 6, ModelConfig(input_dim=8, hidden_dim=64),
                  TrainConfig(segment_length=100, batch_segments=8)),
        "small": ([([19] * 4, [19] * 2)] * 3, ModelConfig(input_dim=8, hidden_dim=8),
                  TrainConfig(segment_length=19)),
    }

    @pytest.mark.parametrize("shape, folds, jobs, stacks", [
        ("train_eval", 10, 1, [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        ("train_eval", 10, 3, [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        ("train_eval", 10, 4, [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]),
        ("train_eval", 10, 7, [[0, 1], [2, 3], [4, 5], [6], [7], [8], [9]]),
        ("train_eval", 10, 16, [[k] for k in range(10)]),
        ("train_eval", 8, 1, [[0, 1, 2, 3], [4, 5, 6, 7]]),
        ("train_eval", 1, 1, [[0]]),
        ("paper", 6, 1, [[k] for k in range(6)]),
        ("small", 3, 1, [[0, 1, 2]]),
        ("small", 3, 2, [[0, 1], [2]]),
        ("small", 3, 5, [[0], [1], [2]]),
    ])
    def test_fold_stacks(self, shape, folds, jobs, stacks):
        fold_lengths, cfg, train = self.SHAPES[shape]
        assert pipeline._fold_stacks(fold_lengths[:folds], 2, cfg, train, jobs) == stacks

    def test_outputs_do_not_depend_on_blas_threads(self, workspace, tmp_path):
        # The train_eval benchmark's model size, so products reach their full size.
        manifest = write_variant_manifest(workspace, "hidden32", "model", "hidden_dim", 32)
        for threads in ("1", "2"):
            args = ["train-eval", "--manifest", str(manifest), "--tag", "O_I",
                    "--out", str(tmp_path / threads)]
            code = f"from ambitrace.cli import main\nmain({args!r})\n"
            result = run_fresh(code, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            assert result.returncode == 0, result.stderr
        names = sorted(os.listdir(tmp_path / "1"))
        assert "fold_00_mu.ckpt" in names and names == sorted(os.listdir(tmp_path / "2"))
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_fixed_train_dev_split_is_one_fold(self, workspace, tmp_path):
        doc = json.loads((workspace / "data" / "manifest.json").read_text())
        for k, item in enumerate(doc["dataset"]["items"]):
            item["group"] = "train" if k < 4 else "dev"
        doc["split"] = {"mode": "fixed_train_dev"}
        path = workspace / "data" / "train_dev.json"
        path.write_text(json.dumps(doc))
        runs = {jobs: tmp_path / f"jobs{jobs}" for jobs in ("1", "2")}
        for jobs, out in runs.items():
            result = run_cli(["train-eval", "--manifest", path, "--tag", "I",
                              "--jobs", jobs, "--out", out])
            assert result.exit_code == 0, result.output
        names = sorted(os.listdir(runs["1"]))
        assert names == sorted(os.listdir(runs["2"]))
        for name in names:
            assert (runs["1"] / name).read_bytes() == (runs["2"] / name).read_bytes()
        assert names == ["fold_00.json", "fold_00_mu.ckpt", "fold_00_sigma.ckpt",
                         "summary.json", "summary.txt"]
        summary = json.loads((runs["1"] / "summary.json").read_text())
        assert summary["folds"][0]["val_items"] == ["item004", "item005"]
        assert set(summary["std"].values()) == {0.0}
        rows = (runs["1"] / "summary.txt").read_text().splitlines()
        assert len(rows) == 2 and "+/-" not in rows[1]
        result = run_cli(["report", runs["1"], "--out", tmp_path / "report"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "report" / "report.txt").read_text().splitlines() == rows

    # A value of None leaves the option out; RESULT_DIR is report's missing argument.
    @pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--jobs", "0"), ("--tag", "X"),
                                               ("--manifest", None), ("RESULT_DIR", None)])
    def test_bad_option_exits_2_before_any_output(self, workspace, tmp_path, option, value):
        options = {"--manifest": workspace / "data" / "manifest.json", "--tag": "I",
                   option: value}
        args = ["train-eval", *[a for o, v in options.items() if v is not None for a in (o, v)]]
        if option == "RESULT_DIR":
            args = ["report"]
        result = run_cli(args + ["--out", tmp_path / "run"])
        assert result.exit_code == 2, result.output
        assert f"'{option}'" in result.output
        assert not (tmp_path / "run").exists()

    def test_fold_files_carry_loss_curves(self, workspace, tmp_path):
        result = run_cli(["train-eval", "--manifest", workspace / "data" / "manifest.json",
                          "--tag", "I", "--out", tmp_path / "run"])
        assert result.exit_code == 0, result.output
        epochs = FAST_SYNTH["train"]["max_epochs"]
        for k in range(3):
            fold = json.loads((tmp_path / "run" / f"fold_{k:02d}.json").read_text())
            assert set(fold["loss_curve"]) == {"mu", "sigma"}
            for target, curve in fold["loss_curve"].items():
                assert len(curve["train"]) == len(curve["val"]) == epochs + 1
                assert curve["train"][0] is None
                assert fold["best_epoch"][target] == int(np.argmin(curve["val"]))
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert all("loss_curve" not in f for f in summary["folds"])
        assert "loss_curve" not in (tmp_path / "run" / "summary.txt").read_text()


    def test_constant_target_exits_4(self, tmp_path):
        # Identical annotators and no pooling give sigma = 0 in every window.
        cfg = tmp_path / "same.json"
        cfg.write_text(json.dumps(dict(FAST_SYNTH, offset_std=0.0, noise_std=0.0,
                                       representation={"neighbor_radius": 0})))
        assert run_cli(["synth", "--config", cfg, "--out", tmp_path / "d"]).exit_code == 0
        result = run_cli(["train-eval", "--manifest", tmp_path / "d" / "manifest.json",
                          "--tag", "I", "--target", "sigma", "--out", tmp_path / "run"])
        assert result.exit_code == 4, result.output
        assert "training failed: all segments have constant targets" in result.output
        # Neither --out nor its staging directory is left.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "same.json"]

    def test_programming_error_is_not_a_training_failure(self, workspace, tmp_path,
                                                         monkeypatch):
        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(model, "train_stack", broken)
        result = run_cli(["train-eval", "--manifest", workspace / "data" / "manifest.json",
                          "--tag", "I", "--target", "mu", "--out", tmp_path / "run"])
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)
        assert "training failed" not in result.output
        assert os.listdir(tmp_path) == []

    def test_one_window_items_exit_2(self, workspace, tmp_path):
        path = one_window_manifest(workspace)
        result = run_cli(["train-eval", "--manifest", path, "--tag", "O_G",
                          "--out", tmp_path / "run"])
        assert result.exit_code == 2, result.output
        assert "item000.csv: only one window after alignment" in result.output
        assert not (tmp_path / "run").exists()

    def test_feature_width_mismatch_exits_2(self, workspace, tmp_path):
        def edit(lines):
            lines[:] = [line if line.startswith("#") else line.rsplit(",", 1)[0]
                        for line in lines]

        data = workspace / "data"
        path = TestLoaderErrors.manifest_with_table(data, 3, "feature", "narrow_item003.csv",
                                                    edit)
        result = run_cli(["train-eval", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "run"])
        assert result.exit_code == 2, result.output
        assert "narrow_item003.csv: 7 feature columns, the first item has 8" in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["represent", "train-eval"])
    def test_feature_table_without_feature_columns_exits_2(self, workspace, tmp_path,
                                                           command):
        def edit(lines):
            lines[:] = [line if line.startswith("#") else line.split(",")[0]
                        for line in lines]

        data = workspace / "data"
        path = TestLoaderErrors.manifest_with_table(data, 0, "feature", "bare_item000.csv",
                                                    edit)
        result = run_cli([command, "--manifest", path, "--tag", "I", "--out", tmp_path / "out"])
        assert result.exit_code == 2, result.output
        assert f"{data / 'features' / 'bare_item000.csv'}: no feature columns" in result.output
        assert not (tmp_path / "out").exists()


real_train_fold = pipeline._train_fold


def train_fold_losing_the_worker_of_fold_2(args):
    """``pipeline._train_fold``, except that the process training fold 2 dies.

    Module level, so a pool worker can unpickle it by name.
    """
    if any(fold == 2 for fold, _, _ in args[0]):
        os._exit(1)
    return real_train_fold(args)


def test_lost_worker_exits_4(workspace, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_train_fold", train_fold_losing_the_worker_of_fold_2)
    out = tmp_path / "run"
    result = run_cli(["train-eval", "--manifest", workspace / "data" / "manifest.json",
                      "--tag", "I", "--target", "mu", "--jobs", "2", "--out", out])
    assert result.exit_code == 4, result.output
    # Whether the other worker's folds were recorded first makes no difference.
    assert result.stderr == "error: training failed: a worker process was lost\n"
    assert os.listdir(tmp_path) == []


def beta_manifest_with_a_constant_item(root, constant):
    """A Beta-family manifest of four items; item ``constant`` has equal trace values."""
    rng = np.random.default_rng(5)
    items = []
    for i in range(4):
        matrix = np.full((3, 8), 0.25) if i == constant else rng.uniform(-0.9, 0.9, (3, 8))
        write_trace_table(root / f"t{i}.csv", ["a", "b", "c"], matrix, 1.0)
        write_feature_table(root / f"f{i}.csv", f"it{i}", rng.normal(size=(8, 2)), "features")
        items.append({"item_id": f"it{i}", "group": f"g{i}", "trace_file": f"t{i}.csv",
                      "feature_file": f"f{i}.csv"})
    doc = {"dataset": {"native_period": 1.0, "window_length": 1.0, "bounds": [-1.0, 1.0],
                       "items": items},
           "representation": {"family": "beta_mapped", "neighbor_radius": 1},
           "model": {"hidden_dim": 4}, "train": {"max_epochs": 1, "segment_length": 8},
           "split": {"k": 2}}
    path = root / "beta.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command", ["represent", "train-eval"])
def test_fit_failure_exits_3_naming_the_item_before_any_output(tmp_path, command):
    path = beta_manifest_with_a_constant_item(tmp_path, constant=2)
    result = run_cli([command, "--manifest", path, "--tag", "I", "--out", tmp_path / "out"])
    assert result.exit_code == 3, result.output
    assert ("error: representation fit failed: item 'it2': window 0: all samples identical "
            "after clamping; widen the pool") in result.output
    assert not [p for p in os.listdir(tmp_path) if p == "out" or ".staging-" in p]


def test_overflowing_fit_prints_one_line(tmp_path):
    # Finite traces whose spread overflows float64: numpy's RuntimeWarning
    # must not reach stderr ahead of the fit error.
    write_trace_table(tmp_path / "t.csv", ["a", "b"], np.array([[1e308] * 6, [-1e308] * 6]),
                      1.0)
    write_feature_table(tmp_path / "f.csv", "x", np.zeros((6, 2)), "features")
    doc = {"dataset": {"native_period": 1.0, "window_length": 1.0,
                       "items": [{"item_id": "x", "group": "g", "trace_file": "t.csv",
                                  "feature_file": "f.csv"}]}}
    (tmp_path / "m.json").write_text(json.dumps(doc))
    args = ["represent", "--manifest", str(tmp_path / "m.json"), "--tag", "I",
            "--out", str(tmp_path / "out")]
    # A fresh interpreter, so the warning would print as it does for a user.
    result = run_fresh(f"from ambitrace.cli import main\nmain({args!r})")
    assert result.returncode == 3, result.stderr
    assert result.stderr.splitlines() == [
        "error: representation fit failed: item 'x': window 0: fit is not finite; "
        "trace values too large"]


# The first output files each command writes, in the order it writes them.  With
# --jobs 2 the pool worker training folds 0 and 1 writes these two; whichever
# worker fails first, the pool reports fold 0's failure.
WRITE_ORDER = {"synth": ["traces/item000.csv", "features/item000.csv"],
               "represent": [f"I_item{i:03d}.csv" for i in range(6)],
               "train-eval": ["fold_00.json", "fold_00_mu.ckpt"],
               "train-eval --jobs 2": ["fold_00.json", "fold_00_mu.ckpt"],
               "report": ["report.txt", "report.json"]}


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "empty"])
@pytest.mark.parametrize("command", sorted(WRITE_ORDER))
def test_write_failure_mid_run_leaves_out_as_it_was(workspace, runs, tmp_path, command,
                                                     existing):
    name, *options = command.split()
    args = command_args(name, workspace, runs, tmp_path) + options
    assert run_cli(args + ["--out", tmp_path / "whole"]).exit_code == 0
    sizes = [(tmp_path / "whole" / name).stat().st_size for name in WRITE_ORDER[command]]
    # Files as large as the first one can be written; the first larger one cannot.
    failing = next(name for name, size in zip(WRITE_ORDER[command], sizes) if size > sizes[0])
    out = tmp_path / "out"
    if existing:
        out.mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    result = run_with_file_size_limit(args + ["--out", out], sizes[0])
    assert result.returncode == 2, result.stderr
    assert result.stderr == f"error: {out / failing}: cannot write: File too large\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert not existing or os.listdir(out) == []


@pytest.mark.parametrize("command", ["represent", "train-eval"])
def test_configuration_error_wins_over_fit_failure(tmp_path, command):
    # Every item is checked before any is fitted.
    path = beta_manifest_with_a_constant_item(tmp_path, constant=1)
    write_feature_table(tmp_path / "f3.csv", "it3", np.zeros((8, 3)), "features")
    result = run_cli([command, "--manifest", path, "--tag", "I", "--out", tmp_path / "out"])
    assert result.exit_code == 2, result.output
    assert f"{tmp_path / 'f3.csv'}: 3 feature columns, the first item has 2" in result.output
    assert not (tmp_path / "out").exists()


def write_variant_manifest(workspace, name, section, key, value):
    """A copy of the workspace manifest with one model/train key set."""
    doc = json.loads((workspace / "data" / "manifest.json").read_text())
    doc[section][key] = value
    path = workspace / "data" / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


class TestManifestSections:
    @pytest.mark.parametrize("section, key, value", [
        ("train", "max_epoch", 5),
        ("model", "hidden_dm", 16),
        ("train", "segment_length", 1),
        ("split", "kk", 3),
        ("split", "k", 1),
        ("representation", "neighbour_radius", 1),
        ("representation", "neighbor_radius", -1),
    ])
    def test_bad_key_or_value_exits_2(self, workspace, tmp_path, section, key, value):
        path = write_variant_manifest(workspace, f"bad_{key}", section, key, value)
        result = run_cli(["train-eval", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "run"])
        assert result.exit_code == 2, result.output
        assert f"{section}.{key}" in result.output
        assert result.output.count(str(path)) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit, name", [
        (lambda ds: ds["items"][1].update(trace_fil="x.csv"), "dataset.items[1].trace_fil"),
        (lambda ds: ds["items"][0].pop("group"), "dataset.items[0].group"),
        (lambda ds: ds.update(window_length=1.3), "dataset.window_length"),
        (lambda ds: ds.update(delay_offset=0.49), "dataset.delay_offset"),
        (lambda ds: ds["items"][0].update(trace_file=""), "missing trace file"),
        (lambda ds: ds["items"][2].update(feature_file="."), "missing feature file"),
        (lambda ds: ds["items"][0].update(item_id="a/b"), "dataset.items[0].item_id"),
        (lambda ds: ds["items"][1].update(item_id="a,b"), "dataset.items[1].item_id"),
        (lambda ds: ds["items"][0].update(item_id=""), "dataset.items[0].item_id"),
        (lambda ds: ds["items"][2].update(item_id="item000"), "dataset.items[2].item_id"),
        (lambda ds: ds["items"][0].update(item_id="é" * 124), "dataset.items[0].item_id"),
        (lambda ds: ds.update(name={"a": 1}), "dataset.name"),
        (lambda ds: ds.update(bounds="-9"), "dataset.bounds"),
        (lambda ds: ds.update(bounds=[-1.0, float("inf")]), "dataset.bounds"),
        (lambda ds: ds.update(bounds=[True, 2.0]), "dataset.bounds"),
        (lambda ds: ds.update(bounds=[1.0, -1.0]), "dataset.bounds: must satisfy hi > lo"),
    ])
    def test_bad_dataset_entry_exits_2(self, workspace, tmp_path, edit, name):
        doc = json.loads((workspace / "data" / "manifest.json").read_text())
        edit(doc["dataset"])
        path = workspace / "data" / f"bad_{name}.json"
        path.write_text(json.dumps(doc))
        result = run_cli(["represent", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 2, result.output
        assert name in result.output
        assert result.output.count(str(path)) == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_beta_without_bounds_exits_2(self, workspace, tmp_path):
        path = write_variant_manifest(workspace, "beta_unbounded", "representation", "family",
                                      "beta_mapped")
        result = run_cli(["represent", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 2, result.output
        assert result.stderr == (f"error: {path}: representation.family: beta_mapped "
                                 "requires dataset bounds\n")
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("version", ["banana", 2, 1.0, True, None, "1"])
    def test_format_version_other_than_1_exits_2(self, workspace, tmp_path, version):
        doc = json.loads((workspace / "data" / "manifest.json").read_text())
        doc["format_version"] = version
        path = workspace / "data" / "format_version.json"
        path.write_text(json.dumps(doc))
        result = run_cli(["represent", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {path}: format_version: expected 1, got {version!r}\n"
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("split, message", [
        ({"k": 4, "seed": 11}, "split.k: 4 exceeds the 3 available groups"),
        ({"mode": "fixed_train_dev"},
         "split.mode: fixed_train_dev needs items labeled 'train' and 'dev'"),
    ])
    def test_split_the_items_cannot_fill_exits_2_before_any_output(self, workspace, tmp_path,
                                                                   split, message):
        doc = json.loads((workspace / "data" / "manifest.json").read_text())
        doc["split"] = split
        path = workspace / "data" / f"split_{'_'.join(map(str, split.values()))}.json"
        path.write_text(json.dumps(doc))
        result = run_cli(["train-eval", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "run"])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {path}: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("change", [
        lambda doc: list(range(20_000)),
        lambda doc: dict(doc, representation=["x"] * 5000),
        lambda doc: dict(doc, seed="s" * 100_000),
        lambda doc: dict(doc, dataset=dict(doc["dataset"], name=list(range(5000)))),
        lambda doc: dict(doc, dataset=dict(doc["dataset"], bounds=[0.0] * 5000)),
        lambda doc: dict(doc, split=dict(doc["split"], mode="m" * 100_000)),
        lambda doc: dict(doc, dataset=dict(doc["dataset"], items=[
            dict(doc["dataset"]["items"][0], group=list(range(5000)))])),
        lambda doc: dict(doc, **{"k" * 100_000: 1}),
        lambda doc: dict(doc, dataset=dict(doc["dataset"], items=[
            dict(doc["dataset"]["items"][0], trace_file="t" * 100_000)])),
        lambda doc: dict(doc, dataset=dict(doc["dataset"], items=[
            dict(doc["dataset"]["items"][0], item_id="i" * 100_000, trace_file="none.csv")])),
        lambda doc: dict(doc, dataset=dict(doc["dataset"], items=[
            dict(doc["dataset"]["items"][0], item_id="i" * 100_000)])),
    ])
    def test_a_long_bad_value_prints_a_short_line(self, workspace, tmp_path, change):
        doc = json.loads((workspace / "data" / "manifest.json").read_text())
        path = workspace / "data" / "long_value.json"
        path.write_text(json.dumps(change(doc)))
        result = run_cli(["represent", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 2, result.output
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"error: {path}: "), line
        assert len(line) < len(str(path)) + 160, line


# Each site is (path to a JSON object, key): one key the fuzz may drop,
# rename or overwrite.  Known keys that the manifest leaves out count too.
SECTION_KEYS = {
    ("dataset",): [f.name for f in fields(DatasetConfig)],
    ("representation",): [f.name for f in fields(RepresentationConfig)],
    ("model",): [f.name for f in fields(ModelConfig)],
    ("train",): [f.name for f in fields(TrainConfig)],
    ("split",): [f.name for f in fields(SplitSpec)],
    ("dataset", "items", 0): [f.name for f in fields(ItemEntry)],
    ("dataset", "items", 2): [f.name for f in fields(ItemEntry)],
    (): ["dataset", "representation", "model", "train", "split", "seed", "format_version"],
}
OVERFLOW = "__1e400__"  # written as the JSON literal 1e400, which reads as inf

WRONG_VALUES = st.one_of(
    st.none(),
    st.just(True),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-300),
    st.just(OVERFLOW),
    st.text(max_size=6),
    st.text(alphabet="/\\,.\n\x00 a", max_size=3),  # path and table separators
    st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4), max_size=2),
    st.lists(st.integers() | st.text(max_size=3), max_size=3),
)


@st.composite
def manifest_mutations(draw):
    """(site, key, mutation, value): one edit of one manifest section."""
    site = draw(st.sampled_from(sorted(SECTION_KEYS, key=len)))
    key = draw(st.sampled_from(SECTION_KEYS[site]))
    mutation = draw(st.sampled_from(["drop", "rename", "set"]))
    value = draw(WRONG_VALUES) if mutation == "set" else None
    return site, key, mutation, value


class TestManifestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(edit=manifest_mutations())
    def test_loads_or_exits_2_naming_the_manifest(self, workspace, edit):
        site, key, mutation, value = edit
        data = workspace / "data"
        doc = json.loads((data / "manifest.json").read_text())
        node = doc
        for part in site:
            node = node[part]
        if mutation == "drop":
            node.pop(key, None)
        elif mutation == "rename":
            node[key + "_x"] = node.pop(key, None)
        else:
            node[key] = value
        path = data / "fuzz.json"
        path.write_text(json.dumps(doc).replace(f'"{OVERFLOW}"', "1e400"))

        try:
            data_io.load_manifest(str(path))
        except data_io.DataError as exc:
            assert exc.exit_code == 2
            assert str(exc).startswith(f"{path}: "), str(exc)
            return
        # A manifest that loads must not fail later with a traceback either.
        with tempfile.TemporaryDirectory() as out:
            result = run_cli(["represent", "--manifest", path, "--tag", "I",
                              "--out", os.path.join(out, "rep")])
        assert result.exit_code in (0, 2, 3), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


# Each site is (path to a JSON object, key): one key of a synth config the
# fuzz may drop, rename or overwrite.
SYNTH_KEYS = {
    (): [f.name for f in fields(SynthConfig)] + list(data_io.SECTIONS),
    ("model",): [f.name for f in fields(ModelConfig) if f.name != "input_dim"],
    ("train",): [f.name for f in fields(TrainConfig)],
    ("split",): [f.name for f in fields(SplitSpec)],
}


class TestSynthFuzz:
    def test_unknown_key_lists_the_sections_too(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(dict(FAST_SYNTH, itemz=3)))
        result = run_cli(["synth", "--config", cfg, "--out", tmp_path / "out"])
        assert result.exit_code == 2, result.output
        # The generator fields and the representation, model, train and split sections.
        assert result.stderr == (f"error: config {cfg}: itemz: unknown key (expected one of "
                                 f"{', '.join(sorted(SYNTH_KEYS[()]))})\n")
        assert not (tmp_path / "out").exists()

    @settings(max_examples=150, deadline=None)
    @given(site=st.sampled_from(sorted(SYNTH_KEYS, key=len)), data=st.data())
    def test_writes_or_exits_2_naming_the_config(self, site, data):
        key = data.draw(st.sampled_from(SYNTH_KEYS[site]))
        mutation = data.draw(st.sampled_from(["drop", "rename", "set"]))
        doc = json.loads(json.dumps(FAST_SYNTH))
        node = doc
        for part in site:
            node = node[part]
        if mutation == "drop":
            node.pop(key, None)
        elif mutation == "rename":
            node[key + "_x"] = node.pop(key, None)
        else:
            node[key] = data.draw(WRONG_VALUES)
        with tempfile.TemporaryDirectory() as root:
            cfg = os.path.join(root, "synth.json")
            with open(cfg, "w") as fh:
                fh.write(json.dumps(doc).replace(f'"{OVERFLOW}"', "1e400"))
            out = os.path.join(root, "out")
            result = run_cli(["synth", "--config", cfg, "--out", out])
            assert result.exit_code in (0, 2), result.output
            if result.exit_code == 2:
                prefix = f"error: config {cfg}: "
                assert result.stderr.startswith(prefix), result.stderr
                # The message names the mutated key, inside its section.
                assert result.stderr[len(prefix):].startswith(".".join([*site, key])), \
                    result.stderr
                assert not os.path.exists(out)


class TestLoaderErrors:
    def test_non_numeric_feature_cell_names_file_and_line(self, workspace, tmp_path):
        data = workspace / "data"
        lines = (data / "features" / "item002.csv").read_text().splitlines()
        row = lines[6].split(",")
        lines[6] = ",".join(row[:2] + ["abc"] + row[3:])
        (data / "features" / "bad_item002.csv").write_text("\n".join(lines) + "\n")
        doc = json.loads((data / "manifest.json").read_text())
        doc["dataset"]["items"][2]["feature_file"] = "features/bad_item002.csv"
        path = data / "bad_feature_cell.json"
        path.write_text(json.dumps(doc))
        result = run_cli(["represent", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 2, result.output
        assert "bad_item002.csv: bad value at line 7" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_trace_outside_bounds_names_file_and_annotator(self, workspace, tmp_path):
        doc = json.loads((workspace / "data" / "manifest.json").read_text())
        doc["dataset"]["bounds"] = [-0.001, 0.001]
        path = workspace / "data" / "tight_bounds.json"
        path.write_text(json.dumps(doc))
        result = run_cli(["represent", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 2, result.output
        assert "item000.csv: trace 'ann0' has values outside bounds" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @staticmethod
    def manifest_with_table(data, index, kind, name, edit):
        """A manifest whose item ``index`` reads an edited copy of its ``kind`` table."""
        doc = json.loads((data / "manifest.json").read_text())
        entry = doc["dataset"]["items"][index]
        lines = (data / entry[f"{kind}_file"]).read_text().splitlines()
        edit(lines)
        (data / f"{kind}s" / name).write_text("\n".join(lines) + "\n")
        entry[f"{kind}_file"] = f"{kind}s/{name}"
        path = data / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("kind, line, old, new, message", [
        ("feature", 9, ",", ",x", "bad value at line 10"),
        ("feature", 0, "format_version: 1", "format_version: 7",
         "format_version: expected 1, got '7'"),
        ("trace", 0, "format_version: 1", "format_version: 7",
         "format_version: expected 1, got '7'"),
        ("trace", 1, "ann1", "ann0", "duplicate annotator id 'ann0'"),
    ], ids=["bad cell", "feature format", "trace format", "duplicate annotator"])
    @pytest.mark.parametrize("command", ["represent", "train-eval"])
    def test_bad_table_exits_2_before_any_output(self, workspace, tmp_path, command, kind,
                                                 line, old, new, message):
        def edit(lines):
            lines[line] = lines[line].replace(old, new, 1)

        data = workspace / "data"
        name = f"bad_{kind}_{line}_item004.csv"
        path = self.manifest_with_table(data, 4, kind, name, edit)
        result = run_cli([command, "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "out"])
        assert result.exit_code == 2, result.output
        assert f"{data / f'{kind}s' / name}: {message}" in result.output
        assert "training failed" not in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["represent", "train-eval"])
    def test_one_annotator_trace_table_exits_2(self, workspace, tmp_path, command):
        # A column is cut from every line, which the one-line edits above cannot do.
        def edit(lines):
            lines[:] = [line if line.startswith("#") else ",".join(line.split(",")[:2])
                        for line in lines]

        data = workspace / "data"
        path = self.manifest_with_table(data, 2, "trace", "one_annotator_item002.csv", edit)
        result = run_cli([command, "--manifest", path, "--tag", "I", "--out", tmp_path / "out"])
        assert result.exit_code == 2, result.output
        assert result.stderr == (f"error: {data / 'traces' / 'one_annotator_item002.csv'}: "
                                 "a TraceSet needs at least two annotators\n")
        assert not (tmp_path / "out").exists()

    def test_non_finite_time_exits_2(self, workspace, tmp_path):
        def edit(lines):
            lines[3] = ",".join(["nan"] + lines[3].split(",")[1:])

        path = self.manifest_with_table(workspace / "data", 1, "trace", "nan_item001.csv",
                                        edit)
        result = run_cli(["represent", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 2, result.output
        assert "nan_item001.csv: non-finite value at line 4" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not (tmp_path / "rep").exists()

    def test_trace_period_mismatch_exits_2(self, workspace, tmp_path):
        doc = json.loads((workspace / "data" / "manifest.json").read_text())
        doc["dataset"].update(native_period=0.5, window_length=1.0)
        path = workspace / "data" / "half_period.json"
        path.write_text(json.dumps(doc))
        result = run_cli(["represent", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 2, result.output
        assert ("item000.csv: time step 1 s does not match dataset.native_period 0.5 s"
                in result.output)
        assert not (tmp_path / "rep").exists()

    @staticmethod
    def paper_profile_manifest(root, matrix, **representation):
        """A one-item manifest at 40 ms samples, 3 s windows and a 4 s delay, whose
        trace table holds ``matrix``, one row per annotator a, b, c, ..."""
        annotators = [chr(ord("a") + m) for m in range(len(matrix))]
        write_trace_table(root / "short.csv", annotators, matrix, 0.04)
        write_feature_table(root / "short_features.csv", "short", np.zeros((2, 3)),
                            "features")
        doc = {"dataset": {"native_period": 0.04, "window_length": 3.0, "delay_offset": 4.0,
                           "bounds": [-0.9, 0.9],
                           "items": [{"item_id": "short", "group": "g0",
                                      "trace_file": "short.csv",
                                      "feature_file": "short_features.csv"}]},
               "representation": {"family": "gaussian", **representation}}
        path = root / "short.json"
        path.write_text(json.dumps(doc))
        return path

    # 120 samples at 40 ms lose 100 to the 4 s shift; a 3 s window needs 75.
    # A delay that covers the whole trace leaves 0.
    @pytest.mark.parametrize("samples, left", [(120, 20), (100, 0), (80, 0)])
    def test_trace_shorter_than_a_window_after_the_shift_exits_2(self, tmp_path, samples,
                                                                 left):
        path = self.paper_profile_manifest(tmp_path, np.zeros((2, samples)))
        result = run_cli(["represent", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 2, result.output
        assert result.stderr == (f"error: {tmp_path / 'short.csv'}: {left} samples after the "
                                 "4 s delay shift, fewer than one 3 s window (75 samples)\n")
        assert not (tmp_path / "rep").exists()

    @staticmethod
    def two_window_traces():
        """Three annotators' samples for the delay plus two windows, within (-0.5, 0.5)."""
        return np.random.default_rng(3).uniform(-0.5, 0.5, (3, 100 + 2 * 75))

    def test_window_held_at_a_bound_is_accepted(self, tmp_path):
        # Annotator a holds hi for all of the first window: every sample is in
        # bounds, though the window's mean rounds to just past 0.9.
        matrix = self.two_window_traces()
        matrix[0, 100:175] = 0.9
        path = self.paper_profile_manifest(tmp_path, matrix, family="beta_mapped")
        result = run_cli(["represent", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 0, result.output
        _, columns = read_columns(tmp_path / "rep" / "I_short.csv")
        assert np.all((columns["mu"] > -0.9) & (columns["mu"] < 0.9))

    @pytest.mark.parametrize("annotator, sample, value", [
        (1, 120, 5.0),   # its window's mean stays within bounds
        (2, 10, -5.0),   # among the samples the delay shift drops
    ], ids=["hidden by the window mean", "dropped by the shift"])
    def test_raw_sample_outside_bounds_exits_2(self, tmp_path, annotator, sample, value):
        matrix = self.two_window_traces()
        matrix[annotator, sample] = value
        path = self.paper_profile_manifest(tmp_path, matrix)
        result = run_cli(["represent", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 2, result.output
        assert result.stderr == (f"error: {tmp_path / 'short.csv'}: trace "
                                 f"{'abc'[annotator]!r} has values outside bounds\n")
        assert not (tmp_path / "rep").exists()


    @pytest.mark.skipif(not os.path.isfile("/proc/self/mem"),
                        reason="needs a regular file whose read fails")
    @pytest.mark.parametrize("kind", ["trace", "feature"])
    def test_unreadable_table_exits_2_naming_it(self, workspace, tmp_path, kind):
        # /proc/self/mem is a regular file; reading it from offset 0 fails with EIO.
        doc = json.loads((workspace / "data" / "manifest.json").read_text())
        doc["dataset"]["items"][1][f"{kind}_file"] = "/proc/self/mem"
        path = workspace / "data" / f"unreadable_{kind}.json"
        path.write_text(json.dumps(doc))
        result = run_cli(["represent", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 2, result.output
        assert result.stderr == "error: /proc/self/mem: cannot read: Input/output error\n"
        assert not (tmp_path / "rep").exists()


def memo_entries(table):
    """The names of the memo entries of the table file ``table``."""
    memo = table.parent / dataset.MEMO_DIR
    if not memo.is_dir():
        return []
    return sorted(p.name for p in memo.iterdir() if p.name.startswith(table.name + "."))


def memo_entry(table):
    """The name of the memo entry of the table's current bytes."""
    digest = hashlib.sha256(table.read_bytes()).hexdigest()
    return f"{table.name}.{digest}.v{dataset._MEMO_VERSION}.npy"


def edit_cell(row, column, value):
    """Damage: set one cell of a table's text."""
    def edit(table, entry):
        lines = table.read_text().splitlines()
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        table.write_text("\n".join(lines) + "\n")
    return edit


def insert_blank_line(table, entry):
    lines = table.read_text().splitlines()
    table.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")


def block_memo(table, entry):
    """Damage: the memo location becomes a regular file, which root cannot write into."""
    shutil.rmtree(entry.parent)
    entry.parent.write_text("not a directory\n")


# Damage done to a trace table or to its memo entry, and what becomes of
# the entry: "new" (one entry, for the new bytes), "rewritten" (the same
# entry, readable again), "blocked" (nothing written) or "none" (no entry
# for the table's bytes).
MEMO_CASES = {
    "edited source": (edit_cell(3, 1, "0.5"), "new"),
    "truncated entry": (lambda table, entry: entry.write_bytes(entry.read_bytes()[:-40]),
                        "rewritten"),
    "float32 entry": (lambda table, entry: np.save(entry, np.load(entry).astype(np.float32)),
                      "rewritten"),
    "one-dimensional entry": (lambda table, entry: np.save(entry, np.load(entry).ravel()),
                              "rewritten"),
    "unwritable memo location": (block_memo, "blocked"),
    "bad cell": (edit_cell(3, 1, "x"), "none"),
    "non-uniform time": (edit_cell(4, 0, "2.5"), "none"),
    "other format_version": (edit_cell(0, 0, "# format_version: 7"), "none"),
    "duplicate annotator": (edit_cell(1, 2, "ann0"), "none"),
    "irregular table": (insert_blank_line, "none"),
}


class TestInputMemo:
    @pytest.mark.parametrize("case", list(MEMO_CASES))
    def test_damage_gives_the_parse_result(self, tmp_path, case):
        damage, outcome = MEMO_CASES[case]
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(dict(FAST_SYNTH, items=3, groups=3, split={"k": 3})))
        data = tmp_path / "data"
        assert run_cli(["synth", "--config", cfg, "--out", data]).exit_code == 0

        def represent(root, out):
            return run_cli(["represent", "--manifest", root / "manifest.json", "--tag", "O_G",
                            "--out", out])

        assert represent(data, tmp_path / "warm").exit_code == 0
        trace = data / "traces" / "item000.csv"
        old = memo_entries(trace)
        assert old == [memo_entry(trace)]
        damage(trace, trace.parent / dataset.MEMO_DIR / old[0])
        listing = sorted(trace.parent.rglob("*"))
        result = represent(data, tmp_path / "out")
        # The same command on a copy without the memo parses every table.
        clean = tmp_path / "clean"
        shutil.copytree(data, clean, ignore=shutil.ignore_patterns(dataset.MEMO_DIR))
        expected = represent(clean, tmp_path / "clean_out")
        assert result.exit_code == expected.exit_code
        assert result.stderr == expected.stderr.replace(str(clean), str(data))
        if result.exit_code == 0:
            written = sorted(p.name for p in (tmp_path / "out").iterdir())
            assert written == sorted(p.name for p in (tmp_path / "clean_out").iterdir())
            for name in written:
                assert ((tmp_path / "out" / name).read_bytes()
                        == (tmp_path / "clean_out" / name).read_bytes())
        else:
            assert not (tmp_path / "out").exists()

        entries = memo_entries(trace)
        if outcome == "new":
            assert entries == [memo_entry(trace)] != old
        elif outcome == "rewritten":
            assert entries == old
            rows = np.load(trace.parent / dataset.MEMO_DIR / old[0], allow_pickle=False)
            assert rows.dtype == np.float64
            np.testing.assert_array_equal(rows, read_table(clean / "traces" / trace.name).rows)
        elif outcome == "blocked":
            assert (trace.parent / dataset.MEMO_DIR).read_text() == "not a directory\n"
            assert sorted(trace.parent.rglob("*")) == listing
        else:
            assert memo_entry(trace) not in entries

    @pytest.mark.parametrize("command", [
        ["represent", "--tag", "O_I"],
        ["train-eval", "--tag", "I", "--target", "both"],
    ])
    def test_each_input_file_opened_once(self, workspace, tmp_path, monkeypatch, command):
        manifest = workspace / "data" / "manifest.json"
        items = json.loads(manifest.read_text())["dataset"]["items"]
        inputs = [manifest] + [workspace / "data" / item[key] for item in items
                               for key in ("trace_file", "feature_file")]
        opened = collections.Counter()
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened[os.path.realpath(file)] += 1
            return real_open(file, *args, **kwargs)

        # A second run reads the memo entries the first one wrote.
        for run in ("first", "second"):
            opened.clear()
            monkeypatch.setattr(builtins, "open", counting_open)
            result = run_cli([command[0], "--manifest", manifest, *command[1:],
                              "--out", tmp_path / run])
            monkeypatch.undo()
            assert result.exit_code == 0, result.output
            assert [opened[os.path.realpath(p)] for p in inputs] == [1] * len(inputs)
            assert not list((tmp_path / run).rglob(dataset.MEMO_DIR))


SUMMARY_KEYS = {
    (): ["format_version", "tag", "targets", "dataset_hash", "representation", "model",
         "train", "split", "folds", "mean", "std", "evaluation"],
    ("mean",): ["ccc_mu", "sda_sigma"],
    ("std",): ["ccc_sigma"],
    ("split",): ["mode", "k"],
    ("folds", 0): ["fold", "metrics"],
}


class TestOutputDir:
    """An ``--out`` that is a file, lies under one, or holds anything exits 2 and
    creates nothing; an absent or empty one is written."""

    @pytest.mark.parametrize("command", ["synth", "represent", "train-eval", "report"])
    @pytest.mark.parametrize("nested", [False, True])
    def test_file_in_the_way_exits_2(self, workspace, runs, tmp_path, command, nested):
        blocker = tmp_path / "afile"
        blocker.write_text("keep\n")
        out = blocker / "sub" if nested else blocker
        args = command_args(command, workspace, runs, tmp_path)
        result = run_cli(args + ["--out", out])
        assert result.exit_code == 2, result.output
        expected = "a parent is not a directory" if nested else "exists and is not a directory"
        assert f"error: output directory {out}: {expected}" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "synth.json"]
        assert blocker.read_text() == "keep\n"

    def test_synth_names_a_subdirectory_it_cannot_create(self, tmp_path, monkeypatch):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(FAST_SYNTH))
        real_mkdir = os.mkdir

        def mkdir_on_a_full_disk(path, *args):
            if os.path.basename(path) == "traces":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            real_mkdir(path, *args)

        monkeypatch.setattr(os, "mkdir", mkdir_on_a_full_disk)
        result = run_cli(["synth", "--config", cfg, "--out", tmp_path / "out"])
        monkeypatch.undo()
        assert result.exit_code == 2, result.output
        assert result.stderr == (f"error: {tmp_path / 'out' / 'traces'}: cannot create: "
                                 "No space left on device\n")
        assert os.listdir(tmp_path) == ["synth.json"]

    @pytest.mark.parametrize("command", ["synth", "represent", "train-eval", "report"])
    @pytest.mark.parametrize("state", ["non-empty", "empty path"])
    def test_unusable_out_is_refused_before_anything_is_read(self, tmp_path, monkeypatch,
                                                             command, state):
        out = tmp_path / "out"
        (out / "earlier").mkdir(parents=True)
        (out / "earlier" / "fold_00.json").write_text("keep\n")
        # Inputs that do not exist: reading any of them would fail otherwise.
        missing = tmp_path / "missing"
        args = {"synth": ["synth", "--config", missing / "synth.json"],
                "represent": ["represent", "--manifest", missing / "manifest.json", "--tag", "I"],
                "train-eval": ["train-eval", "--manifest", missing / "manifest.json",
                               "--tag", "I"],
                "report": ["report", missing]}[command]
        if state == "empty path":
            # The working directory is empty: an --out "" taken for it would be replaced.
            (tmp_path / "cwd").mkdir()
            monkeypatch.chdir(tmp_path / "cwd")
            result = run_cli(args + ["--out", ""])
            assert result.stderr == "error: output directory : empty path\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cwd", "out"]
            assert os.listdir(tmp_path / "cwd") == []
        else:
            result = run_cli(args + ["--out", out])
            assert result.stderr == f"error: output directory {out}: not empty\n"
        assert result.exit_code == 2, result.output
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
            "earlier", "earlier/fold_00.json"]
        assert (out / "earlier" / "fold_00.json").read_text() == "keep\n"

    @pytest.mark.parametrize("command", ["synth", "represent", "train-eval", "report"])
    def test_out_filled_during_the_run_is_left_alone(self, workspace, runs, tmp_path,
                                                     monkeypatch, command):
        out = tmp_path / "out"
        args = command_args(command, workspace, runs, tmp_path)
        real_rename = os.rename

        def fill_then_rename(src, dst):
            # Another process writes into --out after the entry check.
            out.mkdir(exist_ok=True)
            (out / "late.txt").write_text("keep\n")
            real_rename(src, dst)

        monkeypatch.setattr(os, "rename", fill_then_rename)
        result = run_cli(args + ["--out", out])
        monkeypatch.undo()
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: output directory {out}: not empty\n"
        assert os.listdir(out) == ["late.txt"]
        assert (out / "late.txt").read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "synth.json"]

    @pytest.mark.parametrize("command", ["synth", "represent", "train-eval", "report"])
    @pytest.mark.parametrize("kind", ["directory", "symlink", "254-byte name"])
    def test_empty_out_is_written(self, workspace, runs, tmp_path, command, kind):
        out = tmp_path / ("\u00e9" * 127 if kind == "254-byte name" else "out")
        target = tmp_path / "target" if kind == "symlink" else out
        target.mkdir()
        if kind == "symlink":
            out.symlink_to(target)
        args = command_args(command, workspace, runs, tmp_path)
        result = run_cli(args + ["--out", out])
        assert result.exit_code == 0, result.output
        assert os.listdir(target)
        assert out.is_symlink() == (kind == "symlink")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            {out.name, target.name, "synth.json"})


@pytest.mark.parametrize("state", ["non-UTF-8", "a directory"])
@pytest.mark.parametrize("command", ["synth", "represent", "train-eval", "report"])
def test_unreadable_json_input_exits_with_its_code(tmp_path, command, state):
    path = tmp_path / ("summary.json" if command == "report" else "input.json")
    if state == "non-UTF-8":
        path.write_bytes(b'{"seed": "\xe9"}')
    else:
        path.mkdir()
    args = {"synth": ["synth", "--config", path],
            "represent": ["represent", "--manifest", path, "--tag", "I"],
            "train-eval": ["train-eval", "--manifest", path, "--tag", "I"],
            "report": ["report", tmp_path]}[command]
    result = run_cli(args + ["--out", tmp_path / "out"])
    code, expected = {"synth": (2, f"config {path}: not a readable config: "),
                      "report": (5, f"{path}: not a readable summary: ")}.get(
                          command, (2, f"{path}: not a readable manifest: "))
    assert result.exit_code == code, result.output
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: {expected}"), line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("umask, mode, dir_mode",
                         [(0o022, 0o644, 0o755), (0o077, 0o600, 0o700)])
def test_new_files_take_their_mode_from_the_umask(tmp_path, umask, mode, dir_mode):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(dict(FAST_SYNTH, items=3, groups=3, split={"k": 3})))
    manifest = tmp_path / "d" / "manifest.json"
    previous = os.umask(umask)
    try:
        for args in (["synth", "--config", cfg, "--out", tmp_path / "d"],
                     ["represent", "--manifest", manifest, "--tag", "I", "--out", tmp_path / "rep"],
                     ["train-eval", "--manifest", manifest, "--tag", "I", "--target", "mu",
                      "--out", tmp_path / "run"]):
            result = run_cli(args)
            assert result.exit_code == 0, result.output
    finally:
        os.umask(previous)
    trace = tmp_path / "d" / "traces" / "item000.csv"
    for path in (trace, trace.parent / dataset.MEMO_DIR / memo_entry(trace), manifest,
                 tmp_path / "rep" / "I_item000.csv", tmp_path / "run" / "summary.json",
                 tmp_path / "run" / "fold_00_mu.ckpt"):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path
    for path in (tmp_path / "d", trace.parent, tmp_path / "rep", tmp_path / "run"):
        assert stat.S_IMODE(path.stat().st_mode) == dir_mode, path


@st.composite
def summary_mutations(draw):
    """(site, key, mutation, value): one edit of one summary.json field."""
    site = draw(st.sampled_from(sorted(SUMMARY_KEYS, key=len)))
    key = draw(st.sampled_from(SUMMARY_KEYS[site]))
    mutation = draw(st.sampled_from(["drop", "set"]))
    value = draw(WRONG_VALUES | st.sampled_from(["I", "O_I", "mu", "k_fold_grouped"]))
    return site, key, mutation, value


def hand_summary(tag, folds, mean, std=None):
    """A summary holding only what ``render_summary_table`` reads."""
    return {"tag": tag, "folds": [{}] * folds, "mean": mean,
            "std": dict.fromkeys(mean, 0.0) if std is None else std}


def table_cells(summaries):
    """The rendered table's rows, split into cells at the column gaps."""
    return [re.split(r"\s{2,}", line)
            for line in render_summary_table(summaries).splitlines()]


class TestSummaryTable:
    def test_one_fold_shows_no_spread_and_one_summary_no_stars(self):
        both = {"ccc_mu": 0.5, "ccc_sigma": 0.25, "sda_mu": 0.75, "sda_sigma": 0.125}
        assert table_cells([hand_summary("O_I", 1, both)]) == [
            ["Representation", "CCC mu", "CCC sigma", "SDA mu", "SDA sigma"],
            ["O_I", "0.500", "0.250", "0.750", "0.125"]]

    def test_spread_ties_and_a_missing_target(self):
        summaries = [hand_summary("I", 3, {"ccc_mu": 0.9, "sda_mu": 0.7},
                                  {"ccc_mu": 0.05, "sda_mu": 0.125}),
                     hand_summary("O_G", 1, {"ccc_mu": 0.9, "sda_mu": 0.8})]
        assert table_cells(summaries)[1:] == [
            ["I", "*0.900+/-0.050*", "-", "0.700+/-0.125", "-"],
            ["O_G", "*0.900*", "-", "*0.800*", "-"]]


@pytest.fixture(scope="module")
def runs(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    manifest = workspace / "data" / "manifest.json"
    for tag in ("I", "O_I", "O_G"):
        result = run_cli(["train-eval", "--manifest", manifest, "--tag", tag,
                          "--out", out / tag])
        assert result.exit_code == 0, result.output
    return out


class TestReport:

    def test_three_row_table(self, runs, tmp_path):
        result = run_cli(["report", runs / "I", runs / "O_I", runs / "O_G",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 0, result.output
        table = (tmp_path / "rep" / "report.txt").read_text().splitlines()
        assert len(table) == 4  # header + 3 representation rows
        assert table[0].split()[:2] == ["Representation", "CCC"]
        assert [row.split()[0] for row in table[1:]] == ["I", "O_I", "O_G"]
        record = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert [r["tag"] for r in record["rows"]] == ["I", "O_I", "O_G"]
        assert "loss_curve" not in (tmp_path / "rep" / "report.json").read_text()

    def test_column_maxima_marked(self, runs):
        result = run_cli(["report", runs / "I", runs / "O_G"])
        assert result.exit_code == 0
        assert result.output.count("*") >= 8  # four columns, marked pairs

    def test_single_run_table(self, runs):
        result = run_cli(["report", runs / "I"])
        assert result.exit_code == 0
        assert len(result.output.strip().splitlines()) == 2

    def test_conflicting_hashes_exit_5(self, runs, workspace, tmp_path):
        other_cfg = tmp_path / "other.json"
        doc = dict(FAST_SYNTH)
        doc["seed"] = 99
        other_cfg.write_text(json.dumps(doc))
        assert run_cli(["synth", "--config", other_cfg,
                        "--out", tmp_path / "d2"]).exit_code == 0
        assert run_cli(["train-eval", "--manifest", tmp_path / "d2" / "manifest.json",
                        "--tag", "I", "--target", "mu",
                        "--out", tmp_path / "r2"]).exit_code == 0
        result = run_cli(["report", runs / "I", tmp_path / "r2"])
        assert result.exit_code == 5

    def test_directory_without_summary_exits_5(self, runs, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = run_cli(["report", runs / "I", empty, "--out", tmp_path / "report"])
        assert result.exit_code == 5, result.output
        assert result.stderr == (f"error: {empty}: no summary.json "
                                 "(not a train-eval output?)\n")
        assert not (tmp_path / "report").exists()

    @staticmethod
    def edited_summary(runs, tmp_path, tag, edit):
        """A result directory holding ``tag``'s summary.json, edited as text."""
        out = tmp_path / f"edited_{tag}"
        out.mkdir()
        (out / "summary.json").write_text(edit((runs / tag / "summary.json").read_text()))
        return out

    @staticmethod
    def edit_doc(change):
        def edit(text):
            doc = json.loads(text)
            change(doc)
            return json.dumps(doc)
        return edit

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text[: len(text) // 2], "not a readable summary"),
        (lambda text: '{"tag": "I"}', "format_version: expected 1"),
        (lambda text: "[1]", "expected a JSON object"),
        (lambda text: text.replace('"format_version": 1', '"format_version": 2'),
         "format_version: expected 1, got 2"),
        (lambda text: text.replace('"tag": "O_I"', '"tag": "X"'), "tag: expected one of"),
        (lambda text: text.replace('"dataset_hash"', '"hash"'), "dataset_hash: expected"),
        (lambda text: text.replace('"targets": [', '"targets": ["mu", '),
         "targets: expected distinct targets"),
        (lambda text: text.replace('"folds": [', '"folds": [[], '), "folds: expected"),
        (lambda text: text.replace('"mode": "k_fold_grouped"', '"mode": "loo"'),
         "split.mode: expected one of"),
        (lambda text: text.replace('"hidden_dim": 8', '"hidden_dim": 0'),
         "model.hidden_dim: expected an integer >= 1, got 0"),
        (lambda text: text.replace('"max_epochs": 3', '"max_epoch": 3'),
         "train.max_epoch: unknown key"),
        (lambda text: text.replace('"num_layers"', '"input_dim"'),
         "model.input_dim: unknown key"),
    ])
    def test_malformed_summary_exits_5_naming_the_file(self, runs, tmp_path, edit, message):
        out = self.edited_summary(runs, tmp_path, "O_I", edit)
        result = run_cli(["report", runs / "I", out])
        assert result.exit_code == 5, result.output
        assert result.output.startswith(f"error: {out / 'summary.json'}: {message}"), \
            result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("key", ["mean", "std"])
    def test_bad_metric_values_exit_5(self, runs, tmp_path, key):
        def change(doc):
            doc[key]["ccc_mu"] = "0.9"

        out = self.edited_summary(runs, tmp_path, "O_G", self.edit_doc(change))
        result = run_cli(["report", out])
        assert result.exit_code == 5, result.output
        assert f"summary.json: {key}: expected a number per metric" in result.output

    @pytest.mark.parametrize("key, change", [
        ("split", lambda doc: doc["split"].update(seed=doc["split"]["seed"] + 1)),
        ("targets", lambda doc: [doc["targets"].remove("sigma"),
                                 doc["mean"].pop("ccc_sigma"), doc["mean"].pop("sda_sigma"),
                                 doc["std"].pop("ccc_sigma"), doc["std"].pop("sda_sigma")]),
        ("representation", lambda doc: doc["representation"].update(neighbor_radius=3)),
        ("model", lambda doc: doc["model"].update(hidden_dim=16)),
        ("train", lambda doc: doc["train"].update(max_epochs=4)),
    ])
    def test_mismatched_protocol_exits_5_naming_the_key(self, runs, tmp_path, key, change):
        out = self.edited_summary(runs, tmp_path, "O_G", self.edit_doc(change))
        result = run_cli(["report", runs / "I", runs / "O_I", out])
        assert result.exit_code == 5, result.output
        assert (f"error: {out / 'summary.json'}: {key} differs from "
                f"{runs / 'I' / 'summary.json'}") in result.output

    def test_repeated_tag_exits_5_naming_both_files(self, runs, tmp_path):
        out = self.edited_summary(runs, tmp_path, "I", lambda text: text)
        result = run_cli(["report", runs / "I", runs / "O_G", out])
        assert result.exit_code == 5, result.output
        assert (f"error: {out / 'summary.json'}: representation I is already in "
                f"{runs / 'I' / 'summary.json'}") in result.output

    def test_merges_settings_spelled_differently(self, workspace, tmp_path):
        # Two manifests that differ only in how the train section is spelled:
        # one leaves the defaults out, the other writes them.
        doc = json.loads((workspace / "data" / "manifest.json").read_text())
        spellings = {"I": {"max_epochs": 2, "segment_length": 19},
                     "O_I": {"max_epochs": 2, "segment_length": 19, "learning_rate": 1e-3,
                             "weight_decay": 1e-4, "batch_segments": 8, "target_margin": 0.9}}
        for tag, train in spellings.items():
            path = workspace / "data" / f"spelled_{tag}.json"
            path.write_text(json.dumps(dict(doc, train=train)))
            result = run_cli(["train-eval", "--manifest", path, "--tag", tag,
                              "--out", tmp_path / tag])
            assert result.exit_code == 0, result.output
        result = run_cli(["report", tmp_path / "I", tmp_path / "O_I"])
        assert result.exit_code == 0, result.output
        assert [row.split()[0] for row in result.output.splitlines()[1:]] == ["I", "O_I"]

    def test_sections_list_every_field(self, workspace, runs):
        fields_of = {key: [f.name for f in fields(cls) if f.name != "input_dim"]
                     for key, cls in data_io.SECTIONS.items()}
        for path in (workspace / "data" / "manifest.json", runs / "O_I" / "summary.json"):
            doc = json.loads(path.read_text())
            assert {key: sorted(doc[key]) for key in fields_of} == \
                {key: sorted(names) for key, names in fields_of.items()}, path
        # The effective settings: the synth defaults, the config's own keys
        # and the model seed, which defaults to the manifest seed.
        assert doc["model"] == {"hidden_dim": 8, "num_layers": 2, "seed": 11}
        assert doc["train"] == dict(asdict(TrainConfig()), max_epochs=3, segment_length=19)
        assert doc["representation"] == {"family": "gaussian", "neighbor_radius": 1}

    def test_sparse_summary_merges_with_a_full_one(self, runs, tmp_path):
        # Sections as earlier releases wrote them: the manifest's own keys only.
        def sparse(doc):
            doc["representation"] = {"family": "gaussian"}
            doc["model"] = {"hidden_dim": 8, "seed": 11}
            doc["train"] = {"max_epochs": 3, "segment_length": 19}

        out = self.edited_summary(runs, tmp_path, "O_G", self.edit_doc(sparse))
        full = run_cli(["report", runs / "I", runs / "O_G"])
        result = run_cli(["report", runs / "I", out])
        assert result.exit_code == 0, result.output
        assert result.output == full.output

    @settings(max_examples=200, deadline=None)
    @given(edit=summary_mutations())
    def test_merges_or_exits_5_naming_the_summary(self, runs, edit):
        site, key, mutation, value = edit
        doc = json.loads((runs / "O_G" / "summary.json").read_text())
        node = doc
        for part in site:
            node = node[part]
        if mutation == "drop":
            node.pop(key, None)
        else:
            node[key] = value
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "summary.json")
            with open(path, "w") as fh:
                fh.write(json.dumps(doc).replace(f'"{OVERFLOW}"', "1e400"))
            for k, dirs in enumerate(([out], [runs / "I", out])):
                result = run_cli(["report", *dirs, "--out", os.path.join(out, f"rep{k}")])
                assert result.exception is None or isinstance(result.exception, SystemExit), \
                    result.output
                assert result.exit_code == 0 or (
                    result.exit_code == 5 and result.output.startswith(f"error: {path}: ")), \
                    result.output



# The command-line fuzz: a 4-item dataset, so each run that goes through is short.
FUZZ_SYNTH = {"items": 4, "groups": 2, "annotators": 3, "windows": 8, "seed": 3,
              "train": {"max_epochs": 1, "segment_length": 8}, "split": {"k": 2, "seed": 3},
              "model": {"hidden_dim": 4}}
# Each option's values, the valid ones first; None leaves the option out.
FUZZ_OPTIONS = {"--seed": ([None, "0", "5"], ["-1", "x", "1.5", ""]),
                "--jobs": ([None, "1"], ["0", "-3", "two"]),
                "--target": ([None, "mu", "both"], ["MU", "bogus", ""])}
COMMAND_OPTIONS = {"synth": ["--seed"], "represent": [], "report": [],
                   "train-eval": ["--seed", "--jobs", "--target"]}
# A name each command writes into --out.
OUTPUT_NAMES = {"synth": "manifest.json", "represent": "I_item000.csv",
                "train-eval": "fold_00_mu.ckpt", "report": "report.txt"}
OUT_STATES = ["absent", "empty", "file", "non-empty", "under a file", "holds an output name"]
INPUT_STATES = ["good", "non-UTF-8", "unreadable", "missing"]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Each command's input in every ``INPUT_STATES`` state, by (command, state)."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "synth.json").write_text(json.dumps(FUZZ_SYNTH))
    manifest = root / "data" / "manifest.json"
    assert run_cli(["synth", "--config", root / "synth.json", "--out", root / "data"]
                   ).exit_code == 0
    assert run_cli(["train-eval", "--manifest", manifest, "--tag", "I", "--out", root / "run"]
                   ).exit_code == 0
    (root / "latin1.json").write_bytes(b'{"seed": "\xe9"}')
    (root / "latin1").mkdir()
    (root / "latin1" / "summary.json").write_bytes(b'{"tag": "\xe9"}')
    (root / "folder.json").mkdir()
    (root / "folder" / "summary.json").mkdir(parents=True)
    inputs = {}
    for command, good in (("synth", root / "synth.json"), ("represent", manifest),
                          ("train-eval", manifest), ("report", root / "run")):
        suffix = "" if command == "report" else ".json"
        inputs.update({(command, "good"): good,
                       (command, "non-UTF-8"): root / f"latin1{suffix}",
                       (command, "unreadable"): root / f"folder{suffix}",
                       (command, "missing"): root / f"nothing{suffix}"})
    return inputs


def make_out(root, state, command):
    """An --out in ``state`` under the directory ``root``."""
    out = root / "out"
    if state == "empty":
        out.mkdir()
    elif state == "file":
        out.write_text("x\n")
    elif state == "non-empty":
        out.mkdir()
        (out / "notes.txt").write_text("x\n")
    elif state == "under a file":
        (root / "afile").write_text("x\n")
        out = root / "afile" / "out"
    elif state == "holds an output name":
        (out / OUTPUT_NAMES[command]).mkdir(parents=True)
    return out


@st.composite
def command_lines(draw):
    """(command, input state, out state, {option: value})."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    options = {}
    for option in COMMAND_OPTIONS[command]:
        valid, invalid = FUZZ_OPTIONS[option]
        value = draw(st.sampled_from(valid + invalid))
        if value is not None:
            options[option] = value
    return (command, draw(st.sampled_from(INPUT_STATES)), draw(st.sampled_from(OUT_STATES)),
            options)


class TestCommandLineFuzz:
    @settings(max_examples=50, deadline=None)
    @given(case=command_lines())
    def test_exits_0_or_with_its_code_naming_the_cause(self, fuzz_inputs, case):
        command, input_state, out_state, options = case
        source = fuzz_inputs[(command, input_state)]
        input_args = {"synth": ["--config", source],
                      "represent": ["--manifest", source, "--tag", "I"],
                      "train-eval": ["--manifest", source, "--tag", "I"], "report": [source]}
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            out = make_out(root, out_state, command)
            before = sorted(root.rglob("*"))
            option_args = [a for option, value in options.items() for a in (option, value)]
            # --out comes last, so an option error is found first.
            result = run_cli([command, *input_args[command], *option_args, "--out", out])
            assert "Traceback" not in result.output
            assert result.exception is None or isinstance(result.exception, SystemExit), \
                result.output
            bad_options = [o for o, v in options.items() if v not in FUZZ_OPTIONS[o][0]]
            if not bad_options and out_state in ("absent", "empty") and input_state == "good":
                assert result.exit_code == 0, result.output
                assert out.is_dir() and os.listdir(out)
                return
            # A usage error and a command's own failure each print one "error:" line.
            lines = [line for line in result.stderr.splitlines() if line.startswith("error:")]
            assert len(lines) == 1, result.stderr
            if bad_options:
                assert result.exit_code == 2, result.output
                assert f"'{bad_options[0]}'" in lines[0], result.stderr
            elif out_state not in ("absent", "empty"):
                assert result.exit_code == 2, result.output
                assert result.stderr == lines[0] + "\n"
                assert lines[0].startswith(f"error: output directory {out}: "), lines[0]
            else:
                assert result.exit_code == (5 if command == "report" else 2), result.output
                assert result.stderr == lines[0] + "\n"
                assert str(source) in lines[0], lines[0]
            assert sorted(root.rglob("*")) == before
