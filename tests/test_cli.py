import builtins
import collections
import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import shutil
import stat
import sys
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import run_fresh
from hypothesis import given, settings
from hypothesis import strategies as st

from ambitrace import cli, data_io, model, pipeline
from ambitrace.cli import main
from ambitrace.data_io import (
    REPRESENTATION_KEYS,
    DatasetConfig,
    ItemEntry,
    ModelConfig,
    SplitSpec,
    SynthConfig,
    TrainConfig,
    read_table,
    write_feature_table,
    write_trace_table,
)

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
    runner = CliRunner()
    result = runner.invoke(
        main, ["synth", "--config", str(cfg), "--out", str(root / "data")]
    )
    assert result.exit_code == 0, result.output
    return root


def run_cli(args):
    return CliRunner().invoke(main, [str(a) for a in args])


def one_window_manifest(workspace):
    """A copy of the workspace manifest that keeps one window per item."""
    doc = json.loads((workspace / "data" / "manifest.json").read_text())
    doc["dataset"]["keep_first"] = 1
    path = workspace / "data" / "one_window.json"
    path.write_text(json.dumps(doc))
    return path


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
    ])
    def test_malformed_config_exits_2_writing_nothing(self, tmp_path, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        result = run_cli(["synth", "--config", cfg, "--out", tmp_path / "out"])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: config {cfg}: "), result.stderr
        assert not (tmp_path / "out").exists()


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
                "assert dict(os.environ) == before, 'environment changed'\n"
                "from ambitrace import *\n"
                "from ambitrace import metrics, representations, traces\n"
                "assert ccc is metrics.ccc and fit_beta is representations.fit_beta\n"
                "assert TraceSet is traces.TraceSet\n"
                "print(','.join(ambitrace.__all__))\n")
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().split(",") == [
            "TraceSet", "central_difference", "shift_delay", "window_aggregate",
            "WindowFits", "fit_gaussian", "fit_beta",
            "interval_representation", "individual_ordinal", "group_ordinal", "ccc", "sda",
            "__version__"]

    def test_unknown_package_attribute_raises(self):
        import ambitrace

        with pytest.raises(AttributeError, match="wibble"):
            ambitrace.wibble

    def test_cli_defaults_to_one_blas_thread(self):
        code = ("import os, sys\n"
                "import ambitrace.cli\n"
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

    def test_only_train_eval_loads_the_model(self, workspace, tmp_path):
        manifest = workspace / "data" / "manifest.json"
        run = tmp_path / "run"
        assert run_cli(["train-eval", "--manifest", manifest, "--tag", "I", "--target", "mu",
                        "--out", run]).exit_code == 0
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(FAST_SYNTH))
        commands = [
            ["synth", "--config", cfg, "--out", tmp_path / "d"],
            ["represent", "--manifest", manifest, "--tag", "O_G", "--out", tmp_path / "rep"],
            ["report", run, "--out", tmp_path / "report"],
            ["train-eval", "--manifest", manifest, "--tag", "I", "--target", "mu",
             "--out", tmp_path / "run2"],
        ]
        code = ["import sys", "from ambitrace.cli import main"]
        for args in commands:
            loaded = args[0] == "train-eval"
            code += [f"main({[str(a) for a in args]!r}, standalone_mode=False)",
                     f"assert ('ambitrace.model' in sys.modules) is {loaded}, {args[0]!r}"]
        result = run_fresh("\n".join(code) + "\n")
        assert result.returncode == 0, result.stderr


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
        (1, [[0, 1], [2]]),
        (2, [[0, 1], [2]]),
        (3, [[0], [1], [2]]),
    ])
    def test_fold_pairs_leave_a_stack_per_worker(self, workspace, tmp_path, monkeypatch,
                                                 jobs, stacks):
        workers, trained = [], []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                job_args = list(iterables[0])
                trained.extend([fold[0] for fold in args[0]] for args in job_args)
                return super().map(fn, job_args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        args = ["train-eval", "--manifest", workspace / "data" / "manifest.json",
                "--tag", "I", "--target", "mu"]
        assert run_cli(args + ["--out", tmp_path / "serial"]).exit_code == 0
        assert run_cli(args + ["--out", tmp_path / "par", "--jobs", jobs]).exit_code == 0
        # A serial run pairs every fold it can and starts no pool.
        assert (workers, trained) == (([jobs], stacks) if jobs > 1 else ([], []))
        names = sorted(os.listdir(tmp_path / "serial"))
        assert names == sorted(os.listdir(tmp_path / "par"))
        for name in names:
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "par" / name).read_bytes()

    @pytest.mark.parametrize("folds, jobs, stacks", [
        (1, 1, [[0]]),
        (10, 1, [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]),
        (10, 5, [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]),
        (10, 7, [[0, 1], [2, 3], [4, 5], [6], [7], [8], [9]]),
        (10, 16, [[k] for k in range(10)]),
        (3, 1, [[0, 1], [2]]),
        (3, 2, [[0, 1], [2]]),
        (3, 3, [[0], [1], [2]]),
        (3, 5, [[0], [1], [2]]),
    ])
    def test_fold_stacks(self, folds, jobs, stacks):
        assert pipeline._fold_stacks(folds, jobs) == stacks

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

    @pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--jobs", "0")])
    def test_bad_option_exits_2_before_any_output(self, workspace, tmp_path, option, value):
        result = run_cli(["train-eval", "--manifest", workspace / "data" / "manifest.json",
                          "--tag", "I", option, value, "--out", tmp_path / "run"])
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


def test_lost_worker_exits_4_naming_the_unwritten_folds(workspace, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_train_fold", train_fold_losing_the_worker_of_fold_2)
    out = tmp_path / "run"
    result = run_cli(["train-eval", "--manifest", workspace / "data" / "manifest.json",
                      "--tag", "I", "--target", "mu", "--jobs", "2", "--out", out])
    assert result.exit_code == 4, result.output
    assert "Traceback" not in result.output
    # Folds 0 and 1 train in the other worker, which may finish before the
    # loss or be stopped by it; the message names what is not on disk.
    missing = [k for k in range(3) if not (out / f"fold_{k:02d}.json").exists()]
    assert 2 in missing
    assert result.stderr == ("error: training failed: a worker process was lost; folds "
                             f"{', '.join(map(str, missing))} were not written\n")


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
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command, name", [("represent", "I_item003.csv"),
                                           ("train-eval", "fold_00_mu.ckpt")])
def test_unwritable_output_exits_2_naming_the_path(workspace, tmp_path, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)  # a directory where an output file goes
    result = run_cli([command, "--manifest", workspace / "data" / "manifest.json", "--tag", "I",
                      "--out", out] + (["--target", "mu"] if command == "train-eval" else []))
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {out / name}: cannot write: Is a directory\n"
    assert not [p for p in os.listdir(out) if p.startswith(".tmp-")]


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
        (lambda ds: ds.update(name={"a": 1}), "dataset.name"),
        (lambda ds: ds.update(bounds="-9"), "dataset.bounds"),
        (lambda ds: ds.update(bounds=[-1.0, float("inf")]), "dataset.bounds"),
        (lambda ds: ds.update(bounds=[True, 2.0]), "dataset.bounds"),
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


# Each site is (path to a JSON object, key): one key the fuzz may drop,
# rename or overwrite.  Known keys that the manifest leaves out count too.
SECTION_KEYS = {
    ("dataset",): [f.name for f in fields(DatasetConfig)],
    ("representation",): list(REPRESENTATION_KEYS),
    ("model",): [f.name for f in fields(ModelConfig)],
    ("train",): [f.name for f in fields(TrainConfig)],
    ("split",): [f.name for f in fields(SplitSpec)],
    ("dataset", "items", 0): [f.name for f in fields(ItemEntry)],
    ("dataset", "items", 2): [f.name for f in fields(ItemEntry)],
    (): ["dataset", "representation", "model", "train", "split", "seed"],
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

        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                cli._load_manifest(str(path))
            except SystemExit as exc:
                assert exc.code == 2
                assert stderr.getvalue().startswith(f"error: {path}: "), stderr.getvalue()
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
    (): [f.name for f in fields(SynthConfig)] + list(pipeline.MANIFEST_EXTRA_KEYS),
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

    @pytest.mark.parametrize("command", ["represent", "train-eval"])
    def test_bad_table_exits_2_before_any_output(self, workspace, tmp_path, command):
        def edit(lines):
            lines[9] = lines[9].replace(",", ",x", 1)

        data = workspace / "data"
        path = self.manifest_with_table(data, 4, "feature", "bad_item004.csv", edit)
        result = run_cli([command, "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "out"])
        assert result.exit_code == 2, result.output
        assert f"{data / 'features' / 'bad_item004.csv'}: bad value at line 10" \
            in result.output
        assert "training failed" not in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
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

    def test_trace_shorter_than_a_window_after_the_shift_exits_2(self, tmp_path):
        # 120 samples at 40 ms lose 100 to the 4 s shift; a 3 s window needs 75.
        write_trace_table(tmp_path / "short.csv", ["a", "b"], np.zeros((2, 120)), 0.04)
        write_feature_table(tmp_path / "short_features.csv", "short", np.zeros((2, 3)),
                            "features")
        doc = {"dataset": {"native_period": 0.04, "window_length": 3.0, "delay_offset": 4.0,
                           "items": [{"item_id": "short", "group": "g0",
                                      "trace_file": "short.csv",
                                      "feature_file": "short_features.csv"}]},
               "representation": {"family": "gaussian"}}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        result = run_cli(["represent", "--manifest", path, "--tag", "I",
                          "--out", tmp_path / "rep"])
        assert result.exit_code == 2, result.output
        assert (f"{tmp_path / 'short.csv'}: 20 samples after the 4 s delay shift, fewer "
                "than one 3 s window (75 samples)") in result.output
        assert not (tmp_path / "rep").exists()


def memo_entries(table):
    """The names of the memo entries of the table file ``table``."""
    memo = table.parent / data_io.MEMO_DIR
    if not memo.is_dir():
        return []
    return sorted(p.name for p in memo.iterdir() if p.name.startswith(table.name + "."))


def memo_entry(table):
    """The name of the memo entry of the table's current bytes."""
    digest = hashlib.sha256(table.read_bytes()).hexdigest()
    return f"{table.name}.{digest}.v{data_io._MEMO_VERSION}.npy"


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
        damage(trace, trace.parent / data_io.MEMO_DIR / old[0])
        listing = sorted(trace.parent.rglob("*"))
        result = represent(data, tmp_path / "out")
        # The same command on a copy without the memo parses every table.
        clean = tmp_path / "clean"
        shutil.copytree(data, clean, ignore=shutil.ignore_patterns(data_io.MEMO_DIR))
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
            rows = np.load(trace.parent / data_io.MEMO_DIR / old[0], allow_pickle=False)
            assert rows.dtype == np.float64
            np.testing.assert_array_equal(rows, read_table(clean / "traces" / trace.name).rows)
        elif outcome == "blocked":
            assert (trace.parent / data_io.MEMO_DIR).read_text() == "not a directory\n"
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
            assert not list((tmp_path / run).rglob(data_io.MEMO_DIR))


SUMMARY_KEYS = {
    (): ["format_version", "tag", "targets", "dataset_hash", "representation", "model",
         "train", "split", "folds", "mean", "std", "evaluation"],
    ("mean",): ["ccc_mu", "sda_sigma"],
    ("std",): ["ccc_sigma"],
    ("split",): ["mode", "k"],
    ("folds", 0): ["fold", "metrics"],
}


class TestOutputDir:
    """An ``--out`` that is a file, or lies under one, exits 2 and creates nothing."""

    @pytest.mark.parametrize("command", ["synth", "represent", "train-eval", "report"])
    @pytest.mark.parametrize("nested", [False, True])
    def test_file_in_the_way_exits_2(self, workspace, runs, tmp_path, command, nested):
        blocker = tmp_path / "afile"
        blocker.write_text("keep\n")
        out = blocker / "sub" if nested else blocker
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(FAST_SYNTH))
        manifest = workspace / "data" / "manifest.json"
        args = {"synth": ["synth", "--config", cfg],
                "represent": ["represent", "--manifest", manifest, "--tag", "I"],
                "train-eval": ["train-eval", "--manifest", manifest, "--tag", "I",
                               "--target", "mu"],
                "report": ["report", runs / "I"]}[command]
        result = run_cli(args + ["--out", out])
        assert result.exit_code == 2, result.output
        expected = "a parent is not a directory" if nested else "exists and is not a directory"
        assert f"error: output directory {out}: {expected}" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "synth.json"]
        assert blocker.read_text() == "keep\n"

    def test_synth_names_a_blocked_subdirectory(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(FAST_SYNTH))
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "traces").write_text("")
        result = run_cli(["synth", "--config", cfg, "--out", tmp_path / "out"])
        assert result.exit_code == 2, result.output
        assert f"error: output directory {tmp_path / 'out' / 'traces'}: exists" in result.output


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_new_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
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
    for path in (trace, trace.parent / data_io.MEMO_DIR / memo_entry(trace), manifest,
                 tmp_path / "rep" / "I_item000.csv", tmp_path / "run" / "summary.json",
                 tmp_path / "run" / "fold_00_mu.ckpt"):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path


@st.composite
def summary_mutations(draw):
    """(site, key, mutation, value): one edit of one summary.json field."""
    site = draw(st.sampled_from(sorted(SUMMARY_KEYS, key=len)))
    key = draw(st.sampled_from(SUMMARY_KEYS[site]))
    mutation = draw(st.sampled_from(["drop", "set"]))
    value = draw(WRONG_VALUES | st.sampled_from(["I", "O_I", "mu", "k_fold_grouped"]))
    return site, key, mutation, value


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

    def test_failed_write_keeps_earlier_report(self, runs, tmp_path, monkeypatch):
        out = tmp_path / "rep"
        assert run_cli(["report", runs / "I", "--out", out]).exit_code == 0
        before = {name: (out / name).read_bytes() for name in ("report.txt", "report.json")}

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        result = run_cli(["report", runs / "I", runs / "O_G", "--out", out])
        assert result.exit_code == 2, result.output
        assert f"error: {out / 'report.txt'}: cannot write: disk full" in result.output
        assert {name: (out / name).read_bytes() for name in before} == before
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "report.txt"]

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
         "split: expected"),
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
            for dirs in ([out], [runs / "I", out]):
                result = run_cli(["report", *dirs, "--out", os.path.join(out, "rep")])
                assert result.exception is None or isinstance(result.exception, SystemExit), \
                    result.output
                assert result.exit_code == 0 or (
                    result.exit_code == 5 and result.output.startswith(f"error: {path}: ")), \
                    result.output

