"""Checks of the benchmark itself (about two minutes on two cores).

    python3 -m pytest perfbench/selftest.py -q

Named so that a plain ``pytest`` run of the repository does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    for copy in ("a", "b"):
        workload.generate(5, tmp_path / copy)
    assert run.digest_tree(tmp_path / "a") == run.digest_tree(tmp_path / "b")
    workload.generate(6, tmp_path / "c")
    assert run.digest_tree(tmp_path / "a") != run.digest_tree(tmp_path / "c")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_run_passes_every_output_check(name):
    proc, result = bench("--workload", name, "--seed", 3, "--seconds", 1, "--trace", 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_repeat_counts_and_outputs():
    # Each traced run also compares the traced outputs' digest with the
    # untraced repetition's, so a pass means the digests were identical.
    counts = []
    for _ in range(2):
        proc, result = bench("--workload", "ingest_native", "--seed", 4, "--seconds", 1,
                             "--trace", 1)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] != "s" and k != "hot_layer.share"})
    assert counts[0] == counts[1]
    assert counts[0]["data_io.load_trace_table.rows"] > 0


def _write_rep(path, names, columns):
    lines = ["# format_version: 1", ",".join(["window_index", *names])]
    lines += [",".join([str(i)] + [repr(float(c[i])) for c in columns])
              for i in range(len(columns[0]))]
    path.write_text("\n".join(lines) + "\n")


def test_check_rejects_a_wrong_output(tmp_path):
    """Tables that match the oracle at every probe pass; one value off by
    1e-6 at one probe fails exactly once."""
    inputs = workloads.generate_ingest_native(2, tmp_path / "data")

    def write_outputs(out, nudge):
        for sub in ("rep_I", "rep_O_G"):
            (out / sub).mkdir(parents=True)
        for item_id in inputs.item_ids:
            mu = np.zeros(inputs.windows)
            sigma = np.full(inputs.windows, 0.1)
            for probe_item, n, (mean, std) in inputs.probes:
                if probe_item == item_id:
                    mu[n], sigma[n] = mean, std
            if item_id == inputs.probes[0][0]:
                mu[inputs.probes[0][1]] += nudge
            _write_rep(out / "rep_I" / f"I_{item_id}.csv", ["mu", "sigma"], [mu, sigma])
            _write_rep(out / "rep_O_G" / f"O_G_{item_id}.csv", ["dmu", "dsigma"],
                       [np.gradient(mu), np.gradient(sigma)])

    write_outputs(tmp_path / "good", 0.0)
    assert workloads.check_ingest_native(inputs, tmp_path / "good") == []
    write_outputs(tmp_path / "bad", 1e-6)
    errors = workloads.check_ingest_native(inputs, tmp_path / "bad")
    assert len(errors) == 1 and f"window {inputs.probes[0][1]}:" in errors[0]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", "train_eval", "--seed", 1, "--seconds", 1,
                         "--trace", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert result is None
