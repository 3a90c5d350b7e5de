"""End-to-end acceptance gate.

Each numbered check prints a single PASS/FAIL line (visible with
``pytest -s`` or on failure) and enforces its own runtime budget.
Run with ``pytest tests/test_acceptance.py``.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import gradient_check
from scipy.optimize import minimize
from scipy.stats import beta as beta_dist

from ambitrace.cli import main
from ambitrace.data_io import (
    DatasetConfig,
    ExperimentManifest,
    ItemEntry,
    ModelConfig,
    RepresentationConfig,
    SplitSpec,
    TrainConfig,
)
from ambitrace.dataset import (
    SynthConfig,
    prepare_item,
    synth_generate,
    write_feature_table,
    write_trace_table,
)
from ambitrace.metrics import ccc, sda
from ambitrace.representations import (
    GAUSSIAN,
    fit_beta,
    fit_gaussian,
    individual_ordinal,
    interval_representation,
)
from ambitrace.traces import central_difference


def _write_item(tmp_path, name, n_samples, period, n_windows, dim=4):
    write_trace_table(tmp_path / f"{name}_traces.csv", ["a", "b"], np.zeros((2, n_samples)),
                      period)
    write_feature_table(tmp_path / f"{name}_features.csv", name, np.zeros((n_windows, dim)),
                        "features")
    return ItemEntry(item_id=name, group="g0",
                     trace_file=f"{name}_traces.csv",
                     feature_file=f"{name}_features.csv")


@contextmanager
def criterion(number, label, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance {number}] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"{label} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"[acceptance {number}] {label}: PASS ({elapsed:.1f}s)")


def ccc_oracle(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    vx = sum((a - mx) ** 2 for a in x) / n
    vy = sum((b - my) ** 2 for b in y) / n
    denom = vx + vy + (mx - my) ** 2
    return 0.0 if denom < 1e-12 else 2.0 * cov / denom


def sda_oracle(x, y):
    total = 0
    for t in range(1, len(x)):
        dx, dy = x[t] - x[t - 1], y[t] - y[t - 1]
        sx = 0 if dx == 0 else math.copysign(1, dx)
        sy = 0 if dy == 0 else math.copysign(1, dy)
        total += 1 if sx == sy else -1
    return total / (len(x) - 1)


def test_metric_oracles():
    with criterion(1, "metric oracles", budget_s=5.0):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            x = rng.normal(size=n)
            y = rng.integers(-2, 3, size=n).astype(float)
            assert ccc(x, y) == pytest.approx(ccc_oracle(list(x), list(y)), abs=1e-12)
            assert sda(x, y) == pytest.approx(sda_oracle(list(x), list(y)), abs=1e-12)
        assert ccc([1, 2, 3], [2, 3, 4]) == pytest.approx(4.0 / 7.0, abs=1e-15)
        assert sda([1, 2, 3], [3, 2, 1]) == -1.0


def _beta_optimizer_oracle(samples):
    def neg_ll(p):
        a, b = np.exp(p)
        return -np.sum(beta_dist.logpdf(samples, a, b))

    res = minimize(neg_ll, x0=[0.0, 0.0], method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000})
    return np.exp(res.x)


def test_distribution_fits():
    with criterion(2, "distribution fits", budget_s=30.0):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=50) * rng.uniform(0.5, 3.0)
            d = fit_gaussian(x)
            assert d.mu == pytest.approx(x.mean(), abs=1e-12)
            assert d.sigma == pytest.approx(x.std(), abs=1e-12)
        for a, b in [(2.0, 5.0), (0.8, 0.8), (6.0, 2.0)]:
            samples = np.random.default_rng(int(a * 10 + b)).beta(a, b, size=10_000)
            fit = fit_beta(samples, (0.0, 1.0))
            fa, fb = fit.alpha, fit.beta
            assert fa == pytest.approx(a, rel=0.05)
            assert fb == pytest.approx(b, rel=0.05)
            oa, ob = _beta_optimizer_oracle(np.clip(samples, 1e-6, 1 - 1e-6))
            assert fa == pytest.approx(oa, rel=1e-3)
            assert fb == pytest.approx(ob, rel=1e-3)


def test_differencing():
    with criterion(3, "central differencing"):
        rng = np.random.default_rng(2)
        for _ in range(20):
            slope, intercept = rng.normal(size=2)
            n = int(rng.integers(2, 30))
            line = slope * np.arange(n) + intercept
            np.testing.assert_allclose(central_difference(line), slope, atol=1e-12)
        for _ in range(100):
            x, y = rng.normal(size=(2, 15))
            a, b = rng.normal(size=2)
            combined = central_difference(a * x + b * y)
            parts = a * central_difference(x) + b * central_difference(y)
            np.testing.assert_allclose(combined, parts, atol=1e-12)


def _scenario_spreads(scenario, seed):
    cfg = SynthConfig(items=4, groups=4, annotators=6, windows=19,
                      trend_amplitude=0.1, offset_std=0.3, noise_std=0.005,
                      scenario=scenario, seed=seed)
    interval_sigma, ordinal_sigma = [], []
    for item in synth_generate(cfg):
        rep = interval_representation(item.trace_set, GAUSSIAN, neighbor_radius=1)
        interval_sigma.append(rep.sigma.mean())
        ordinal_sigma.append(individual_ordinal(item.trace_set, 1).sigma.mean())
    return np.mean(interval_sigma), np.mean(ordinal_sigma)


def test_scenario_contrast():
    # Annotators who share a trend but disagree on absolute level must show
    # high interval spread and low gradient spread; annotators whose trends
    # conflict must show the opposite, by at least 2x either way.
    with criterion(4, "scenario spread contrast", budget_s=10.0):
        for seed in range(10):
            int_a, ord_a = _scenario_spreads("consistent_trend", seed)
            int_b, ord_b = _scenario_spreads("inconsistent_trend", seed)
            assert int_a > 2.0 * int_b, f"seed {seed}: {int_a:.4f} vs {int_b:.4f}"
            assert ord_b > 2.0 * ord_a, f"seed {seed}: {ord_b:.4f} vs {ord_a:.4f}"


def test_gradient_check():
    with criterion(5, "analytic gradients", budget_s=60.0):
        errs = [gradient_check(seed=s) for s in range(20)]
        assert max(errs) < 1e-4, f"max relative error {max(errs):.2e}"


E2E_SYNTH = {
    "items": 30,
    "groups": 30,
    "annotators": 5,
    "windows": 19,
    "seed": 20,
    "split": {"k": 10, "seed": 20},
    "train": {"max_epochs": 150},
}


def _run_chain(root):
    """synth -> represent (all tags) -> train-eval (all tags) -> report."""
    runner = CliRunner()
    cfg_path = root / "synth.json"
    cfg_path.write_text(json.dumps(E2E_SYNTH))
    data = root / "data"
    result = runner.invoke(main, ["synth", "--config", str(cfg_path),
                                  "--out", str(data)])
    assert result.exit_code == 0, result.output
    manifest = data / "manifest.json"
    run_dirs = []
    for tag in ("I", "O_I", "O_G"):
        result = runner.invoke(main, ["represent", "--manifest", str(manifest),
                                      "--tag", tag, "--out", str(root / f"rep_{tag}")])
        assert result.exit_code == 0, result.output
        out = root / f"run_{tag}"
        result = runner.invoke(main, ["train-eval", "--manifest", str(manifest),
                                      "--tag", tag, "--out", str(out)])
        assert result.exit_code == 0, result.output
        run_dirs.append(out)
    report_dir = root / "report"
    result = runner.invoke(main, ["report", *map(str, run_dirs),
                                  "--out", str(report_dir)])
    assert result.exit_code == 0, result.output
    return report_dir


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory):
    """The synthetic pipeline executed twice from the same configuration."""
    roots = [tmp_path_factory.mktemp(f"e2e_{i}") for i in range(2)]
    start = time.perf_counter()
    reports = [_run_chain(root) for root in roots]
    elapsed = time.perf_counter() - start
    return roots, reports, elapsed


def test_end_to_end_synthetic_run(full_runs):
    roots, reports, elapsed = full_runs
    with criterion(6, "end-to-end synthetic run"):
        # budget covers a single chain; the fixture ran two for the
        # determinism check below
        assert elapsed / 2 < 15 * 60, f"single run took {elapsed / 2:.0f}s"
        summary = json.loads((roots[0] / "run_I" / "summary.json").read_text())
        assert summary["mean"]["ccc_mu"] > 0.7, summary["mean"]
        table = (reports[0] / "report.txt").read_text().splitlines()
        assert len(table) == 4  # header + one row per representation
        assert [row.split()[0] for row in table[1:]] == ["I", "O_I", "O_G"]
        header = table[0]
        for column in ("CCC mu", "CCC sigma", "SDA mu", "SDA sigma"):
            assert column in header


def test_end_to_end_determinism(full_runs):
    _, reports, _ = full_runs
    with criterion(7, "byte-identical repeat"):
        for name in ("report.txt", "report.json"):
            assert (reports[0] / name).read_bytes() == (reports[1] / name).read_bytes()


def test_pipeline_constants(tmp_path):
    with criterion(8, "dataset profile constants"):
        # 40 ms sampling, 3 s windows, 4 s reaction-delay shift
        item = _write_item(tmp_path, "profile_a", 250, 0.04, 2)
        manifest = ExperimentManifest(
            dataset=DatasetConfig(native_period=0.04, window_length=3.0,
                                  delay_offset=4.0, bounds=(-1.0, 1.0),
                                  items=[item]),
            representation=RepresentationConfig("beta_mapped"),
            model=ModelConfig(), train=TrainConfig(), split=SplitSpec(), base_dir=str(tmp_path),
        )
        assert manifest.dataset.samples_per_window == 75

        # 250 ms sampling, 3 s windows, first 19 windows kept
        item = _write_item(tmp_path, "profile_b", 21 * 12, 0.25, 21)
        manifest = ExperimentManifest(
            dataset=DatasetConfig(native_period=0.25, window_length=3.0,
                                  keep_first=19, items=[item]),
            representation=RepresentationConfig("gaussian"),
            model=ModelConfig(), train=TrainConfig(), split=SplitSpec(), base_dir=str(tmp_path),
        )
        assert manifest.dataset.samples_per_window == 12
        trace_set, feats = prepare_item(manifest, item)
        assert trace_set.window_count == 19
        assert feats.shape[0] == 19
