"""Seeded inputs, command sequences and output checks for each workload.

Inputs are written by this module's own writer, following the table format
the README documents (``#``-prefixed header lines, comma-separated columns,
17 significant digits), so a change to the program's writers cannot change
what the benchmark feeds it.  Every check compares an output file against an
oracle computed here from the generated arrays, never against the program's
own code, except that checkpoints must reload through ``load_checkpoint``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

FORMAT_VERSION = 1
TAGS = ("I", "O_I", "O_G")


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _write_text(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace_table(path, period, values):
    """``time_s`` plus one column per annotator; ``values`` is (samples, annotators)."""
    lines = [f"# format_version: {FORMAT_VERSION}"]
    lines.append(",".join(["time_s"] + [f"ann{m}" for m in range(values.shape[1])]))
    for i, row in enumerate(values.tolist()):
        lines.append(",".join([_fmt(i * period)] + [_fmt(v) for v in row]))
    _write_text(path, lines)


def write_feature_table(path, item_id, matrix):
    lines = [
        f"# format_version: {FORMAT_VERSION}",
        f"# item_id: {item_id}",
        "# feature_name: perfbench",
        ",".join(["window_index"] + [f"f{j:03d}" for j in range(matrix.shape[1])]),
    ]
    for i, row in enumerate(matrix.tolist()):
        lines.append(",".join([str(i)] + [_fmt(v) for v in row]))
    _write_text(path, lines)


def read_table(path):
    """(header metadata, column name -> array) of a ``#``-headed CSV table."""
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return meta, {name: data[:, j] for j, name in enumerate(header)}


@dataclass
class Inputs:
    """One workload's generated dataset and what its checks need to know."""

    manifest: str
    item_ids: list
    windows: int
    # (item_id, window, expected values) for the output checks.
    probes: list = field(default_factory=list)


def _write_dataset(data_dir, seed, items, dataset, sections):
    """Write trace/feature tables and the manifest; ``items`` holds
    (item_id, group, raw values, features) tuples."""
    os.makedirs(os.path.join(data_dir, "traces"), exist_ok=True)
    os.makedirs(os.path.join(data_dir, "features"), exist_ok=True)
    entries = []
    for item_id, group, values, features in items:
        trace_rel = os.path.join("traces", f"{item_id}.csv")
        feat_rel = os.path.join("features", f"{item_id}.csv")
        write_trace_table(os.path.join(data_dir, trace_rel), dataset["native_period"], values)
        write_feature_table(os.path.join(data_dir, feat_rel), item_id, features)
        entries.append({"item_id": item_id, "group": group,
                        "trace_file": trace_rel, "feature_file": feat_rel})
    doc = {"format_version": FORMAT_VERSION, "seed": seed,
           "dataset": dict(dataset, items=entries), **sections}
    path = os.path.join(data_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _smooth_latent(rng, n, components, amplitude, min_cycles, max_cycles):
    t = np.arange(n, dtype=float)
    latent = np.zeros(n)
    for _ in range(components):
        cycles = rng.uniform(min_cycles, max_cycles)
        latent += rng.uniform(0.5, 1.0) * np.sin(2 * np.pi * cycles * t / n
                                                 + rng.uniform(0, 2 * np.pi))
    return latent * (amplitude / latent.std())


# --- train_eval ---------------------------------------------------------------

TRAIN_EVAL_EPOCHS = 12
TRAIN_EVAL_FOLDS = 10


def generate_train_eval(seed, data_dir):
    """The acceptance chain's synthetic shape: 30 items in 30 groups,
    5 annotators, 19 windows, 8 features that affinely encode the latent
    trend, annotators sharing the trend with personal offsets."""
    rng = np.random.default_rng(seed)
    n_items, n_ann, n_win, dim = 30, 5, 19, 8
    projection = rng.normal(0.0, 1.0, size=dim)
    bias = rng.normal(0.0, 0.1, size=dim)
    items = []
    for idx in range(n_items):
        latent = _smooth_latent(rng, n_win, 3, 0.6, 0.5, 2.0)
        offsets = rng.normal(0.0, 0.1, size=n_ann)
        values = latent[:, None] + offsets[None, :] + rng.normal(0.0, 0.02, (n_win, n_ann))
        features = (latent[:, None] * projection[None, :] + bias[None, :]
                    + rng.normal(0.0, 0.01, (n_win, dim)))
        items.append((f"item{idx:03d}", f"g{idx:02d}", values, features))
    dataset = {"name": "perfbench_train_eval", "native_period": 1.0, "window_length": 1.0,
               "delay_offset": 0.0, "keep_first": n_win, "bounds": None}
    sections = {
        "representation": {"family": "gaussian", "neighbor_radius": 1},
        "model": {"hidden_dim": 32, "seed": seed},
        "train": {"learning_rate": 1e-3, "weight_decay": 1e-4,
                  "max_epochs": TRAIN_EVAL_EPOCHS, "segment_length": 19,
                  "batch_segments": 8, "target_margin": 0.9},
        "split": {"mode": "k_fold_grouped", "k": TRAIN_EVAL_FOLDS, "seed": seed},
    }
    manifest = _write_dataset(data_dir, seed, items, dataset, sections)
    return Inputs(manifest=manifest, item_ids=[it[0] for it in items], windows=n_win)


def commands_train_eval(inputs, out_dir):
    run = os.path.join(out_dir, "run_I")
    return [
        ("train-eval", ["train-eval", "--manifest", inputs.manifest, "--tag", "I",
                        "--target", "both", "--out", run, "--jobs", "1"]),
        ("report", ["report", run, "--out", os.path.join(out_dir, "report")]),
    ]


def work_train_eval(inputs):
    """Model epochs trained: folds x targets x epochs."""
    return TRAIN_EVAL_FOLDS * 2 * TRAIN_EVAL_EPOCHS


def check_train_eval(inputs, out_dir):
    from ambitrace.model import load_checkpoint

    errors = []
    run = os.path.join(out_dir, "run_I")
    with open(os.path.join(run, "summary.json")) as fh:
        summary = json.load(fh)
    if not summary["mean"]["ccc_mu"] > 0.7:
        errors.append(f"ccc_mu {summary['mean']['ccc_mu']:.4f} is not above 0.7")
    for fold in range(TRAIN_EVAL_FOLDS):
        if not os.path.isfile(os.path.join(run, f"fold_{fold:02d}.json")):
            errors.append(f"fold_{fold:02d}.json missing")
        for target in ("mu", "sigma"):
            path = os.path.join(run, f"fold_{fold:02d}_{target}.ckpt")
            try:
                model = load_checkpoint(path)
            except (OSError, ValueError, KeyError) as exc:
                errors.append(f"{os.path.basename(path)} does not reload: {exc}")
                continue
            if not all(np.all(np.isfinite(w)) for w in model.params.values()):
                errors.append(f"{os.path.basename(path)} holds non-finite weights")
    return errors


def quality_train_eval(out_dir):
    """Fold means of CCC and SDA from summary.json."""
    with open(os.path.join(out_dir, "run_I", "summary.json")) as fh:
        mean = json.load(fh)["mean"]
    return {k: mean[k] for k in ("ccc_mu", "ccc_sigma", "sda_mu", "sda_sigma")}


# --- represent_beta -------------------------------------------------------------

BETA_ITEMS, BETA_WINDOWS, BETA_ANNOTATORS = 4, 2000, 5


def generate_represent_beta(seed, data_dir):
    """Few long bounded items sampled at the window rate, so windowing is a
    no-op and the per-window Beta fits carry the cost."""
    rng = np.random.default_rng(seed)
    items, raw = [], {}
    for idx in range(BETA_ITEMS):
        item_id = f"item{idx:03d}"
        latent = _smooth_latent(rng, BETA_WINDOWS, 6, 0.8, 5.0, 60.0)
        offsets = rng.normal(0.0, 0.15, size=BETA_ANNOTATORS)
        noise = rng.normal(0.0, 0.15, (BETA_WINDOWS, BETA_ANNOTATORS))
        # Strictly inside the bounds and never clipped: a pool of identical
        # clamped values has no Beta fit.
        values = 0.9 * np.tanh(latent[:, None] + offsets[None, :] + noise)
        features = np.stack([latent, np.gradient(latent)], axis=1)
        items.append((item_id, f"g{idx:02d}", values, features))
        raw[item_id] = values
    dataset = {"name": "perfbench_represent_beta", "native_period": 1.0,
               "window_length": 1.0, "delay_offset": 0.0, "keep_first": None,
               "bounds": [-1.0, 1.0]}
    sections = {"representation": {"family": "beta_mapped", "neighbor_radius": 1},
                "model": {}, "train": {}, "split": {"mode": "k_fold_grouped", "k": 2,
                                                   "seed": seed}}
    manifest = _write_dataset(data_dir, seed, items, dataset, sections)
    probes = _probe_windows(rng, raw, BETA_WINDOWS, per_item=2)
    return Inputs(manifest=manifest, item_ids=list(raw), windows=BETA_WINDOWS,
                  probes=[(i, n, _beta_oracle(_pooled(raw[i], n))) for i, n in probes])


def _probe_windows(rng, raw, windows, per_item):
    """Item/window pairs to check: both sequence ends plus random interior windows."""
    ids = sorted(raw)
    picks = [(ids[0], 0), (ids[-1], windows - 1)]
    for item_id in ids:
        picks += [(item_id, int(n)) for n in rng.integers(1, windows - 1, size=per_item)]
    return picks


def _pooled(windowed, n, radius=1):
    """Every annotator's value in windows n-radius..n+radius, truncated at the ends."""
    lo, hi = max(0, n - radius), min(len(windowed) - 1, n + radius)
    return [float(v) for v in windowed[lo:hi + 1].T.ravel()]


def _beta_oracle(samples, lo=-1.0, hi=1.0):
    """Beta (alpha, beta) by Nelder-Mead on the log-likelihood, on the samples
    mapped to [0, 1] and clamped 1e-6 from the edges."""
    from scipy.optimize import minimize
    from scipy.stats import beta as beta_dist

    u = np.clip((np.asarray(samples) - lo) / (hi - lo), 1e-6, 1 - 1e-6)

    def neg_ll(p):
        return -np.sum(beta_dist.logpdf(u, *np.exp(p)))

    res = minimize(neg_ll, x0=[0.0, 0.0], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
    return tuple(float(v) for v in np.exp(res.x))


def commands_represent(inputs, out_dir):
    return [(f"represent {tag}", ["represent", "--manifest", inputs.manifest,
                                  "--tag", tag, "--out", os.path.join(out_dir, f"rep_{tag}")])
            for tag in TAGS]


def work_represent(inputs):
    """Item-windows represented, summed over the three tags."""
    return len(TAGS) * len(inputs.item_ids) * inputs.windows


def _check_group_ordinal(inputs, out_dir, errors):
    """O_G columns must equal the central difference of the I columns."""
    for item_id in inputs.item_ids:
        _, rep_i = read_table(os.path.join(out_dir, "rep_I", f"I_{item_id}.csv"))
        _, rep_g = read_table(os.path.join(out_dir, "rep_O_G", f"O_G_{item_id}.csv"))
        for src, dst in (("mu", "dmu"), ("sigma", "dsigma")):
            if len(rep_i[src]) != inputs.windows:
                errors.append(f"I_{item_id}: {len(rep_i[src])} windows, "
                              f"expected {inputs.windows}")
            elif not np.allclose(rep_g[dst], np.gradient(rep_i[src]), rtol=1e-12, atol=1e-15):
                errors.append(f"O_G_{item_id}: {dst} is not the gradient of I {src}")


def _probed(inputs, out_dir):
    """(item_id, window, expected values, I table columns) for every probe."""
    tables = {}
    for item_id, n, expected in inputs.probes:
        if item_id not in tables:
            tables[item_id] = read_table(os.path.join(out_dir, "rep_I", f"I_{item_id}.csv"))[1]
        yield item_id, n, expected, tables[item_id]


def check_represent_beta(inputs, out_dir):
    errors = []
    _check_group_ordinal(inputs, out_dir, errors)
    for item_id, n, (oracle_a, oracle_b), rep in _probed(inputs, out_dir):
        a, b = rep["alpha"][n], rep["beta"][n]
        if not (math.isclose(a, oracle_a, rel_tol=1e-3)
                and math.isclose(b, oracle_b, rel_tol=1e-3)):
            errors.append(f"I_{item_id} window {n}: Beta ({a:.6g}, {b:.6g}) vs "
                          f"Nelder-Mead ({oracle_a:.6g}, {oracle_b:.6g})")
        mean01 = a / (a + b)
        std01 = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
        if not (math.isclose(rep["mu"][n], -1.0 + 2.0 * mean01, rel_tol=1e-9, abs_tol=1e-12)
                and math.isclose(rep["sigma"][n], 2.0 * std01, rel_tol=1e-9)):
            errors.append(f"I_{item_id} window {n}: mu/sigma disagree with (alpha, beta)")
    return errors


# --- ingest_native ----------------------------------------------------------------

NATIVE_ITEMS, NATIVE_WINDOWS, NATIVE_ANNOTATORS = 12, 110, 5
NATIVE_PERIOD, NATIVE_WINDOW_S, NATIVE_DELAY_S = 0.04, 3.0, 4.0
NATIVE_PER_WINDOW, NATIVE_DELAY = 75, 100


def generate_ingest_native(seed, data_dir):
    """The paper's dataset profile: 40 ms samples, 3 s windows, a 4 s
    reaction delay, bounds (-1, 1); many moderate items."""
    rng = np.random.default_rng(seed)
    n_samples = NATIVE_DELAY + NATIVE_WINDOWS * NATIVE_PER_WINDOW
    items, raw = [], {}
    for idx in range(NATIVE_ITEMS):
        item_id = f"item{idx:03d}"
        latent = _smooth_latent(rng, n_samples, 4, 0.5, 2.0, 20.0)
        offsets = rng.normal(0.0, 0.1, size=NATIVE_ANNOTATORS)
        noise = rng.normal(0.0, 0.05, (n_samples, NATIVE_ANNOTATORS))
        values = np.clip(latent[:, None] + offsets[None, :] + noise, -0.99, 0.99)
        windowed = values[NATIVE_DELAY:].reshape(NATIVE_WINDOWS, NATIVE_PER_WINDOW,
                                                 NATIVE_ANNOTATORS).mean(axis=1)
        features = np.column_stack([windowed.mean(axis=1),
                                    rng.normal(0.0, 1.0, (NATIVE_WINDOWS, 3))])
        items.append((item_id, f"g{idx % 5:02d}", values, features))
        raw[item_id] = values
    dataset = {"name": "perfbench_ingest_native", "native_period": NATIVE_PERIOD,
               "window_length": NATIVE_WINDOW_S, "delay_offset": NATIVE_DELAY_S,
               "keep_first": None, "bounds": [-1.0, 1.0]}
    sections = {"representation": {"family": "gaussian", "neighbor_radius": 1},
                "model": {}, "train": {}, "split": {"mode": "k_fold_grouped", "k": 5,
                                                   "seed": seed}}
    manifest = _write_dataset(data_dir, seed, items, dataset, sections)
    probes = []
    for item_id, n in _probe_windows(rng, raw, NATIVE_WINDOWS, per_item=1):
        pooled = _pooled(_window_means(raw[item_id]), n)
        mean = math.fsum(pooled) / len(pooled)
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in pooled) / len(pooled))
        probes.append((item_id, n, (mean, std)))
    return Inputs(manifest=manifest, item_ids=list(raw), windows=NATIVE_WINDOWS,
                  probes=probes)


def _window_means(values):
    """Drop the delay samples, then average each 75-sample window, per annotator."""
    out = np.empty((NATIVE_WINDOWS, values.shape[1]))
    for n in range(NATIVE_WINDOWS):
        start = NATIVE_DELAY + n * NATIVE_PER_WINDOW
        for m in range(values.shape[1]):
            out[n, m] = math.fsum(values[start:start + NATIVE_PER_WINDOW, m]) / NATIVE_PER_WINDOW
    return out


def check_ingest_native(inputs, out_dir):
    errors = []
    _check_group_ordinal(inputs, out_dir, errors)
    for item_id, n, (mean, std), rep in _probed(inputs, out_dir):
        mu, sigma = rep["mu"][n], rep["sigma"][n]
        if not (math.isclose(mu, mean, rel_tol=1e-9, abs_tol=1e-12)
                and math.isclose(sigma, std, rel_tol=1e-9, abs_tol=1e-12)):
            errors.append(f"I_{item_id} window {n}: (mu, sigma) = ({mu:.12g}, {sigma:.12g}) "
                          f"vs pooled raw ({mean:.12g}, {std:.12g})")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    commands: object
    check: object
    work: object
    work_unit: str
    # Label prefix of the commands that do the work counted by ``work``.
    work_command: str
    # Layer (a span name, or a module prefix ending in ".") whose self time
    # the workload was built to be dominated by.
    hot_layer: str
    # Model quality figures read from the outputs, printed with the timings.
    quality: object = None


WORKLOADS = {
    "train_eval": Workload("train_eval", generate_train_eval, commands_train_eval,
                           check_train_eval, work_train_eval, "model_epochs", "train-eval",
                           "model.", quality_train_eval),
    "represent_beta": Workload("represent_beta", generate_represent_beta,
                               commands_represent, check_represent_beta, work_represent,
                               "windows", "represent", "representations.fit_beta"),
    "ingest_native": Workload("ingest_native", generate_ingest_native, commands_represent,
                              check_ingest_native, work_represent, "windows",
                              "represent", "data_io.load_trace_table"),
}
