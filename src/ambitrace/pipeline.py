"""End-to-end orchestration: synth, represent, train-eval and report merging.

The CLI is a thin wrapper over these functions; everything here is
deterministic given the manifest seed.  Outputs go only into the caller's
output directory; the one other write is ``data_io.read_table``'s memo of
parsed input tables, in a ``data_io.MEMO_DIR`` directory beside them.
"""

from __future__ import annotations

import numbers
import os
import reprlib

import numpy as np

from . import data_io, metrics, representations
from .data_io import (
    FORMAT_VERSION,
    SPLIT_MODES,
    DataError,
    ExperimentManifest,
    ModelConfig,
    ReportError,
    SplitSpec,
    SynthConfig,
    TrainConfig,
    _atomic_write,
    dataset_digest,
    make_output_dir,
    make_splits,
    parse_section,
    prepare_item,
    write_json,
    write_table,
)
from .representations import (
    TAG_GROUP,
    TAG_INDIVIDUAL,
    TAG_INTERVAL,
    group_ordinal,
    individual_ordinal,
    interval_representation,
    write_representation,
)

TAGS = (TAG_INTERVAL, TAG_INDIVIDUAL, TAG_GROUP)
TARGETS = ("mu", "sigma")

MANIFEST_EXTRA_KEYS = ("representation", "model", "train", "split")


def compute_representation(trace_set, tag, family, neighbor_radius):
    """The requested representation sequence for one item."""
    if tag == TAG_INTERVAL:
        return interval_representation(trace_set, family, neighbor_radius)
    if tag == TAG_INDIVIDUAL:
        return individual_ordinal(trace_set, neighbor_radius)
    if tag == TAG_GROUP:
        return group_ordinal(interval_representation(trace_set, family, neighbor_radius))
    raise ValueError(f"unknown representation tag {tag!r}")


# --- synth ------------------------------------------------------------------

SYNTH_MANIFEST_DEFAULTS = {
    "representation": {"family": "gaussian", "neighbor_radius": 1},
    "model": {"hidden_dim": 32},
    "train": {"learning_rate": 1e-3, "weight_decay": 1e-4, "max_epochs": 300,
              "segment_length": 19, "batch_segments": 8, "target_margin": 0.9},
}


def _synth_manifest(cfg: SynthConfig, extra, entries, base_dir):
    """The manifest of a synth run, every section checked; ``extra`` overrides the defaults."""
    sections = {key: {**defaults, **extra.get(key, {})}
                for key, defaults in SYNTH_MANIFEST_DEFAULTS.items()}
    sections["model"].setdefault("seed", cfg.seed)
    split = {"mode": "k_fold_grouped", "k": min(10, cfg.groups), "seed": cfg.seed,
             **extra.get("split", {})}
    dataset = data_io.DatasetConfig(native_period=1.0, window_length=1.0,
                                    keep_first=cfg.windows, name="synthetic", items=entries)
    return ExperimentManifest(dataset=dataset, **sections, seed=cfg.seed, base_dir=base_dir,
                              split=parse_section("split", split, SplitSpec))


def load_synth_config(path, seed=None):
    """A synth config file as (SynthConfig, embedded manifest sections), checked in full.

    The config is one JSON object: generator fields plus optional
    representation/model/train/split sections; ``seed`` overrides its
    seed.  Any error is a ``DataError`` starting ``config <path>: ``.
    """
    try:
        doc = data_io.read_json(path, "config")
    except DataError as exc:
        raise DataError(f"config {exc}") from exc
    try:
        extra = {k: doc.pop(k) for k in list(doc) if k in MANIFEST_EXTRA_KEYS}
        for key, section in extra.items():
            if not isinstance(section, dict):
                raise DataError(f"{key}: expected a JSON object, got {reprlib.repr(section)}")
        if seed is not None:
            doc["seed"] = seed
        cfg = parse_section("", doc, SynthConfig, also_known=MANIFEST_EXTRA_KEYS)
        _synth_manifest(cfg, extra, [], ".")
    except DataError as exc:
        raise DataError(f"config {path}: {exc}") from exc
    return cfg, extra


def run_synth(cfg: SynthConfig, out_dir, extra=None):
    """Generate a synthetic dataset on disk plus a ready-to-run manifest.

    ``extra`` may override the manifest's representation/model/train/
    split sections.  The manifest is checked before any file is written.
    Returns the manifest path.
    """
    items = data_io.synth_generate(cfg)
    entries = [data_io.ItemEntry(item_id=item.item_id, group=item.group,
                                 trace_file=os.path.join("traces", f"{item.item_id}.csv"),
                                 feature_file=os.path.join("features", f"{item.item_id}.csv"))
               for item in items]
    manifest = _synth_manifest(cfg, extra or {}, entries, out_dir)
    make_output_dir(out_dir)
    for sub in ("traces", "features", "latents"):
        make_output_dir(os.path.join(out_dir, sub))
    for item, entry in zip(items, entries):
        data_io.write_trace_table(manifest.resolve(entry.trace_file), item.trace_set.annotators,
                                  item.trace_set.matrix, manifest.dataset.native_period)
        data_io.write_feature_table(manifest.resolve(entry.feature_file), item.item_id,
                                    item.features, "synthetic")
        write_table(os.path.join(out_dir, "latents", f"{item.item_id}.csv"), {},
                    {"window_index": np.arange(len(item.latent)), "latent": item.latent})
    path = os.path.join(out_dir, "manifest.json")
    data_io.save_manifest(manifest, path)
    return path


# --- represent and train-eval ----------------------------------------------


def _fit_items(manifest: ExperimentManifest, tag, min_windows, command):
    """Read, then check, then fit every item; returns (dataset hash, fitted items).

    Each phase covers every item before the next starts, so the caller
    can create its output after this returns and no bad input or failed
    fit leaves any behind.  Each input file is read once: the dataset hash
    is taken from the bytes the tables are parsed from.  An item needs
    ``min_windows`` windows after alignment and as many feature columns as
    the first item, at least one; ``command`` names the caller in the
    messages.  The fitted items are (item, features, fits), in manifest
    order.  The fits run with numpy's floating-point warnings off: a fit
    that overflows ends in a ``FitError``, which says so in one line.
    """
    items = manifest.dataset.items
    digest = dataset_digest(manifest)
    prepared = [prepare_item(manifest, item, digest) for item in items]
    # Every fold's model takes the first item's feature width.
    width = prepared[0][1].shape[1]
    for item, (trace_set, features) in zip(items, prepared):
        if trace_set.window_count < min_windows:
            # No difference to take and no variance to score.
            raise DataError(f"{manifest.resolve(item.trace_file)}: only one window after "
                            f"alignment; {command} needs at least two")
        if features.shape[1] == 0:
            raise DataError(f"{manifest.resolve(item.feature_file)}: no feature columns")
        if features.shape[1] != width:
            raise DataError(f"{manifest.resolve(item.feature_file)}: {features.shape[1]} "
                            f"feature columns, the first item has {width}")
    family = manifest.representation.get("family", "gaussian")
    radius = manifest.representation.get("neighbor_radius", 1)
    fitted = []
    for item, (trace_set, features) in zip(items, prepared):
        try:
            with np.errstate(all="ignore"):
                fits = compute_representation(trace_set, tag, family, radius)
        except representations.FitError as exc:
            raise representations.FitError(f"item {item.item_id!r}: {exc}") from exc
        fitted.append((item, features, fits))
    return digest.hexdigest(), fitted


def run_represent(manifest: ExperimentManifest, tag, out_dir):
    """Write one representation table per item plus a mean-spread summary."""
    # An interval fit needs one window; a difference needs two.
    source, fitted = _fit_items(manifest, tag, 1 if tag == TAG_INTERVAL else 2,
                               f"represent --tag {tag}")
    make_output_dir(out_dir)
    summary_rows = []
    for item, _, fits in fitted:
        write_representation(
            fits, os.path.join(out_dir, f"{tag}_{item.item_id}.csv"), source_hash=source
        )
        summary_rows.append((item.item_id, float(np.mean(fits.sigma))))
    ids, means = zip(*summary_rows)
    write_table(os.path.join(out_dir, f"summary_{tag}.csv"), {"representation": tag},
                {"item_id": ids, "mean_sigma": means})
    return summary_rows


# --- train-eval -------------------------------------------------------------


def _fold_stacks(n_folds, jobs):
    """The folds trained as one stack each, in fold order.

    Folds 2k and 2k+1 share a stack, which pays the per-pass overhead once
    for both; pairs are formed only while at least ``jobs`` stacks remain,
    so every worker of a pool has one.
    """
    pairs = min(n_folds // 2, max(0, n_folds - jobs))
    return [[2 * k, 2 * k + 1] for k in range(pairs)] + [[k] for k in range(2 * pairs, n_folds)]


def _train_fold(args):
    """Train every target of a stack's folds as one stack, then evaluate each model.

    Returns (fold record, models by target) per fold, in fold order.
    """
    # Imported here, as in run_train_eval: no other command loads the model.
    from .model import predict_stack, train_stack

    (folds, data, targets, model_doc, train_doc) = args
    input_dim = next(iter(data.values()))["features"].shape[1]
    # One model per (fold, target), fold by fold.
    runs = [(fold_idx, train_ids, val_ids, t_idx)
            for fold_idx, train_ids, val_ids in folds for t_idx in range(len(targets))]

    def column(ids, key):
        return [data[i][key] for i in ids]

    models = train_stack(
        [column(train_ids, "features") for _, train_ids, _, _ in runs],
        [column(train_ids, targets[t_idx]) for _, train_ids, _, t_idx in runs],
        [ModelConfig(input_dim=input_dim,
                     **dict(model_doc, seed=model_doc["seed"] + 97 * fold_idx + t_idx))
         for fold_idx, _, _, t_idx in runs],
        TrainConfig(**train_doc),
        [column(val_ids, "features") for _, _, val_ids, _ in runs],
        [column(val_ids, targets[t_idx]) for _, _, val_ids, t_idx in runs],
    )
    results = []
    for k, (fold_idx, _, val_ids) in enumerate(folds):
        fold = {"fold": fold_idx, "val_items": list(val_ids), "best_epoch": {}, "metrics": {},
                "loss_curve": {}}
        fold_models = models[k * len(targets) : (k + 1) * len(targets)]
        # The fold's targets share each validation item's forward pass.
        preds = predict_stack(fold_models, column(val_ids, "features"))
        for t_idx, (target, model) in enumerate(zip(targets, fold_models)):
            fold["best_epoch"][target] = model.best_epoch
            fold["loss_curve"][target] = {"train": model.train_loss, "val": model.val_loss}
            ccc_vals, sda_vals = [], []
            for i, pred in zip(val_ids, preds):
                ccc_vals.append(metrics.ccc(pred[t_idx], data[i][target]))
                sda_vals.append(metrics.sda(pred[t_idx], data[i][target]))
            fold["metrics"][f"ccc_{target}"] = float(np.mean(ccc_vals))
            fold["metrics"][f"sda_{target}"] = float(np.mean(sda_vals))
        results.append((fold, dict(zip(targets, fold_models))))
    return results


def run_train_eval(manifest: ExperimentManifest, tag, targets, out_dir, jobs, seed):
    """Per-fold training and evaluation; writes fold files and a summary.

    Evaluation is computed per validation sequence and averaged across
    sequences within a fold, then mean +/- std across folds.
    """
    # Imported here: the LSTM module costs every other command start-up time.  Imported
    # after the inputs are read, it raised the peak RSS by 0.8 MiB (train_eval inputs).
    from .model import TrainingError, save_checkpoint

    # Built first: a split the items cannot fill reads no table and leaves no --out.
    folds = make_splits([(it.item_id, it.group) for it in manifest.dataset.items],
                        manifest.split)
    # Each item is scored by CCC and SDA, which need two windows.
    source, fitted = _fit_items(manifest, tag, 2, "train-eval")
    make_output_dir(out_dir)
    data = {item.item_id: {"features": features, "mu": fits.mu, "sigma": fits.sigma}
            for item, features, fits in fitted}
    model_doc = dict(manifest.model)
    # --seed replaces the model seed; without it, the manifest seed is the default.
    model_doc["seed"] = seed if seed is not None else model_doc.get("seed", manifest.seed)
    train_doc = dict(manifest.train)
    job_args = [
        ([(idx, *folds[idx]) for idx in stack], data, tuple(targets), model_doc, train_doc)
        for stack in _fold_stacks(len(folds), jobs)
    ]

    # Fold files are written as each stack is handed back, in fold order, so
    # a failure keeps the folds recorded before it on disk.
    fold_records = []

    def _record(results):
        # Called once per stack, so no loop variable keeps a finished
        # stack's models alive while the next one trains.
        for fold, models in results:
            # The loss curves stay in the fold files; the summary keeps the rest.
            fold_records.append({k: v for k, v in fold.items() if k != "loss_curve"})
            write_json(os.path.join(out_dir, f"fold_{fold['fold']:02d}.json"), fold)
            for target, model in models.items():
                save_checkpoint(
                    model, os.path.join(out_dir, f"fold_{fold['fold']:02d}_{target}.ckpt")
                )

    # A pool starts all its workers at once, so it gets no more than there
    # are stacks.
    jobs = min(jobs, len(job_args))
    if jobs > 1:
        # Imported here: multiprocessing costs every other command start-up time.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for results in pool.map(_train_fold, job_args):
                    _record(results)
        except BrokenProcessPool as exc:
            # The pool fails every stack it has not handed back yet.
            lost = sorted(set(range(len(folds))) - {fold["fold"] for fold in fold_records})
            raise TrainingError(f"a worker process was lost; folds "
                                f"{', '.join(map(str, lost))} were not written") from exc
    else:
        for args in job_args:
            _record(_train_fold(args))

    keys = [f"{metric}_{t}" for t in targets for metric in ("ccc", "sda")]
    mean = {k: float(np.mean([f["metrics"][k] for f in fold_records])) for k in keys}
    std = {k: float(np.std([f["metrics"][k] for f in fold_records])) for k in keys}
    summary = {
        "format_version": FORMAT_VERSION,
        "tag": tag,
        "targets": list(targets),
        "dataset_hash": source,
        "dataset_name": manifest.dataset.name,
        "representation": manifest.representation,
        "model": model_doc,
        "train": train_doc,
        "split": {"mode": manifest.split.mode, "k": manifest.split.k,
                  "seed": manifest.split.seed},
        "evaluation": "per-sequence metrics averaged within folds",
        "folds": fold_records,
        "mean": mean,
        "std": std,
    }
    write_json(os.path.join(out_dir, "summary.json"), summary)
    _atomic_write(os.path.join(out_dir, "summary.txt"), render_summary_table([summary]) + "\n")
    return summary


# --- report -----------------------------------------------------------------

REPORT_COLUMNS = ("ccc_mu", "ccc_sigma", "sda_mu", "sda_sigma")
COLUMN_TITLES = {
    "ccc_mu": "CCC mu",
    "ccc_sigma": "CCC sigma",
    "sda_mu": "SDA mu",
    "sda_sigma": "SDA sigma",
}


def _cell(summary, key):
    if key not in summary["mean"]:
        return None
    if summary["split"]["mode"] == "k_fold_grouped" and len(summary["folds"]) > 1:
        return summary["mean"][key], summary["std"][key]
    return summary["mean"][key], None


def render_summary_table(summaries):
    """A row per summary, in the order given, by metric columns; maxima marked with *."""
    cells = {}
    for s in summaries:
        for key in REPORT_COLUMNS:
            cells[(s["tag"], key)] = _cell(s, key)
    maxima = {}
    for key in REPORT_COLUMNS:
        values = [cells[(s["tag"], key)][0] for s in summaries
                  if cells.get((s["tag"], key)) is not None]
        if values:
            maxima[key] = max(values)
    rows = [["Representation"] + [COLUMN_TITLES[k] for k in REPORT_COLUMNS]]
    for s in summaries:
        row = [s["tag"]]
        for key in REPORT_COLUMNS:
            cell = cells.get((s["tag"], key))
            if cell is None:
                row.append("-")
                continue
            mean, std = cell
            text = f"{mean:.3f}" if std is None else f"{mean:.3f}+/-{std:.3f}"
            if len(summaries) > 1 and mean == maxima[key]:
                text = f"*{text}*"
            row.append(text)
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
             for row in rows]
    return "\n".join(lines)


# Runs are comparable only when these agree; the first that differs is named.
PROTOCOL_KEYS = ("dataset_hash", "split", "targets", "representation", "model", "train")


def _load_summary(path):
    """One ``summary.json``, checked for every field ``report`` reads."""
    doc = data_io.read_json(path, "summary", ReportError)
    targets = doc.get("targets")
    valid_targets = (isinstance(targets, list) and targets
                     and all(t in TARGETS for t in targets) and len(set(targets)) == len(targets))
    metric_keys = {f"{m}_{t}" for t in targets for m in ("ccc", "sda")} if valid_targets else ()

    def metrics_dict(value):
        return (isinstance(value, dict) and set(value) == metric_keys
                and all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                        for x in value.values()))

    checks = (
        ("format_version", lambda v: type(v) is int and v == FORMAT_VERSION,
         str(FORMAT_VERSION)),
        ("tag", lambda v: isinstance(v, str) and v in TAGS, f"one of {', '.join(TAGS)}"),
        ("dataset_hash", lambda v: isinstance(v, str), "a string"),
        ("targets", lambda v: valid_targets, f"distinct targets from {', '.join(TARGETS)}"),
        ("split", lambda v: isinstance(v, dict) and v.get("mode") in SPLIT_MODES,
         f"an object with a mode from {', '.join(SPLIT_MODES)}"),
        ("representation", lambda v: isinstance(v, dict), "an object"),
        ("model", lambda v: isinstance(v, dict), "an object"),
        ("train", lambda v: isinstance(v, dict), "an object"),
        ("folds", lambda v: isinstance(v, list) and v and all(isinstance(f, dict) for f in v),
         "a non-empty list of fold records"),
        ("mean", metrics_dict, "a number per metric and target"),
        ("std", metrics_dict, "a number per metric and target"),
    )
    for key, valid, expected in checks:
        if not valid(doc.get(key)):
            raise ReportError(f"{path}: {key}: expected {expected}, "
                              f"got {reprlib.repr(doc.get(key))}")
    return doc


def merge_reports(result_dirs):
    """Load train-eval summaries and check they share one dataset and protocol.

    Every failure is a ``ReportError``.
    """
    paths = [os.path.join(d, "summary.json") for d in result_dirs]
    summaries = []
    for d, path in zip(result_dirs, paths):
        if not os.path.exists(path):
            raise ReportError(f"{d}: no summary.json (not a train-eval output?)")
        summary = _load_summary(path)
        for key in PROTOCOL_KEYS:
            if summaries and summary[key] != summaries[0][key]:
                raise ReportError(f"{path}: {key} differs from {paths[0]}; runs compared "
                                  f"in one report must share the dataset and protocol")
        for earlier, other in zip(paths, summaries):
            if other["tag"] == summary["tag"]:
                raise ReportError(f"{path}: representation {summary['tag']} is already "
                                  f"in {earlier}")
        summaries.append(summary)
    return sorted(summaries, key=lambda s: TAGS.index(s["tag"]))


def write_report(summaries, table, out_dir):
    """Write ``table`` to ``report.txt`` and each summary's means to ``report.json``."""
    make_output_dir(out_dir)
    _atomic_write(os.path.join(out_dir, "report.txt"), table + "\n")
    write_json(os.path.join(out_dir, "report.json"), {
        "format_version": FORMAT_VERSION,
        "dataset_hash": summaries[0]["dataset_hash"],
        "rows": [{"tag": s["tag"], "mean": s["mean"], "std": s["std"]} for s in summaries],
    })
