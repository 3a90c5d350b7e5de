"""End-to-end orchestration: synth, represent and train-eval.

The CLI is a thin wrapper over these functions; everything here is
deterministic given the manifest seed.  Outputs go only into the caller's
output directory, which exists; the one other write is
``dataset.read_table``'s memo of parsed input tables, in a
``dataset.MEMO_DIR`` directory beside them.  This module loads numpy, so
the CLI imports it inside the three commands that run it; ``report`` is
``ambitrace.report``'s, which only ``run_train_eval`` imports from here.
"""

from __future__ import annotations

import os
import reprlib
from dataclasses import replace

import numpy as np

from . import data_io, dataset, metrics, representations
from .data_io import (
    FORMAT_VERSION,
    SECTIONS,
    DataError,
    ExperimentManifest,
    parse_section,
    write_file,
    write_json,
)
from .dataset import SynthConfig, dataset_digest, make_splits, prepare_item, write_table
from .representations import (
    TAG_GROUP,
    TAG_INDIVIDUAL,
    TAG_INTERVAL,
    group_ordinal,
    individual_ordinal,
    interval_representation,
    write_representation,
)


def compute_representation(trace_set, tag, rep: data_io.RepresentationConfig):
    """The requested representation sequence for one item."""
    if tag == TAG_INDIVIDUAL:
        return individual_ordinal(trace_set, rep.neighbor_radius)
    interval = interval_representation(trace_set, rep.family, rep.neighbor_radius)
    return group_ordinal(interval) if tag == TAG_GROUP else interval


# --- synth ------------------------------------------------------------------

# A synth manifest's settings where they differ from the dataclass defaults;
# the split also defaults to min(10, groups) folds seeded with the config seed.
SYNTH_MANIFEST_DEFAULTS = {
    "representation": {"family": "gaussian"},
    "model": {"hidden_dim": 32},
    "train": {"max_epochs": 300, "segment_length": 19},
}


def run_synth(config_path, out_dir, seed=None):
    """Generate the synthetic dataset a config file describes, plus its manifest.

    The config is one JSON object: generator fields plus optional
    representation/model/train/split sections, whose keys override the
    manifest defaults; ``seed`` overrides its seed.  The config and the
    manifest it gives are checked in full before any file is written; any
    error is a ``DataError`` starting ``config <path>: ``.  Returns the
    manifest, which is written to ``manifest.json`` in ``out_dir``.
    """
    try:
        doc = data_io.read_json(config_path, "config")
    except DataError as exc:
        raise DataError(f"config {exc}") from exc
    try:
        sections = {key: doc.pop(key) for key in SECTIONS if key in doc}
        for key, section in sections.items():
            if not isinstance(section, dict):
                raise DataError(f"{key}: expected a JSON object, got {reprlib.repr(section)}")
        if seed is not None:
            doc["seed"] = seed
        cfg = parse_section("", doc, SynthConfig, also_known=SECTIONS)
        split = sections.get("split", {})
        if cfg.groups < 2 and "k" not in split and split.get("mode") in (None, "k_fold_grouped"):
            # The default split.k is min(10, groups), and grouped folds need two.
            raise DataError(f"groups: expected at least 2 for grouped folds, got {cfg.groups}")
        items = dataset.synth_generate(cfg)
        defaults = dict(SYNTH_MANIFEST_DEFAULTS,
                        split={"k": min(10, cfg.groups), "seed": cfg.seed})
        manifest = data_io._manifest_from_doc({
            "seed": cfg.seed,
            "dataset": {"name": "synthetic", "native_period": 1.0, "window_length": 1.0,
                        "keep_first": cfg.windows, "items": [
                            {"item_id": item.item_id, "group": item.group,
                             "trace_file": os.path.join("traces", f"{item.item_id}.csv"),
                             "feature_file": os.path.join("features", f"{item.item_id}.csv")}
                            for item in items]},
            **{key: {**defaults[key], **sections.get(key, {})} for key in SECTIONS},
        }, out_dir)
    except DataError as exc:
        raise DataError(f"config {config_path}: {exc}") from exc
    try:
        for sub in ("traces", "features", "latents"):
            os.mkdir(os.path.join(out_dir, sub))
    except OSError as exc:
        raise data_io.OutputError(f"{exc.filename}: cannot create: {exc.strerror}") from exc
    for item, entry in zip(items, manifest.dataset.items):
        dataset.write_trace_table(manifest.resolve(entry.trace_file), item.trace_set.annotators,
                                  item.trace_set.matrix, manifest.dataset.native_period)
        dataset.write_feature_table(manifest.resolve(entry.feature_file), item.item_id,
                                    item.features, "synthetic")
        write_table(os.path.join(out_dir, "latents", f"{item.item_id}.csv"), {},
                    {"window_index": np.arange(len(item.latent)), "latent": item.latent})
    data_io.save_manifest(manifest, manifest.resolve("manifest.json"))
    return manifest


# --- represent and train-eval ----------------------------------------------


def _fit_items(manifest: ExperimentManifest, tag, min_windows, command):
    """Read, then check, then fit every item; returns (dataset hash, fitted items).

    Each phase covers every item before the next starts, so a configuration
    error in any item wins over a fit failure in any item.  Each input file
    is read once: the dataset hash is taken from the bytes the tables are
    parsed from.  An item needs ``min_windows`` windows after alignment and
    as many feature columns as the first item, at least one; ``command``
    names the caller in the messages.  The fitted items are (item, features,
    fits), in manifest order.  The fits run with numpy's floating-point
    warnings off: a fit that overflows ends in a ``FitError``, which says so
    in one line.
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
    fitted = []
    for item, (trace_set, features) in zip(items, prepared):
        try:
            with np.errstate(all="ignore"):
                fits = compute_representation(trace_set, tag, manifest.representation)
        except representations.FitError as exc:
            raise representations.FitError(f"item {item.item_id!r}: {exc}") from exc
        fitted.append((item, features, fits))
    return digest.hexdigest(), fitted


def run_represent(manifest: ExperimentManifest, tag, out_dir):
    """Write one representation table per item plus a mean-spread summary."""
    # An interval fit needs one window; a difference needs two.
    source, fitted = _fit_items(manifest, tag, 1 if tag == TAG_INTERVAL else 2,
                               f"represent --tag {tag}")
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


# The most bytes of training buffers (``model.stack_bytes``) that one stack
# of folds may hold: 4.5 MiB.  On the perfbench train_eval inputs (H 32,
# segments of 19 steps in batches of 8, two targets) four folds are
# estimated at 4.1 MiB and five at 5.1 MiB.  Serial stacks of 4, 3 and 3
# folds cut the benchmark's CPU by 15 % against pairs, for 4.4 % more peak
# RSS; stacks of five would peak 9 % above pairs.  At a paper-like
# shape (H 64, segments of 100 steps) one fold is estimated at 7.1 MiB and
# trains alone: 28 % less peak RSS than pairs, for about 12 % more CPU.
STACK_BYTES = 4608 * 1024


def _fold_stacks(fold_lengths, n_targets, model, train, jobs):
    """The folds trained as one stack each: runs of consecutive folds, in fold order.

    ``fold_lengths`` holds each fold's (training, validation) sequence
    lengths, and each fold trains ``n_targets`` models.  The stacks are as
    few as keep each one within ``STACK_BYTES`` (a fold over it stands
    alone), yet at least ``jobs``, so every worker of a pool has one; their
    sizes differ by at most one fold.
    """
    # Imported here, as in run_train_eval: no other command loads the model.
    from .model import stack_bytes

    def fits(stack):
        return len(stack) == 1 or stack_bytes(
            model, train, [fold_lengths[k] for k in stack for _ in range(n_targets)]
        ) <= STACK_BYTES

    n = len(fold_lengths)
    for count in range(min(jobs, n), n + 1):
        stacks = [s.tolist() for s in np.array_split(np.arange(n), count)]
        if all(map(fits, stacks)):
            return stacks


def _train_fold(args):
    """Train every target of a stack's folds as one stack, then evaluate each model.

    Returns (fold record, models by target) per fold, in fold order.
    """
    # Imported here, as in run_train_eval: no other command loads the model.
    from .model import predict_stack, train_stack

    (folds, data, targets, model, train) = args

    def column(ids, key):
        return [data[i][key] for i in ids]

    # One model per (fold, target), fold by fold.
    models = train_stack(model, train, [
        (model.seed + 97 * fold_idx + t_idx, column(train_ids, "features"),
         column(train_ids, target), column(val_ids, "features"), column(val_ids, target))
        for fold_idx, train_ids, val_ids in folds for t_idx, target in enumerate(targets)
    ])
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


def run_train_eval(manifest: ExperimentManifest, manifest_path, tag, targets, out_dir, jobs):
    """Per-fold training and evaluation; writes fold files and a summary.

    ``manifest`` was read from ``manifest_path``, which split errors name.
    Evaluation is computed per validation sequence and averaged across
    sequences within a fold, then mean +/- std across folds.
    """
    # Imported here: the LSTM module costs every other command start-up time.  Imported
    # after the inputs are read, it raised the peak RSS by 0.8 MiB (train_eval inputs).
    from .model import TrainingError, save_checkpoint

    # Built first: a split the items cannot fill reads no table.
    try:
        folds = make_splits([(it.item_id, it.group) for it in manifest.dataset.items],
                            manifest.split)
    except DataError as exc:
        raise DataError(f"{manifest_path}: {exc}") from exc
    # Each item is scored by CCC and SDA, which need two windows.
    source, fitted = _fit_items(manifest, tag, 2, "train-eval")
    data = {item.item_id: {"features": features, "mu": fits.mu, "sigma": fits.sigma}
            for item, features, fits in fitted}
    # Every fold's model takes the feature width, which _fit_items checked is common.
    model = replace(manifest.model, input_dim=fitted[0][1].shape[1])
    fold_lengths = [tuple([len(data[i]["features"]) for i in ids] for ids in fold)
                    for fold in folds]
    job_args = [
        ([(idx, *folds[idx]) for idx in stack], data, tuple(targets), model, manifest.train)
        for stack in _fold_stacks(fold_lengths, len(targets), model, manifest.train, jobs)
    ]

    # Fold files are written as each stack is handed back, in fold order.
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
            raise TrainingError("a worker process was lost") from exc
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
        **data_io.settings_docs(manifest),
        "evaluation": "per-sequence metrics averaged within folds",
        "folds": fold_records,
        "mean": mean,
        "std": std,
    }
    write_json(os.path.join(out_dir, "summary.json"), summary)
    # Imported here: synth and represent need no report code.
    from .report import render_summary_table

    write_file(os.path.join(out_dir, "summary.txt"), render_summary_table([summary]) + "\n")
    return summary
