"""Batch command-line front end.

Exit codes partition the failure classes: 2 for configuration problems
and outputs that cannot be written, 3 for representation fit failures, 4
for training failures, 5 for report merging conflicts.
"""

from __future__ import annotations

import json
import os
import reprlib
import sys

# Set before numpy loads: OpenBLAS reads it once, when it starts.  No
# product here is large enough to gain from a second thread, and an idle
# OpenBLAS worker spins, so one thread saves start-up CPU.  Results do not
# depend on it; a value the user exported still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

from . import pipeline
from .data_io import (
    FORMAT_VERSION,
    DataError,
    OutputError,
    SynthConfig,
    _atomic_write,
    load_manifest,
    make_output_dir,
    parse_section,
    write_json,
)
from .representations import FitError

EXIT_CONFIG = 2
EXIT_REPRESENT = 3
EXIT_TRAIN = 4
EXIT_REPORT = 5


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_manifest(path):
    try:
        return load_manifest(path)
    except DataError as exc:
        # load_manifest already names the manifest.
        _fail(EXIT_CONFIG, str(exc))
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_CONFIG, f"manifest {path}: {exc}")


@click.group()
def main():
    """Ambiguity-aware trace representations: synth, represent, train-eval, report."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=False),
              help="JSON synthetic-dataset configuration.")
@click.option("--out", "out_dir", required=True, type=click.Path(),
              help="Output directory for traces, features and the manifest.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the config seed.")
def synth(config_path, out_dir, seed):
    """Generate a seeded synthetic dataset and its experiment manifest."""
    try:
        with open(config_path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_CONFIG, f"config {config_path}: {exc}")
    if not isinstance(doc, dict):
        _fail(EXIT_CONFIG, f"config {config_path}: expected a JSON object, "
                           f"got {reprlib.repr(doc)}")
    extra = {k: doc.pop(k) for k in list(doc) if k in pipeline.MANIFEST_EXTRA_KEYS}
    for key, section in extra.items():
        if not isinstance(section, dict):
            _fail(EXIT_CONFIG, f"config {config_path}: {key}: expected a JSON object, "
                               f"got {reprlib.repr(section)}")
    if seed is not None:
        doc["seed"] = seed
    try:
        cfg = parse_section("", doc, SynthConfig, also_known=pipeline.MANIFEST_EXTRA_KEYS)
    except DataError as exc:
        _fail(EXIT_CONFIG, f"config {config_path}: {exc}")
    try:
        manifest_path = pipeline.run_synth(cfg, out_dir, extra)
    except OutputError as exc:
        _fail(EXIT_CONFIG, str(exc))
    except DataError as exc:
        _fail(EXIT_CONFIG, f"config {config_path}: {exc}")
    click.echo(f"wrote {cfg.items} items and {manifest_path}")


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path())
@click.option("--tag", required=True, type=click.Choice(pipeline.TAGS))
@click.option("--out", "out_dir", required=True, type=click.Path())
def represent(manifest_path, tag, out_dir):
    """Compute one representation for every item and write its tables."""
    manifest = _load_manifest(manifest_path)
    try:
        rows = pipeline.run_represent(manifest, tag, out_dir)
    except FitError as exc:
        _fail(EXIT_REPRESENT, f"representation fit failed: {exc}")
    except DataError as exc:
        _fail(EXIT_CONFIG, str(exc))
    click.echo(f"wrote {len(rows)} representation tables to {out_dir}")


@main.command(name="train-eval")
@click.option("--manifest", "manifest_path", required=True, type=click.Path())
@click.option("--tag", required=True, type=click.Choice(pipeline.TAGS))
@click.option("--target", type=click.Choice(["mu", "sigma", "both"]), default="both",
              show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the manifest seed.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Concurrent fold-training processes.")
def train_eval(manifest_path, tag, target, out_dir, seed, jobs):
    """Train per-fold models for a representation and evaluate CCC/SDA."""
    # Imported here: only this command loads the model module.
    from .model import TrainingError

    manifest = _load_manifest(manifest_path)
    targets = list(pipeline.TARGETS) if target == "both" else [target]
    try:
        summary = pipeline.run_train_eval(
            manifest, tag, targets, out_dir, jobs=jobs, seed=seed
        )
    except FitError as exc:
        _fail(EXIT_REPRESENT, f"representation fit failed: {exc}")
    except DataError as exc:
        _fail(EXIT_CONFIG, str(exc))
    except TrainingError as exc:
        _fail(EXIT_TRAIN, f"training failed: {exc}")
    click.echo(pipeline.render_summary_table([summary]))


@main.command()
@click.argument("result_dirs", nargs=-1, required=True,
                type=click.Path(exists=False))
@click.option("--out", "out_dir", default=None, type=click.Path(),
              help="Also write report.txt and report.json here.")
def report(result_dirs, out_dir):
    """Merge train-eval results into one comparative table."""
    try:
        summaries = pipeline.merge_reports(result_dirs)
    except DataError as exc:
        _fail(EXIT_REPORT, str(exc))
    table = pipeline.render_summary_table(summaries)
    click.echo(table)
    if out_dir is not None:
        record = {
            "format_version": FORMAT_VERSION,
            "dataset_hash": summaries[0]["dataset_hash"],
            "rows": [
                {"tag": s["tag"], "mean": s["mean"], "std": s["std"]}
                for s in summaries
            ],
        }
        try:
            make_output_dir(out_dir)
            _atomic_write(os.path.join(out_dir, "report.txt"), table + "\n")
            write_json(os.path.join(out_dir, "report.json"), record)
        except OutputError as exc:
            _fail(EXIT_CONFIG, str(exc))


if __name__ == "__main__":
    main()
