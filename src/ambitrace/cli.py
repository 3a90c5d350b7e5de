"""Batch command-line front end.

Each failure a command reports is a ``data_io.AmbitraceError``; the command
group prints it as one ``error:`` line and exits with its class's code.
Importing this module loads no numpy: ``synth``, ``represent`` and
``train-eval`` import ``pipeline`` (and with it numpy) only once their
``--out`` is accepted, ``represent`` and ``train-eval`` once their manifest
is too, so ``report``, ``--help``, a usage error, a refused ``--out`` and a
refused manifest never load it.
"""

from __future__ import annotations

import contextlib
import os
import sys

# Set before numpy loads: OpenBLAS reads it once, when it starts.  No
# product here is large enough to gain from a second thread, and an idle
# OpenBLAS worker spins, so one thread saves start-up CPU.  Results do not
# depend on it; a value the user exported still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

from .data_io import TAGS, TARGETS, AmbitraceError, load_manifest, staged_output
from .report import merge_reports, render_summary_table, write_report


class _Commands(click.Group):
    """The command group: an ``AmbitraceError`` ends any command with one line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except AmbitraceError as exc:
            click.echo(f"error: {exc.prefix}{exc}", err=True)
            sys.exit(exc.exit_code)


@click.group(cls=_Commands)
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
    with staged_output(out_dir) as stage:
        from .pipeline import run_synth

        manifest = run_synth(config_path, stage, seed)
    click.echo(f"wrote {len(manifest.dataset.items)} items and "
               f"{os.path.join(out_dir, 'manifest.json')}")


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path())
@click.option("--tag", required=True, type=click.Choice(TAGS))
@click.option("--out", "out_dir", required=True, type=click.Path())
def represent(manifest_path, tag, out_dir):
    """Compute one representation for every item and write its tables."""
    with staged_output(out_dir) as stage:
        manifest = load_manifest(manifest_path)
        from .pipeline import run_represent

        rows = run_represent(manifest, tag, stage)
    click.echo(f"wrote {len(rows)} representation tables to {out_dir}")


@main.command(name="train-eval")
@click.option("--manifest", "manifest_path", required=True, type=click.Path())
@click.option("--tag", required=True, type=click.Choice(TAGS))
@click.option("--target", type=click.Choice([*TARGETS, "both"]), default="both",
              show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the manifest seed.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Concurrent fold-training processes.")
def train_eval(manifest_path, tag, target, out_dir, seed, jobs):
    """Train per-fold models for a representation and evaluate CCC/SDA."""
    targets = list(TARGETS) if target == "both" else [target]
    with staged_output(out_dir) as stage:
        manifest = load_manifest(manifest_path, seed)
        from .pipeline import run_train_eval

        summary = run_train_eval(manifest, manifest_path, tag, targets, stage, jobs)
    click.echo(render_summary_table([summary]))


@main.command()
@click.argument("result_dirs", nargs=-1, required=True, type=click.Path(exists=False))
@click.option("--out", "out_dir", default=None, type=click.Path(),
              help="Also write report.txt and report.json here.")
def report(result_dirs, out_dir):
    """Merge train-eval results into one comparative table."""
    with contextlib.nullcontext() if out_dir is None else staged_output(out_dir) as stage:
        summaries = merge_reports(result_dirs)
        table = render_summary_table(summaries)
        if stage is not None:
            write_report(summaries, table, stage)
    click.echo(table)


if __name__ == "__main__":
    main()
