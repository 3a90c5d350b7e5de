"""Batch command-line front end, on the standard library's ``argparse``.

Each failure a command reports is a ``data_io.AmbitraceError``; ``main``
prints it as one ``error:`` line and exits with its class's code.  A usage
error prints the usage and one ``error:`` line naming the option in quotes,
and exits 2.  Importing this module loads only the standard library and
``data_io``: ``synth``, ``represent`` and ``train-eval`` import ``pipeline``
(and with it numpy) only once their ``--out`` is accepted, ``represent`` and
``train-eval`` once their manifest is too, so ``report``, ``--help``, a usage
error, a refused ``--out`` and a refused manifest never load it.  Only
``report`` imports ``report`` here; ``train-eval`` prints the table that
``pipeline.run_train_eval`` renders.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys

# Set before numpy loads: OpenBLAS reads it once, when it starts.  No
# product here is large enough to gain from a second thread, and an idle
# OpenBLAS worker spins, so one thread saves start-up CPU.  Results do not
# depend on it; a value the user exported still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .data_io import TAGS, TARGETS, AmbitraceError, load_manifest, staged_output

# An option or placeholder an argparse message names; usage errors put it in quotes.
_NAME = re.compile(r"(?<![\w'-])(--[\w-]+|COMMAND|RESULT_DIR)(?![\w'-])")


def _synth(config_path, out_dir, seed):
    with staged_output(out_dir) as stage:
        from .pipeline import run_synth

        manifest = run_synth(config_path, stage, seed)
    print(f"wrote {len(manifest.dataset.items)} items and "
          f"{os.path.join(out_dir, 'manifest.json')}")


def _represent(manifest_path, tag, out_dir):
    with staged_output(out_dir) as stage:
        manifest = load_manifest(manifest_path)
        from .pipeline import run_represent

        rows = run_represent(manifest, tag, stage)
    print(f"wrote {len(rows)} representation tables to {out_dir}")


def _train_eval(manifest_path, tag, target, out_dir, seed, jobs):
    targets = list(TARGETS) if target == "both" else [target]
    with staged_output(out_dir) as stage:
        manifest = load_manifest(manifest_path, seed)
        from .pipeline import run_train_eval

        table = run_train_eval(manifest, manifest_path, tag, targets, stage, jobs)
    print(table)


def _report(result_dirs, out_dir):
    from .report import merge_reports, render_summary_table, write_report

    with contextlib.nullcontext() if out_dir is None else staged_output(out_dir) as stage:
        summaries = merge_reports(result_dirs)
        table = render_summary_table(summaries)
        if stage is not None:
            write_report(summaries, table, stage)
    print(table)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage error is one ``error:`` line, as a command's own failure is."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, "error: " + _NAME.sub(r"'\1'", message) + "\n")


def _at_least(low):
    """An argparse type: an integer not below ``low``."""
    # argparse names a value int() refuses by this name: "invalid integer value".
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value

    return integer


def _parser(prog):
    parser = _Parser(
        prog=prog,
        description="Ambiguity-aware trace representations: synth, represent, train-eval, "
                    "report.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, run, description):
        sub = commands.add_parser(name, help=description, description=description)
        sub.set_defaults(run=run)
        return sub

    synth = command("synth", _synth,
                    "Generate a seeded synthetic dataset and its experiment manifest.")
    synth.add_argument("--config", dest="config_path", required=True, metavar="PATH",
                       help="JSON synthetic-dataset configuration.")
    synth.add_argument("--out", dest="out_dir", required=True, metavar="PATH",
                       help="Output directory for traces, features and the manifest.")
    synth.add_argument("--seed", type=_at_least(0), metavar="INTEGER",
                       help="Override the config seed (x>=0).")

    represent = command("represent", _represent,
                        "Compute one representation for every item and write its tables.")
    represent.add_argument("--manifest", dest="manifest_path", required=True, metavar="PATH",
                           help="Experiment manifest.")
    represent.add_argument("--tag", required=True, choices=TAGS, help="Representation.")
    represent.add_argument("--out", dest="out_dir", required=True, metavar="PATH",
                           help="Output directory for the representation tables.")

    train_eval = command("train-eval", _train_eval,
                         "Train per-fold models for a representation and evaluate CCC/SDA.")
    train_eval.add_argument("--manifest", dest="manifest_path", required=True, metavar="PATH",
                            help="Experiment manifest.")
    train_eval.add_argument("--tag", required=True, choices=TAGS, help="Representation.")
    train_eval.add_argument("--target", choices=[*TARGETS, "both"], default="both",
                            help="Targets to train (default: %(default)s).")
    train_eval.add_argument("--out", dest="out_dir", required=True, metavar="PATH",
                            help="Output directory for fold files, checkpoints and the "
                                 "summary.")
    train_eval.add_argument("--seed", type=_at_least(0), metavar="INTEGER",
                            help="Override the manifest seed (x>=0).")
    train_eval.add_argument("--jobs", type=_at_least(1), default=1, metavar="INTEGER",
                            help="Concurrent fold-training processes (x>=1, "
                                 "default: %(default)s).")

    report = command("report", _report, "Merge train-eval results into one comparative table.")
    report.add_argument("result_dirs", nargs="+", metavar="RESULT_DIR",
                        help="A train-eval output directory.")
    report.add_argument("--out", dest="out_dir", metavar="PATH",
                        help="Also write report.txt and report.json here.")
    return parser


def main(argv=None, prog_name="ambitrace", standalone_mode=True):
    """Run the command line ``argv`` (by default ``sys.argv[1:]``).

    A command that succeeds returns; a usage error (exit 2), ``--help``
    (exit 0) and a command's ``AmbitraceError`` (its class's code) raise
    ``SystemExit``.  ``prog_name`` names the program in usage lines.
    ``standalone_mode`` is accepted and changes nothing, so that callers
    written for the earlier click front end, such as ``perfbench/tracer.py``,
    keep working.
    """
    options = vars(_parser(prog_name).parse_args(argv))
    run = options.pop("run")
    try:
        run(**options)
    except AmbitraceError as exc:
        print(f"error: {exc.prefix}{exc}", file=sys.stderr)
        sys.exit(exc.exit_code)


if __name__ == "__main__":
    main()
