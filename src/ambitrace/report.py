"""The ``report`` command's half: read train-eval summaries, compare, render.

Loads no numpy: ``report`` reads JSON, checks it and prints a table, so it
imports only this module and ``data_io``.  ``render_summary_table`` is also
the table ``train-eval`` prints and writes to ``summary.txt``.
"""

from __future__ import annotations

import numbers
import os
import reprlib

from .data_io import (
    FORMAT_VERSION,
    SECTIONS,
    TAGS,
    TARGETS,
    DataError,
    ReportError,
    parse_settings,
    read_json,
    write_file,
    write_json,
)

# Each reported metric and its column title, in column order.
REPORT_COLUMNS = {"ccc_mu": "CCC mu", "ccc_sigma": "CCC sigma", "sda_mu": "SDA mu",
                  "sda_sigma": "SDA sigma"}


def render_summary_table(summaries):
    """A row per summary, in the order given, by metric columns; maxima marked with *.

    The summaries share their targets; another target's columns show ``-``.
    A mean carries its spread across folds when there are several.
    """
    rows = [["Representation", *REPORT_COLUMNS.values()]]
    for s in summaries:
        row = [s["tag"]]
        for key in REPORT_COLUMNS:
            if key not in s["mean"]:
                row.append("-")
                continue
            mean = s["mean"][key]
            text = f"{mean:.3f}" if len(s["folds"]) == 1 else f"{mean:.3f}+/-{s['std'][key]:.3f}"
            if len(summaries) > 1 and mean == max(other["mean"][key] for other in summaries):
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
    """One ``summary.json``, checked for every field ``report`` reads.

    Its settings sections come back as their ``SECTIONS`` types, so runs
    are compared by the settings that ran, however a summary spells them:
    one written before the sections listed every field compares equal.
    """
    doc = read_json(path, "summary", ReportError)
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
        ("folds", lambda v: isinstance(v, list) and v and all(isinstance(f, dict) for f in v),
         "a non-empty list of fold records"),
        ("mean", metrics_dict, "a number per metric and target"),
        ("std", metrics_dict, "a number per metric and target"),
    )
    for key, valid, expected in checks:
        if not valid(doc.get(key)):
            raise ReportError(f"{path}: {key}: expected {expected}, "
                              f"got {reprlib.repr(doc.get(key))}")
    try:
        doc.update((key, parse_settings(key, doc.get(key))) for key in SECTIONS)
    except DataError as exc:
        raise ReportError(f"{path}: {exc}") from exc
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
    write_file(os.path.join(out_dir, "report.txt"), table + "\n")
    write_json(os.path.join(out_dir, "report.json"), {
        "format_version": FORMAT_VERSION,
        "dataset_hash": summaries[0]["dataset_hash"],
        "rows": [{"tag": s["tag"], "mean": s["mean"], "std": s["std"]} for s in summaries],
    })
