"""Dataset files and arrays: tables, items, splits and synthetic data.

``write_table`` and ``read_table`` are the one codec for every table: plain
columnar text with decimal floats (17 significant digits), so tables stay
diffable and language-neutral.  ``read_table`` keeps the parsed numbers of
a regular table in a memo directory beside it (``MEMO_DIR``), keyed by the
file's bytes, so a table that has not changed is parsed once, not once per
command.  Trace and feature tables are read into plain matrices, nothing
more; ``prepare_item`` turns one manifest item into its windowed traces and
features, and ``dataset_digest`` hashes what it reads.

This module loads numpy and hashlib, so only ``synth``, ``represent`` and
``train-eval`` import it, through ``pipeline``, inside their command
bodies.  Manifests and settings are ``data_io``'s, which loads neither.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import reprlib
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .data_io import (
    FORMAT_VERSION,
    DataError,
    ExperimentManifest,
    ItemEntry,
    OutputError,
    SplitSpec,
    _check_int,
    _check_real,
    write_file,
)
from .traces import TraceSet, shift_delay, window_aggregate

TIME_TOLERANCE = 1e-9  # relative tolerance for uniform time steps
SCENARIOS = ("consistent_trend", "inconsistent_trend")


# --- headed tables ----------------------------------------------------------


class Table(NamedTuple):
    """A headed table as read back: metadata, column names, float rows.

    ``lines`` holds the 1-based file line of each row, for error messages.
    """

    meta: dict
    names: list
    rows: np.ndarray
    lines: list


def write_table(path, meta, columns):
    """Write ``# key: value`` header lines, a column header, then one row per line.

    ``format_version`` leads the header, followed by ``meta`` in order.
    ``columns`` maps each column name to its cells: text cells are written
    as they are, numbers with 17 significant digits, so floats read back
    bit-exact.
    """
    cells = [np.asarray(col) for col in columns.values()]
    row = ",".join("%s" if col.dtype.kind in "US" else "%.17g" for col in cells)
    header = {"format_version": FORMAT_VERSION, **meta}
    lines = [f"# {key}: {value}" for key, value in header.items()]
    lines.append(",".join(columns))
    lines += [row % values for values in zip(*(col.tolist() for col in cells))]
    write_file(path, "\n".join(lines) + "\n")


def read_table(path, digest=None, check=None) -> Table:
    """Read a table written by ``write_table``; every cell must be a finite float.

    ``#`` lines anywhere are header metadata and blank lines are skipped.
    A file that cannot be read is a ``DataError`` naming it; a missing
    column header, a ragged row or a bad cell is one naming the file and
    the line.  A regular table is parsed in one array
    call, or its rows come from the memo (see ``_Memo``); any other text
    goes through the line reader, which writes every error message.

    The file is opened and read once.  ``digest``, a hashlib object, is
    updated with its bytes.  ``check(path, table)`` is the caller's own
    validation, raising ``DataError``: it runs on every read, and a parse
    is memoized only once it has passed.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    if digest is not None:
        digest.update(raw)
    try:
        # Decoded as ``open(path)`` decodes, so the text is the same.
        text = io.TextIOWrapper(io.BytesIO(raw)).read()
    except UnicodeDecodeError:
        # Decoded a chunk at a time, a bad row ahead of the bad byte is
        # still the error reported.
        return _read_lines(path, io.TextIOWrapper(io.BytesIO(raw)))
    memo = _Memo(path, hashlib.sha256(raw).hexdigest())
    del raw  # the text alone is parsed; the bytes need not stay in memory
    table = _read_regular(text, memo) or _read_lines(path, text.split("\n"))
    if check is not None:
        check(path, table)
    memo.write()
    return table


MEMO_DIR = "__ambitrace_cache__"
# Part of every entry's name: a change to what an entry holds takes a new
# version, so no code reads an entry another version wrote.
_MEMO_VERSION = 1
# What follows the table's file name in the name of each of its entries.
_ENTRY_SUFFIX = re.compile(r"\.[0-9a-f]{64}\.v[0-9]+\.npy")


class _Memo:
    """The rows of one regular table, kept as a ``.npy`` entry on disk.

    The entry is ``<table dir>/MEMO_DIR/<file name>.<sha256>.v<version>.npy``,
    keyed by the sha256 of the table's bytes, so an edited table never
    finds the entry of its old bytes.  Only the number parse is replaced:
    every check of the text runs on a hit as on a miss.  An entry that
    cannot be read, or is not a C-ordered float64 array of the expected
    shape, counts as absent and is written again.  Writing one replaces
    the table's other entries; a location that cannot be written leaves
    the table parsed every time.
    """

    def __init__(self, path, key):
        directory, self.name = os.path.split(os.path.abspath(path))
        self.dir = os.path.join(directory, MEMO_DIR)
        self.entry = os.path.join(self.dir, f"{self.name}.{key}.v{_MEMO_VERSION}.npy")
        self.parsed = None  # rows to store, once every check has passed

    def load(self, shape):
        """The entry's rows if it holds a C-ordered float64 array of ``shape``, else None."""
        try:
            with open(self.entry, "rb") as fh:
                rows = np.load(fh, allow_pickle=False)
        # MemoryError: a damaged header can declare a huge shape.
        except (OSError, ValueError, EOFError, MemoryError):
            return None
        if (isinstance(rows, np.ndarray) and rows.dtype == np.float64
                and rows.shape == shape and rows.flags.c_contiguous):
            return rows
        return None

    def write(self):
        """Store ``parsed``, if set, then delete the table's other entries."""
        if self.parsed is None:
            return
        # The bytes ``np.save`` writes, without its two extra copies of the rows.
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            buf, np.lib.format.header_data_from_array_1_0(self.parsed))
        buf.write(self.parsed.data)
        tmp = os.path.join(self.dir, f".tmp-{os.urandom(8).hex()}")
        try:
            with contextlib.suppress(FileExistsError):
                os.mkdir(self.dir)
            write_file(tmp, buf.getvalue())
            os.replace(tmp, self.entry)  # other commands may read it meanwhile
            for name in os.listdir(self.dir):
                path = os.path.join(self.dir, name)
                if (path != self.entry and name.startswith(self.name)
                        and _ENTRY_SUFFIX.fullmatch(name, len(self.name))):
                    os.unlink(path)
        except (OSError, OutputError):
            with contextlib.suppress(OSError):
                os.unlink(tmp)  # an unwritable location: the table is parsed next time too


# numpy's number parser skips these ASCII separators around a cell as
# whitespace; ``float`` rejects them.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _read_regular(text, memo):
    """The rows of a regular table in one ``np.loadtxt`` call, else None.

    Regular means leading ``#`` lines, the column header, then only data
    rows.  ``loadtxt`` then accepts no cell that ``float`` rejects and
    rounds every cell to the same float, so the result is the line
    reader's.  Rows the memo holds for this text replace the parse; parsed
    rows that pass are handed to the memo to store.
    """
    if any(sep in text for sep in _SEPARATORS):
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last line
    head = 0
    while head < len(lines) and lines[head].startswith("#"):
        head += 1
    header = lines[head].strip() if head < len(lines) else ""
    body = lines[head + 1 :]
    # The line reader takes no blank or indented ``#`` line as the header;
    # loadtxt skips empty lines, and warns when nothing else is left.
    if not header or header.startswith("#") or not body or "" in body:
        return None
    names = header.split(",")
    shape = (len(body), len(names))
    rows = memo.load(shape)
    parsed = rows is None
    if parsed:
        try:
            rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if rows.shape != shape or not np.isfinite(rows).all():
        return None
    if parsed:
        memo.parsed = rows
    meta = dict(_meta_entry(line) for line in lines[:head])
    return Table(meta, names, rows, list(range(head + 2, head + 2 + len(body))))


def _meta_entry(line):
    """(key, value) of a ``# key: value`` line."""
    key, _, value = line[1:].partition(":")
    return key.strip(), value.strip()


def _read_lines(path, lines):
    """Parse ``lines`` one at a time: every table, and every error message."""
    meta, names, rows, row_lines = {}, None, [], []
    try:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, value = _meta_entry(line)
                meta[key] = value
                continue
            cells = line.split(",")
            if names is None:
                names = cells
                continue
            if len(cells) != len(names):
                raise DataError(f"{path}: ragged row at line {lineno}")
            try:
                rows.append(list(map(float, cells)))
            except ValueError as exc:
                raise DataError(f"{path}: bad value at line {lineno}: {exc}") from exc
            row_lines.append(lineno)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text table: {exc}") from exc
    if names is None:
        raise DataError(f"{path}: no column header")
    rows = np.array(rows, dtype=float).reshape(len(row_lines), len(names))
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}: non-finite value at line {row_lines[np.argmin(finite)]}")
    return Table(meta, names, rows, row_lines)


# --- trace tables -----------------------------------------------------------


def write_trace_table(path, annotators, matrix, period):
    """Columnar text: time_s plus one column per annotator, a row of ``matrix`` each."""
    if len(set(annotators)) != len(annotators):
        raise DataError("annotator ids must be unique")
    columns = {"time_s": np.arange(matrix.shape[1]) * period}
    columns.update(zip(annotators, matrix, strict=True))
    write_table(path, {}, columns)


def load_trace_table(path, digest=None):
    """Read a trace table; infers and validates a uniform sample period.

    Returns (annotator ids, contiguous (annotators, samples) matrix, period).
    ``digest`` is passed to ``read_table``.
    """
    table = read_table(path, digest, check=_check_time_column)
    times = table.rows[:, 0]
    return table.names[1:], np.ascontiguousarray(table.rows[:, 1:].T), float(times[1] - times[0])


def _check_format_version(path, table):
    """Refuse a table whose header gives a ``format_version`` other than this one's.

    A table without one passes.
    """
    version = table.meta.get("format_version", str(FORMAT_VERSION))
    if version != str(FORMAT_VERSION):
        raise DataError(f"{path}: format_version: expected {FORMAT_VERSION}, "
                        f"got {reprlib.repr(version)}")


def _check_time_column(path, table):
    """Refuse a trace table of another format, with a repeated annotator id, or
    without a uniformly increasing ``time_s`` column."""
    _check_format_version(path, table)
    if table.names[0] != "time_s" or len(table.names) < 2:
        raise DataError(f"{path}: header must be time_s,<annotator>...")
    annotators = table.names[1:]
    for i, annotator in enumerate(annotators):
        if annotator in annotators[:i]:
            raise DataError(f"{path}: duplicate annotator id {reprlib.repr(annotator)}")
    if len(table.lines) < 2:
        raise DataError(f"{path}: need at least two rows to infer the period")
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(table.rows[:, 0])
        period = steps[0]
        # Written so that a step that overflows to inf also counts as off.
        off = ~(np.abs(steps - period) <= TIME_TOLERANCE * period)
    if period <= 0:
        raise DataError(f"{path}: non-increasing time at line {table.lines[1]}")
    if off.any():
        raise DataError(f"{path}: non-uniform time step at line "
                        f"{table.lines[np.argmax(off) + 1]}")


# --- feature tables ---------------------------------------------------------


def write_feature_table(path, item_id, matrix, feature_name):
    """Columnar text: window_index plus one column per feature, a row of ``matrix`` each."""
    columns = {"window_index": np.arange(len(matrix))}
    columns.update((f"f{j:03d}", col) for j, col in enumerate(matrix.T))
    write_table(path, {"item_id": item_id, "feature_name": feature_name}, columns)


def load_feature_table(path, digest=None):
    """A feature table's (windows, features) matrix; ``digest`` is passed to ``read_table``."""
    return read_table(path, digest, check=_check_feature_table).rows[:, 1:]


def _check_feature_table(path, table):
    """Refuse a feature table of another format or without rows."""
    _check_format_version(path, table)
    if not table.lines:
        raise DataError(f"{path}: no feature rows")


# --- splits -----------------------------------------------------------------


def make_splits(items, spec: SplitSpec):
    """Build (train_ids, validation_ids) folds from (item_id, group) pairs.

    Grouped mode shuffles groups with the split seed and never places a
    group on both sides of a fold.  In fixed mode the group label itself
    selects the side ("train" vs "dev").
    """
    items = list(items)
    if spec.mode == "fixed_train_dev":
        train = [i for i, g in items if g == "train"]
        dev = [i for i, g in items if g == "dev"]
        if not train or not dev:
            raise DataError("split.mode: fixed_train_dev needs items labeled 'train' and 'dev'")
        return [(train, dev)]

    groups = sorted({g for _, g in items})
    if spec.k > len(groups):
        raise DataError(f"split.k: {spec.k} exceeds the {len(groups)} available groups")
    rng = np.random.default_rng(spec.seed)
    order = [groups[i] for i in rng.permutation(len(groups))]
    buckets = [order[i :: spec.k] for i in range(spec.k)]
    folds = []
    for held_out in buckets:
        held = set(held_out)
        train = [i for i, g in items if g not in held]
        val = [i for i, g in items if g in held]
        folds.append((train, val))
    return folds


# --- synthetic generator ----------------------------------------------------


@dataclass
class SynthConfig:
    """Seeded stand-in dataset: smooth latent trends, annotator quirks,
    and features that affinely encode the latent."""

    annotators: int = 5
    windows: int = 19
    items: int = 30
    groups: int = 10
    feature_dim: int = 8
    trend_components: int = 3
    trend_amplitude: float = 0.6
    offset_std: float = 0.1
    gain_std: float = 0.0
    noise_std: float = 0.02
    feature_noise_std: float = 0.01
    lag_windows: int = 0
    scenario: str = "consistent_trend"
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("annotators", 2), ("windows", 2), ("items", 1), ("groups", 1),
                              ("feature_dim", 1), ("trend_components", 1),
                              ("lag_windows", 0), ("seed", 0)):
            _check_int(name, getattr(self, name), minimum)
        if self.groups > self.items:
            raise DataError(f"groups: expected at most items={self.items}, got {self.groups}")
        for name in ("trend_amplitude", "offset_std", "gain_std", "noise_std",
                     "feature_noise_std"):
            _check_real(name, getattr(self, name), lambda v: 0 <= v < math.inf,
                        "a finite number >= 0")
        if self.scenario not in SCENARIOS:
            raise DataError(f"scenario: expected one of {', '.join(SCENARIOS)}, "
                            f"got {reprlib.repr(self.scenario)}")


@dataclass
class SynthItem:
    item_id: str
    group: str
    trace_set: TraceSet
    features: np.ndarray
    latent: np.ndarray


def _latent_trend(cfg, rng):
    t = np.arange(cfg.windows, dtype=float)
    trend = np.zeros(cfg.windows)
    for _ in range(cfg.trend_components):
        cycles = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.5, 1.0)
        trend += amp * np.sin(2.0 * np.pi * cycles * t / cfg.windows + phase)
    spread = trend.std()
    if spread > 0:
        trend *= cfg.trend_amplitude / spread
    return trend


def _lagged(values, lag):
    if lag <= 0:
        return values.copy()
    out = np.empty_like(values)
    out[:lag] = values[0]
    out[lag:] = values[:-lag]
    return out


def synth_generate(cfg: SynthConfig):
    """Deterministic synthetic items: traces, features and the latent oracle.

    consistent_trend: every annotator follows the shared latent with a
    personal constant offset (plus small noise), so absolute values
    disagree while gradients agree.  inconsistent_trend: annotators get
    independently sign-flipped latents with a shared offset, so values
    stay close while gradients disagree.
    """
    rng = np.random.default_rng(cfg.seed)
    # One feature map for the whole dataset; per-item maps would leave
    # nothing consistent for a downstream model to learn.
    projection = rng.normal(0.0, 1.0, size=cfg.feature_dim)
    bias = rng.normal(0.0, 0.1, size=cfg.feature_dim)
    items = []
    for idx in range(cfg.items):
        item_id = f"item{idx:03d}"
        group = f"g{idx % cfg.groups:02d}"
        latent = _latent_trend(cfg, rng)
        rows = []
        if cfg.scenario == "consistent_trend":
            for m in range(cfg.annotators):
                offset = rng.normal(0.0, cfg.offset_std)
                gain = 1.0 + rng.normal(0.0, cfg.gain_std) if cfg.gain_std else 1.0
                lag = int(rng.integers(0, cfg.lag_windows + 1)) if cfg.lag_windows else 0
                noise = rng.normal(0.0, cfg.noise_std, size=cfg.windows)
                rows.append(gain * _lagged(latent, lag) + offset + noise)
        else:
            signs = np.where(rng.random(cfg.annotators) < 0.5, -1.0, 1.0)
            if np.all(signs == signs[0]):
                signs[0] = -signs[0]  # disagreement must actually occur
            offset = rng.normal(0.0, cfg.offset_std)
            for m in range(cfg.annotators):
                noise = rng.normal(0.0, cfg.noise_std, size=cfg.windows)
                rows.append(signs[m] * latent + offset + noise)
        fnoise = rng.normal(0.0, cfg.feature_noise_std, size=(cfg.windows, cfg.feature_dim))
        features = latent[:, None] * projection[None, :] + bias[None, :] + fnoise
        items.append(
            SynthItem(
                item_id=item_id,
                group=group,
                trace_set=TraceSet([f"ann{m}" for m in range(cfg.annotators)], np.stack(rows)),
                features=features,
                latent=latent,
            )
        )
    return items


# --- items ------------------------------------------------------------------


def prepare_item(manifest: ExperimentManifest, item: ItemEntry, digest=None):
    """Load one item and run the label pipeline; returns (TraceSet, features).

    The trace table's time step must equal ``dataset.native_period``.
    Labels are delay-shifted at native rate, windowed, and cut to
    ``dataset.keep_first`` windows; trailing feature windows beyond the
    label length are dropped (they correspond to the stimulus frames
    consumed by the delay shift).  ``digest`` takes the bytes of the trace
    file, then of the feature file, as they are read.
    """
    trace_path = manifest.resolve(item.trace_file)
    annotators, matrix, period = load_trace_table(trace_path, digest)
    ds = manifest.dataset
    if abs(period - ds.native_period) > TIME_TOLERANCE * ds.native_period:
        raise DataError(f"{trace_path}: time step {period:.12g} s does not match "
                        f"dataset.native_period {ds.native_period:.12g} s")
    try:
        shifted = shift_delay(matrix, ds.native_period, ds.delay_offset)
        if shifted.shape[1] < ds.samples_per_window:
            raise ValueError(f"{shifted.shape[1]} samples after the {ds.delay_offset:g} s "
                             f"delay shift, fewer than one {ds.window_length:g} s window "
                             f"({ds.samples_per_window} samples)")
        windowed = window_aggregate(shifted, ds.native_period, ds.window_length)
        trace_set = TraceSet(annotators, windowed[:, : ds.keep_first], ds.bounds)
    except ValueError as exc:
        raise DataError(f"{trace_path}: {exc}") from exc
    features = load_feature_table(manifest.resolve(item.feature_file), digest)
    n = trace_set.window_count
    if features.shape[0] < n:
        raise DataError(
            f"item {item.item_id!r}: features have {features.shape[0]} windows, "
            f"traces have {n} after alignment"
        )
    return trace_set, features[:n]


def dataset_digest(manifest: ExperimentManifest):
    """A sha256 object holding the dataset section as JSON with sorted keys.

    Passed to ``prepare_item`` for every item in manifest order, it ends
    holding the dataset hash: the section, then each item's trace file and
    feature file, each read only once.
    """
    doc = json.dumps(asdict(manifest.dataset), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8"))
