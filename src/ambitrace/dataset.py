"""Dataset files and arrays: tables, items, splits and synthetic data.

``write_table`` and ``read_table`` are the one codec for every table: plain
columnar text with decimal floats (17 significant digits), so tables stay
diffable and language-neutral.  ``read_table`` reads what ``write_table``
writes in one array parse and keeps the numbers in a memo directory beside
the table (``MEMO_DIR``), keyed by the file's bytes, so a table that has
not changed is parsed once, not once per command.  Trace and feature
tables are read into plain matrices, nothing more; ``prepare_item`` turns
one manifest item into its windowed traces and features, and
``dataset_digest`` hashes what it reads.

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
    """A headed table as read back: metadata, column names, float rows, and
    the 1-based file line of the first row, for error messages."""

    meta: dict
    names: list
    rows: np.ndarray
    first_line: int


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
    """Read a table in the grammar ``write_table`` writes; every cell a finite float.

    The grammar: leading ``# key: value`` lines, the column header, then one
    row per line, each cell a number that ``np.loadtxt`` reads; a missing
    final newline and ``\\r\\n`` line ends are accepted.  The rows come from
    the memo (see ``_Memo``) or from one ``np.loadtxt`` call.  Other text is a
    ``DataError`` naming the file and its first bad line; so is a file that
    cannot be read, naming the file.

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
        raise _undecodable(path, raw) from None
    memo = _Memo(path, hashlib.sha256(raw).hexdigest())
    del raw  # the text alone is parsed; the bytes need not stay in memory
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last line
    head = 0
    while head < len(lines) and lines[head].startswith("#"):
        head += 1
    if head == len(lines):
        raise DataError(f"{path}: no column header")
    header, body = lines[head].strip(), lines[head + 1 :]
    start = sum(len(line) + 1 for line in lines[: head + 1])  # of ``body`` in ``text``
    # ``np.loadtxt`` refuses a ragged row or a bad cell.  Refused here is what
    # it takes outside the grammar: a blank or ``#`` header, a separator, an
    # empty line (skipped, so rows go missing), a non-finite cell; and first
    # a blank last line, as ``loadtxt`` warns when only empty lines remain.
    if (not header or header.startswith("#") or body[-1:] == [""]
            or any(text.find(sep, start) >= 0 for sep in _SEPARATORS)):
        raise _bad_line(path, lines)
    shape = (len(body), header.count(",") + 1)
    rows = memo.load(shape)
    if rows is None:
        try:
            rows = (np.loadtxt(body, delimiter=",", comments=None, ndmin=2) if body
                    else np.empty(shape))
        except ValueError:
            raise _bad_line(path, lines) from None
        if rows.shape != shape or not np.isfinite(rows).all():
            raise _bad_line(path, lines)
        memo.parsed = rows
    meta = {}
    for line in lines[:head]:
        key, _, value = line[1:].partition(":")  # a ``# key: value`` line
        meta[key.strip()] = value.strip()
    table = Table(meta, header.split(","), rows, head + 2)
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
    """The rows of one table, kept as a ``.npy`` entry on disk.

    The entry is ``<table dir>/MEMO_DIR/<file name>.<sha256>.v<version>.npy``,
    keyed by the sha256 of the table's bytes, so an edited table never
    finds the entry of its old bytes.  Only the number parse is replaced:
    every check of the text runs on a hit as on a miss.  An entry that
    cannot be read, or is not a C-ordered array of finite float64 values of
    the expected shape, counts as absent and is written again.  Writing one
    replaces the table's other entries; a location that cannot be written
    leaves the table parsed every time.
    """

    def __init__(self, path, key):
        directory, self.name = os.path.split(os.path.abspath(path))
        self.dir = os.path.join(directory, MEMO_DIR)
        self.entry = os.path.join(self.dir, f"{self.name}.{key}.v{_MEMO_VERSION}.npy")
        self.parsed = None  # rows to store, once every check has passed

    def load(self, shape):
        """The entry's rows, if a C-ordered finite float64 array of ``shape``; else None."""
        try:
            with open(self.entry, "rb") as fh:
                rows = np.load(fh, allow_pickle=False)
        # MemoryError: a damaged header can declare a huge shape.
        except (OSError, ValueError, EOFError, MemoryError):
            return None
        if (isinstance(rows, np.ndarray) and rows.dtype == np.float64
                and rows.shape == shape and rows.flags.c_contiguous
                and np.isfinite(rows).all()):
            return rows
        return None

    def write(self):
        """Store ``parsed``, if set, then delete the table's other entries."""
        if self.parsed is None:
            return
        tmp = os.path.join(self.dir, f".tmp-{os.urandom(8).hex()}")
        try:
            with contextlib.suppress(FileExistsError):
                os.mkdir(self.dir)
            with open(tmp, "wb") as fh:
                # To a real file, numpy writes the rows with ``tofile``: no copy.
                np.save(fh, self.parsed, allow_pickle=False)
            os.replace(tmp, self.entry)  # other commands may read it meanwhile
            for name in os.listdir(self.dir):
                path = os.path.join(self.dir, name)
                if (path != self.entry and name.startswith(self.name)
                        and _ENTRY_SUFFIX.fullmatch(name, len(self.name))):
                    os.unlink(path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)  # an unwritable location: the table is parsed next time too


# numpy's number parser skips these ASCII separators around a cell as
# whitespace; ``float`` rejects them, and so does the grammar.
_SEPARATORS = "\x1c\x1d\x1e\x1f"
# In a number ``float`` reads, what ``np.loadtxt`` or the grammar does not.
_UNREAD = re.compile(f"[_{_SEPARATORS}]|[^\\x00-\\x7f\\s]")


def _bad_line(path, lines):
    """The ``DataError`` naming the first line outside the grammar, else None.

    Only refused text is walked, in file order: a blank line, a ``#`` line
    after the leading ones, a ragged row, a cell ``float`` cannot read (with
    its message), then a ``_``, non-ASCII digit or separator; failing those,
    the first row with a non-finite cell.
    """
    names = non_finite = None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if names is None and line.startswith("#"):
            continue  # a leading ``# key: value`` line
        if not stripped or stripped.startswith("#"):
            kind = "stray '#'" if stripped else "blank"
            return DataError(f"{path}: {kind} line at line {lineno}")
        cells = stripped.split(",")
        if names is None:
            names = cells
            continue
        if len(cells) != len(names):
            return DataError(f"{path}: ragged row at line {lineno}")
        try:
            values = list(map(float, cells))
        except ValueError as exc:
            return DataError(f"{path}: bad value at line {lineno}: {exc}")
        if unread := _UNREAD.search(line):
            return DataError(f"{path}: bad value at line {lineno}: {unread.group()!r} in a number")
        if non_finite is None and not all(map(math.isfinite, values)):
            non_finite = lineno
    if non_finite is not None:
        return DataError(f"{path}: non-finite value at line {non_finite}")
    return None


def _undecodable(path, raw):
    """The ``DataError`` of a table that does not decode: its first bad line
    wholly before the first undecodable byte, else ``not a text table``."""
    try:
        # Decoded at once in ``open``'s encoding, for the byte's offset in the file.
        raw.decode(io.TextIOWrapper(io.BytesIO()).encoding)
    except UnicodeDecodeError as exc:
        # The last line runs on into the undecodable byte.
        lines = io.TextIOWrapper(io.BytesIO(raw[: exc.start])).read().split("\n")[:-1]
        return _bad_line(path, lines) or DataError(f"{path}: not a text table: {exc}")


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
    if len(table.rows) < 2:
        raise DataError(f"{path}: need at least two rows to infer the period")
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(table.rows[:, 0])
        period = steps[0]
        # Written so that a step that overflows to inf also counts as off.
        off = ~(np.abs(steps - period) <= TIME_TOLERANCE * period)
    if period <= 0:
        raise DataError(f"{path}: non-increasing time at line {table.first_line + 1}")
    if off.any():
        raise DataError(f"{path}: non-uniform time step at line "
                        f"{table.first_line + 1 + np.argmax(off)}")


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
    if not len(table.rows):
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

    The trace table's time step must equal ``dataset.native_period``, it
    must hold the delay shift plus one window, and with ``dataset.bounds``
    every sample must lie within them, the samples the shift drops too.
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
    if matrix.shape[1] < ds.delay_samples + ds.samples_per_window:
        raise DataError(f"{trace_path}: {max(0, matrix.shape[1] - ds.delay_samples)} samples "
                        f"after the {ds.delay_offset:g} s delay shift, fewer than one "
                        f"{ds.window_length:g} s window ({ds.samples_per_window} samples)")
    if ds.bounds is not None:
        lo, hi = ds.bounds
        outside = ((matrix < lo) | (matrix > hi)).any(axis=1)
        if outside.any():
            raise DataError(f"{trace_path}: trace {annotators[np.argmax(outside)]!r} has "
                            f"values outside bounds")
    windowed = window_aggregate(shift_delay(matrix, ds.delay_samples), ds.samples_per_window)
    try:
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
