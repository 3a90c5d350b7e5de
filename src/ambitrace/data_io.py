"""Dataset ingestion, splits, experiment manifests and synthetic data.

The manifest's sections are all checked here, the model and train
sections included, so reading a manifest loads no model code.

All tables are plain columnar text with decimal floats (17 significant
digits) so they stay diffable and language-neutral.  ``write_table`` and
``read_table`` are the one codec for them; writes go through a temp file
and an atomic rename.  ``read_table`` keeps the parsed numbers of a regular
table in a memo directory beside it (``MEMO_DIR``), keyed by the file's
bytes, so a table that has not changed is parsed once, not once per command.
Trace and feature tables are read into plain matrices, nothing more.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import numbers
import os
import re
from dataclasses import MISSING, asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .traces import TraceSet, _ratio_as_int, shift_delay, window_aggregate

FORMAT_VERSION = 1
TIME_TOLERANCE = 1e-9  # relative tolerance for uniform time steps

FAMILIES = ("gaussian", "beta_mapped")
SCENARIOS = ("consistent_trend", "inconsistent_trend")
SPLIT_MODES = ("k_fold_grouped", "fixed_train_dev")
REPRESENTATION_KEYS = ("family", "neighbor_radius")
MANIFEST_KEYS = ("format_version", "seed", "dataset", "representation", "model", "train",
                 "split")


class DataError(ValueError):
    """A data file or configuration failed validation."""


class OutputError(DataError):
    """An output directory could not be created or an output file written."""


def _check_int(name, value, minimum):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise DataError(f"{name}: expected an integer >= {minimum}, got {value!r}")


def _check_real(name, value, valid, expected):
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not valid(value):
        raise DataError(f"{name}: expected {expected}, got {value!r}")


def make_output_dir(path):
    """Create the directory ``path`` and its missing parents.

    A path that is a file, or lies under one, raises ``OutputError``
    naming it and creates nothing: the first parent that is not a
    directory exists, so every parent above it exists too.
    """
    try:
        os.makedirs(path, exist_ok=True)
    except FileExistsError:
        raise OutputError(f"output directory {path}: exists and is not a directory") from None
    except NotADirectoryError:
        raise OutputError(f"output directory {path}: a parent is not a directory") from None
    except OSError as exc:
        raise OutputError(f"output directory {path}: {exc.strerror}") from None


def _atomic_write(path, data):
    """Write ``data`` (str or bytes) to a temp file beside ``path``, then rename.

    The file gets the mode ``open()`` would give it: 0o666 less the umask.
    A failed write leaves any earlier ``path`` as it was and raises
    ``OutputError`` naming ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    try:
        # O_EXCL: a name that is already taken fails instead of being reused.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def write_json(path, doc):
    """Write ``doc`` as indented JSON with sorted keys, atomically."""
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
    _atomic_write(path, "\n".join(lines) + "\n")


def read_table(path, digest=None, check=None) -> Table:
    """Read a table written by ``write_table``; every cell must be a finite float.

    ``#`` lines anywhere are header metadata and blank lines are skipped.
    A missing column header, a ragged row or a bad cell is a ``DataError``
    naming the file and the line.  A regular table is parsed in one array
    call, or its rows come from the memo (see ``_Memo``); any other text
    goes through the line reader, which writes every error message.

    The file is opened and read once.  ``digest``, a hashlib object, is
    updated with its bytes.  ``check(path, table)`` is the caller's own
    validation, raising ``DataError``: it runs on every read, and a parse
    is memoized only once it has passed.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
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
        try:
            with contextlib.suppress(FileExistsError):
                os.mkdir(self.dir)
            _atomic_write(self.entry, buf.getvalue())
            for name in os.listdir(self.dir):
                path = os.path.join(self.dir, name)
                if (path != self.entry and name.startswith(self.name)
                        and _ENTRY_SUFFIX.fullmatch(name, len(self.name))):
                    os.unlink(path)
        except (OSError, OutputError):
            pass  # an unwritable location: the table is parsed next time too


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


def _check_time_column(path, table):
    """Refuse a trace table without a uniformly increasing ``time_s`` column."""
    if table.names[0] != "time_s" or len(table.names) < 2:
        raise DataError(f"{path}: header must be time_s,<annotator>...")
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
    table = read_table(path, digest)
    if not table.lines:
        raise DataError(f"{path}: no feature rows")
    return table.rows[:, 1:]


# --- splits -----------------------------------------------------------------


@dataclass
class SplitSpec:
    mode: str = "k_fold_grouped"
    k: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.mode not in SPLIT_MODES:
            raise DataError(f"mode: expected one of {', '.join(SPLIT_MODES)}, got {self.mode!r}")
        # k only matters for grouped folds, which need at least two.
        if self.mode == "k_fold_grouped":
            _check_int("k", self.k, 2)
        _check_int("seed", self.seed, 0)


# --- model and train sections -----------------------------------------------


@dataclass
class ModelConfig:
    input_dim: int
    hidden_dim: int = 64
    num_layers: int = 2
    seed: int = 0

    def __post_init__(self):
        _check_int("input_dim", self.input_dim, 1)
        _check_int("hidden_dim", self.hidden_dim, 1)
        if self.num_layers != 2:
            raise ValueError("num_layers: the architecture is fixed at two recurrent layers")
        _check_int("seed", self.seed, 0)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    max_epochs: int = 100
    segment_length: int = 100
    batch_segments: int = 8
    target_margin: float = 0.9

    def __post_init__(self):
        _check_real("learning_rate", self.learning_rate, lambda v: 0 <= v < math.inf,
                    "a finite number >= 0")
        _check_real("weight_decay", self.weight_decay, lambda v: 0 <= v < 1,
                    "a number in [0, 1)")
        _check_int("max_epochs", self.max_epochs, 0)
        # A one-window segment has no variance, so its CCC loss is undefined.
        _check_int("segment_length", self.segment_length, 2)
        _check_int("batch_segments", self.batch_segments, 1)
        _check_real("target_margin", self.target_margin, lambda v: 0 < v <= 1,
                    "a number in (0, 1]")


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
            raise DataError("fixed split needs items labeled 'train' and 'dev'")
        return [(train, dev)]

    groups = sorted({g for _, g in items})
    if spec.k > len(groups):
        raise DataError(f"k={spec.k} exceeds the {len(groups)} available groups")
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
                            f"got {self.scenario!r}")


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


# --- experiment manifest ----------------------------------------------------


@dataclass
class ItemEntry:
    item_id: str
    group: str
    trace_file: str
    feature_file: str

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, str):
                raise DataError(f"{f.name}: expected a string, got {value!r}")
        # The id names output files and is a text cell of summary tables.
        if not self.item_id or not self.item_id.isprintable() or set(self.item_id) & set("/\\,"):
            raise DataError(f"item_id: expected a printable name without '/', '\\' or ',', "
                            f"got {self.item_id!r}")


@dataclass
class DatasetConfig:
    native_period: float
    window_length: float
    items: list[ItemEntry]
    delay_offset: float = 0.0
    keep_first: int | None = None
    bounds: tuple[float, float] | None = None
    name: str = "dataset"

    def __post_init__(self):
        _check_real("native_period", self.native_period, lambda v: 0 < v < math.inf,
                    "a finite number > 0")
        _check_real("window_length", self.window_length, lambda v: 0 < v < math.inf,
                    "a finite number > 0")
        _check_real("delay_offset", self.delay_offset, lambda v: 0 <= v < math.inf,
                    "a finite number >= 0")
        # Windows and the delay shift are whole numbers of native samples.
        try:
            _ratio_as_int(self.window_length, self.native_period, "window_length")
            _ratio_as_int(self.delay_offset, self.native_period, "delay_offset")
        except ValueError as exc:
            raise DataError(str(exc)) from None
        if self.keep_first is not None:
            _check_int("keep_first", self.keep_first, 1)
        if not isinstance(self.name, str):
            raise DataError(f"name: expected a string, got {self.name!r}")
        if self.bounds is not None:
            if not isinstance(self.bounds, (list, tuple)) or len(self.bounds) != 2:
                raise DataError(f"bounds: expected [lo, hi], got {self.bounds!r}")
            for value in self.bounds:
                _check_real("bounds", value, math.isfinite, "finite numbers [lo, hi]")
            lo, hi = (float(v) for v in self.bounds)
            if not hi > lo:
                raise DataError("bounds: must satisfy hi > lo")
            self.bounds = (lo, hi)

    @property
    def samples_per_window(self) -> int:
        return int(round(self.window_length / self.native_period))

    @property
    def delay_samples(self) -> int:
        return int(round(self.delay_offset / self.native_period))


@dataclass
class ExperimentManifest:
    dataset: DatasetConfig
    representation: dict
    model: dict
    train: dict
    split: SplitSpec
    seed: int = 0
    base_dir: str = "."

    def __post_init__(self):
        _check_keys("representation", self.representation, REPRESENTATION_KEYS)
        family = self.representation.get("family")
        if family not in FAMILIES:
            raise DataError(f"representation.family: expected one of {', '.join(FAMILIES)}, "
                            f"got {family!r}")
        if family == "beta_mapped" and self.dataset.bounds is None:
            raise DataError("representation.family: beta_mapped requires dataset bounds")
        _check_int("representation.neighbor_radius",
                   self.representation.get("neighbor_radius", 1), 0)
        _check_int("seed", self.seed, 0)
        # input_dim comes from the feature files, not from the manifest.
        parse_section("model", self.model, ModelConfig, input_dim=1)
        parse_section("train", self.train, TrainConfig)

    def resolve(self, relpath) -> str:
        return os.path.join(self.base_dir, relpath)


def _key_name(section, key):
    """``section.key``, or ``key`` alone in the unnamed top-level section."""
    return f"{section}.{key}" if section else f"{key}"


def _check_keys(section, doc, known):
    if not isinstance(doc, dict):
        raise DataError(f"{section}: expected a JSON object, got {doc!r}")
    for key in doc:
        if key not in known:
            raise DataError(f"{_key_name(section, key)}: unknown key (expected one of "
                            f"{', '.join(sorted(known))})")


def parse_section(section, doc, cls, also_known=(), **derived):
    """Build ``cls`` from one manifest section; every error names ``section.key``.

    ``derived`` supplies the fields that do not come from the manifest.  A
    document with no enclosing section, such as a synth config, passes
    ``section=""`` and its errors name the key alone.  ``also_known`` names
    the keys the caller took out of ``doc`` before; an unknown key's
    message lists them with the fields.
    """
    _check_keys(section, doc,
                [f.name for f in fields(cls) if f.name not in derived] + list(also_known))
    for f in fields(cls):
        if f.name not in doc and f.name not in derived and f.default is MISSING:
            raise DataError(f"{_key_name(section, f.name)}: missing")
    try:
        return cls(**derived, **doc)
    except ValueError as exc:
        raise DataError(_key_name(section, exc)) from exc


def save_manifest(manifest: ExperimentManifest, path):
    doc = asdict(manifest)
    del doc["base_dir"]
    write_json(path, {"format_version": FORMAT_VERSION, **doc})


def load_manifest(path) -> ExperimentManifest:
    """Parse and validate a manifest and check that every data file exists.

    The tables themselves are read by ``prepare_item``.  Every DataError
    raised here starts with the manifest path.
    """
    with open(path) as fh:
        doc = json.load(fh)
    try:
        manifest = _manifest_from_doc(doc, os.path.dirname(os.path.abspath(path)))
        for item in manifest.dataset.items:
            for kind, rel in (("trace", item.trace_file), ("feature", item.feature_file)):
                if not os.path.isfile(manifest.resolve(rel)):
                    raise DataError(f"item {item.item_id!r}: missing {kind} file {rel}")
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return manifest


def _manifest_from_doc(doc, base_dir) -> ExperimentManifest:
    _check_keys("manifest", doc, MANIFEST_KEYS)
    ds = doc.get("dataset", {})
    _check_keys("dataset", ds, [f.name for f in fields(DatasetConfig)])
    entries = ds.get("items")
    if not isinstance(entries, list) or not entries:
        raise DataError("dataset.items: the manifest lists no items")
    items = [parse_section(f"dataset.items[{i}]", entry, ItemEntry)
             for i, entry in enumerate(entries)]
    seen = set()
    for i, item in enumerate(items):
        if item.item_id in seen:
            raise DataError(f"dataset.items[{i}].item_id: duplicate id {item.item_id!r}")
        seen.add(item.item_id)
    settings = {key: value for key, value in ds.items() if key != "items"}
    return ExperimentManifest(
        dataset=parse_section("dataset", settings, DatasetConfig, items=items),
        representation=doc.get("representation", {"family": "gaussian"}),
        model=doc.get("model", {}),
        train=doc.get("train", {}),
        split=parse_section("split", doc.get("split", {}), SplitSpec),
        seed=doc.get("seed", 0),
        base_dir=base_dir,
    )


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
