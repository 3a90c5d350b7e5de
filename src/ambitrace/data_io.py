"""Errors, output files, settings and experiment manifests, without numpy.

Every manifest section is a dataclass here, the model's included, built and
checked once by ``parse_section``, so reading a manifest loads neither the
model nor numpy.  A command writes its output files with ``write_file``,
into the directory ``staged_output`` yields.  Tables, items, splits and
synthetic data need numpy and are ``ambitrace.dataset``'s, which only
``synth``, ``represent`` and ``train-eval`` import.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import numbers
import os
import reprlib
import shutil
from dataclasses import MISSING, asdict, dataclass, fields, replace

FORMAT_VERSION = 1

FAMILIES = ("gaussian", "beta_mapped")
SPLIT_MODES = ("k_fold_grouped", "fixed_train_dev")
# Representation tags and train-eval targets, in report order.
TAGS = ("I", "O_I", "O_G")
TARGETS = ("mu", "sigma")
# An item id names output files; the longest, O_G_<id>.csv, fits in 255 bytes.
MAX_ITEM_ID_BYTES = 255 - len("O_G_.csv")


class AmbitraceError(Exception):
    """A failure a command reports as one line, ``error: <prefix><message>``, and
    ends with the class's ``exit_code``; any other exception is a program fault.
    """

    exit_code: int
    prefix = ""


class DataError(AmbitraceError, ValueError):
    """A data file or configuration failed validation."""

    exit_code = 2


class OutputError(DataError):
    """An output directory could not be created or an output file written."""


class ReportError(DataError):
    """``report`` cannot read a summary, or cannot compare the runs it is given."""

    exit_code = 5


def _check_int(name, value, minimum):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise DataError(f"{name}: expected an integer >= {minimum}, got {reprlib.repr(value)}")


def _check_real(name, value, valid, expected):
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not valid(value):
        raise DataError(f"{name}: expected {expected}, got {reprlib.repr(value)}")


def _ratio_as_int(numerator, denominator, what):
    """Integer ratio of two durations, which must match to a relative 1e-9."""
    ratio = numerator / denominator
    k = int(round(ratio))
    if abs(ratio - k) > 1e-9 * abs(ratio):
        raise DataError(f"{what}: {numerator} is not a whole multiple of {denominator}")
    return k


def read_json(path, kind, error=DataError):
    """The JSON object in the file ``path``, a ``kind`` of input such as ``"manifest"``.

    A file that cannot be read, is not UTF-8 or JSON (``ValueError``), nests
    too deep to parse, or holds anything but an object raises ``error`` naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"{path}: not a readable {kind}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got {reprlib.repr(doc)}")
    return doc


@contextlib.contextmanager
def staged_output(out):
    """Yield a new directory for the files of ``out``, which it becomes on success.

    ``out`` must be absent or an empty directory; anything else (a file, a
    path under one, the empty path) raises ``OutputError`` naming ``out`` on
    entry, so open this before reading any input.  The directory yielded is
    ``.<name>.staging-<random>`` beside ``out`` (beside its target if it is a
    symlink), renamed onto it in one step at the end.  On any exception it
    is removed and the exception re-raised; an ``OutputError`` naming a file
    in it names that file under ``out`` instead.
    """
    try:
        problem = "not empty" if os.listdir(out) else None
    except FileNotFoundError:
        problem = None if out else "empty path"  # realpath("") is the working directory
    except NotADirectoryError:
        problem = ("exists and is not a directory" if os.path.lexists(out)
                   else "a parent is not a directory")
    except OSError as exc:
        problem = exc.strerror
    if problem is not None:
        raise OutputError(f"output directory {out}: {problem}")
    target = os.path.realpath(out)
    parent, name = os.path.split(target)
    # 57 characters of the name, 4 bytes at most each, keep the stage's name in 255 bytes.
    stage = os.path.join(parent, f".{name[:57]}.staging-{os.urandom(8).hex()}")
    try:
        os.makedirs(parent, exist_ok=True)
        os.mkdir(stage)  # 0o777 less the umask
    except OSError as exc:
        raise OutputError(f"output directory {out}: {exc.strerror}") from None
    try:
        yield stage
        try:
            os.rename(stage, target)
        except OSError as exc:
            problem = "not empty" if exc.errno in (errno.ENOTEMPTY, errno.EEXIST) else exc.strerror
            raise OutputError(f"output directory {out}: {problem}") from None
    except BaseException as exc:
        shutil.rmtree(stage, ignore_errors=True)
        if isinstance(exc, OutputError):
            exc.args = (str(exc).replace(os.path.join(stage, ""), os.path.join(out, "")),)
        raise


def write_file(path, data):
    """Create ``path`` holding ``data`` (str or bytes), with the mode ``open()`` gives it:
    0o666 less the umask.  A failed write raises ``OutputError`` naming ``path``."""
    try:
        with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
    except OSError as exc:
        raise OutputError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def write_json(path, doc):
    """Write ``doc`` as indented JSON with sorted keys."""
    write_file(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# --- settings sections ------------------------------------------------------


@dataclass
class SplitSpec:
    mode: str = "k_fold_grouped"
    k: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.mode not in SPLIT_MODES:
            raise DataError(f"mode: expected one of {', '.join(SPLIT_MODES)}, "
                            f"got {reprlib.repr(self.mode)}")
        # k only matters for grouped folds, which need at least two.
        if self.mode == "k_fold_grouped":
            _check_int("k", self.k, 2)
        _check_int("seed", self.seed, 0)


@dataclass
class RepresentationConfig:
    family: str
    neighbor_radius: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DataError(f"family: expected one of {', '.join(FAMILIES)}, "
                            f"got {reprlib.repr(self.family)}")
        _check_int("neighbor_radius", self.neighbor_radius, 0)


@dataclass
class ModelConfig:
    # The feature width: no manifest key, set by train-eval from the feature tables.
    input_dim: int | None = None
    hidden_dim: int = 64
    num_layers: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.input_dim is not None:
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


# The settings a manifest holds and a train-eval summary records, by section.
SECTIONS = {"representation": RepresentationConfig, "model": ModelConfig,
            "train": TrainConfig, "split": SplitSpec}


def parse_settings(key, doc):
    """Settings section ``key`` of a manifest or summary, as its ``SECTIONS`` type."""
    derived = {"input_dim": None} if key == "model" else {}
    return parse_section(key, doc, SECTIONS[key], **derived)


def settings_docs(manifest):
    """The manifest's ``SECTIONS`` as JSON objects that list every field but ``input_dim``."""
    return {key: {name: value for name, value in asdict(getattr(manifest, key)).items()
                  if name != "input_dim"} for key in SECTIONS}


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
                raise DataError(f"{f.name}: expected a string, got {reprlib.repr(value)}")
        # The id names output files and is a text cell of summary tables.
        if not self.item_id or not self.item_id.isprintable() or set(self.item_id) & set("/\\,"):
            raise DataError(f"item_id: expected a printable name without '/', '\\' or ',', "
                            f"got {reprlib.repr(self.item_id)}")
        if len(self.item_id.encode("utf-8")) > MAX_ITEM_ID_BYTES:
            raise DataError(f"item_id: expected at most {MAX_ITEM_ID_BYTES} bytes in UTF-8, "
                            f"got {reprlib.repr(self.item_id)}")


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
        # Windows and the delay shift are whole numbers of native samples.  The
        # counts are attributes, not fields: ``asdict`` gives the hashed section.
        self.samples_per_window = _ratio_as_int(self.window_length, self.native_period,
                                                "window_length")
        self.delay_samples = _ratio_as_int(self.delay_offset, self.native_period,
                                           "delay_offset")
        if self.keep_first is not None:
            _check_int("keep_first", self.keep_first, 1)
        if not isinstance(self.name, str):
            raise DataError(f"name: expected a string, got {reprlib.repr(self.name)}")
        if self.bounds is not None:
            if not isinstance(self.bounds, (list, tuple)) or len(self.bounds) != 2:
                raise DataError(f"bounds: expected [lo, hi], got {reprlib.repr(self.bounds)}")
            for value in self.bounds:
                _check_real("bounds", value, math.isfinite, "finite numbers [lo, hi]")
            lo, hi = (float(v) for v in self.bounds)
            if not hi > lo:
                raise DataError("bounds: must satisfy hi > lo")
            self.bounds = (lo, hi)


@dataclass
class ExperimentManifest:
    dataset: DatasetConfig
    representation: RepresentationConfig
    model: ModelConfig
    train: TrainConfig
    split: SplitSpec
    seed: int = 0
    base_dir: str = "."

    def __post_init__(self):
        if self.representation.family == "beta_mapped" and self.dataset.bounds is None:
            raise DataError("representation.family: beta_mapped requires dataset bounds")
        _check_int("seed", self.seed, 0)

    def resolve(self, relpath) -> str:
        return os.path.join(self.base_dir, relpath)


def _key_name(section, key):
    """``section.key``, or ``key`` alone in the unnamed top-level section."""
    return f"{section}.{key}" if section else f"{key}"


def _short(text):
    """``text`` for a message, shortened by ``reprlib`` as a value is, without its quotes."""
    return reprlib.repr(text)[1:-1]


def _check_keys(section, doc, known):
    if not isinstance(doc, dict):
        raise DataError(f"{section}: expected a JSON object, got {reprlib.repr(doc)}")
    for key in doc:
        if key not in known:
            raise DataError(f"{_key_name(section, _short(key))}: unknown key (expected one of "
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
    write_json(path, {"format_version": FORMAT_VERSION, "seed": manifest.seed,
                      "dataset": asdict(manifest.dataset), **settings_docs(manifest)})


def load_manifest(path, model_seed=None) -> ExperimentManifest:
    """Parse and validate a manifest and check that every data file exists.

    ``model_seed`` (``train-eval --seed``) replaces the model seed.  The
    tables themselves are read by ``prepare_item``.  Every DataError
    raised here starts with the manifest path.
    """
    doc = read_json(path, "manifest")
    try:
        manifest = _manifest_from_doc(doc, os.path.dirname(os.path.abspath(path)), model_seed)
        for item in manifest.dataset.items:
            for kind, rel in (("trace", item.trace_file), ("feature", item.feature_file)):
                if not os.path.isfile(manifest.resolve(rel)):
                    raise DataError(f"item {reprlib.repr(item.item_id)}: "
                                    f"missing {kind} file {_short(rel)}")
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return manifest


def _manifest_from_doc(doc, base_dir, model_seed=None) -> ExperimentManifest:
    """The manifest ``doc`` describes; its model seed is ``model_seed``, else
    ``model.seed``, else the manifest ``seed``."""
    _check_keys("manifest", doc, ["format_version", "seed", "dataset", *SECTIONS])
    version = doc.get("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise DataError(f"format_version: expected {FORMAT_VERSION}, got {reprlib.repr(version)}")
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
            raise DataError(f"dataset.items[{i}].item_id: duplicate id "
                            f"{reprlib.repr(item.item_id)}")
        seen.add(item.item_id)
    dataset = parse_section("dataset", {key: value for key, value in ds.items() if key != "items"},
                            DatasetConfig, items=items)
    seed = doc.get("seed", 0)
    _check_int("seed", seed, 0)  # before the model section, whose seed it defaults
    sections = {key: doc.get(key, {}) for key in SECTIONS}
    if "representation" not in doc:
        sections["representation"] = {"family": "gaussian"}
    if isinstance(sections["model"], dict):  # anything else is refused by parse_section
        sections["model"] = {"seed": seed, **sections["model"]}
    settings = {key: parse_settings(key, section) for key, section in sections.items()}
    if model_seed is not None:
        settings["model"] = replace(settings["model"], seed=model_seed)
    return ExperimentManifest(dataset=dataset, **settings, seed=seed, base_dir=base_dir)
