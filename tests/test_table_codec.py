"""The one table codec: byte identity with the per-kind writers it replaced,
a reader that returns what the line-by-line reader it replaced returns, and
malformed input that always ends in a DataError."""

import contextlib
import os
import re
import shutil
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ambitrace import data_io, pipeline, representations
from ambitrace.data_io import (
    DataError,
    SynthConfig,
    Table,
    load_feature_table,
    load_manifest,
    load_trace_table,
    read_table,
    synth_generate,
    write_feature_table,
    write_table,
    write_trace_table,
)
from ambitrace.representations import (
    BETA_MAPPED,
    GAUSSIAN,
    group_ordinal,
    individual_ordinal,
    interval_representation,
    write_representation,
)
from ambitrace.traces import TraceSet

# --- reference writers ------------------------------------------------------
# The five hand-rolled table writers that ``write_table`` replaced, kept as
# the reference its output is checked against byte for byte.


def _fmt(value) -> str:
    return format(float(value), ".17g")


def ref_write_trace_table(path, annotators, matrix, period):
    lines = ["# format_version: 1"]
    lines.append(",".join(["time_s"] + list(annotators)))
    for i in range(matrix.shape[1]):
        row = [_fmt(i * period)] + [_fmt(values[i]) for values in matrix]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_write_feature_table(path, item_id, matrix, feature_name):
    n, d = matrix.shape
    lines = [
        "# format_version: 1",
        f"# item_id: {item_id}",
        f"# feature_name: {feature_name}",
        ",".join(["window_index"] + [f"f{j:03d}" for j in range(d)]),
    ]
    for i in range(n):
        lines.append(",".join([str(i)] + [_fmt(v) for v in matrix[i]]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_write_representation(rep, path, source_hash=""):
    cols = rep.columns()
    lines = [
        "# format_version: 1",
        f"# representation: {rep.tag}",
        f"# family: {rep.family}",
        f"# neighbor_radius: {rep.neighbor_radius}",
        f"# source_hash: {source_hash}",
    ]
    if rep.family == BETA_MAPPED:
        lines.append(f"# beta_fallbacks: {rep.beta_fallbacks}")
    lines.append(",".join(["window_index", *cols]))
    for i in range(len(rep)):
        row = [str(i)] + [format(float(c[i]), ".17g") for c in cols.values()]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_latent_table(latent):
    lines = ["# format_version: 1", "window_index,latent"] + [
        f"{i},{format(v, '.17g')}" for i, v in enumerate(latent)
    ]
    return "\n".join(lines) + "\n"


def ref_summary_table(tag, summary_rows):
    lines = ["# format_version: 1", f"# representation: {tag}", "item_id,mean_sigma"]
    lines += [f"{iid},{format(v, '.17g')}" for iid, v in summary_rows]
    return "\n".join(lines) + "\n"


# --- reference reader -------------------------------------------------------
# ``read_table`` as it was before regular tables were parsed in one array
# call, kept as the reference for every value and every error message.


def ref_read_table(path) -> Table:
    """Read a table written by ``write_table``; every cell must be a finite float.

    ``#`` lines anywhere are header metadata and blank lines are skipped.
    A missing column header, a ragged row or a bad cell is a ``DataError``
    naming the file and the line.
    """
    meta, names, rows, lines = {}, None, [], []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line[1:].partition(":")
                    meta[key.strip()] = value.strip()
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
                lines.append(lineno)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text table: {exc}") from exc
    if names is None:
        raise DataError(f"{path}: no column header")
    rows = np.array(rows, dtype=float).reshape(len(lines), len(names))
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}: non-finite value at line {lines[np.argmin(finite)]}")
    return Table(meta, names, rows, lines)


def read_outcome(read, path):
    """The table ``read`` returns, or the message of the DataError it raises."""
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


def memo_entries(path):
    """The names of the memo entries of the table at ``path``."""
    memo = os.path.join(os.path.dirname(path), data_io.MEMO_DIR)
    name = os.path.basename(path)
    return [e for e in os.listdir(memo) if e.startswith(name + ".")] if os.path.isdir(memo) else []


def assert_same_outcome(path):
    """``read_table`` gives the reference's outcome with the memo missing, then hitting."""
    ref = read_outcome(ref_read_table, path)
    shutil.rmtree(os.path.join(os.path.dirname(path), data_io.MEMO_DIR), ignore_errors=True)
    missing = read_outcome(read_table, path)
    entries = memo_entries(path)
    assert len(entries) <= 1
    # Reading an entry replaces the parse, so none may run.
    no_parse = mock.patch.object(np, "loadtxt", side_effect=AssertionError("parsed on a hit"))
    with no_parse if entries else contextlib.nullcontext():
        hitting = read_outcome(read_table, path)
    if isinstance(ref, str):
        assert missing == hitting == ref
        assert not entries  # a table that fails is never memoized
        return
    for new in (missing, hitting):
        assert isinstance(new, Table)
        assert (new.meta, new.names, new.lines) == (ref.meta, ref.names, ref.lines)
        assert new.rows.dtype == ref.rows.dtype and new.rows.shape == ref.rows.shape
        assert new.rows.tobytes() == ref.rows.tobytes()


def assert_same_bytes(write, ref_write, tmp_path):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write(new)
    ref_write(ref)
    assert new.read_bytes() == ref.read_bytes()


class TestByteIdentity:
    @pytest.mark.parametrize("period", [1.0, 0.04])
    def test_trace_table(self, tmp_path, period):
        rng = np.random.default_rng(1)
        matrix = np.stack([rng.normal(size=300) * 10.0 ** rng.integers(-8, 8)
                           for _ in range(4)])
        annotators = [f"ann{m}" for m in range(4)]
        assert_same_bytes(lambda p: write_trace_table(p, annotators, matrix, period),
                          lambda p: ref_write_trace_table(p, annotators, matrix, period),
                          tmp_path)

    def test_feature_table(self, tmp_path):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(40, 12)) * np.logspace(-12, 12, 12)
        matrix[3, 4] = 0.0
        matrix[5, 6] = -0.0
        assert_same_bytes(lambda p: write_feature_table(p, "item007", matrix, "egemaps"),
                          lambda p: ref_write_feature_table(p, "item007", matrix, "egemaps"),
                          tmp_path)

    @pytest.mark.parametrize("kind", ["I_gaussian", "I_beta", "I_beta_fallbacks", "O_I", "O_G"])
    def test_representation_table(self, tmp_path, monkeypatch, kind):
        rng = np.random.default_rng(3)
        matrix = np.stack([rng.uniform(-0.9, 0.9, size=30) for _ in range(4)])
        ts = TraceSet([f"ann{m}" for m in range(4)], matrix, bounds=(-1.0, 1.0))
        if kind == "I_beta_fallbacks":
            monkeypatch.setattr(representations, "BETA_MAX_NEWTON_ITERS", 0)
        rep = {
            "I_gaussian": lambda: interval_representation(ts, GAUSSIAN, 1),
            "I_beta": lambda: interval_representation(ts, BETA_MAPPED, 1),
            "I_beta_fallbacks": lambda: interval_representation(ts, BETA_MAPPED, 2),
            "O_I": lambda: individual_ordinal(ts, 1),
            "O_G": lambda: group_ordinal(interval_representation(ts, GAUSSIAN, 1)),
        }[kind]()
        if kind == "I_beta_fallbacks":
            assert rep.beta_fallbacks == 30
        assert_same_bytes(lambda p: write_representation(rep, p, source_hash="f00d"),
                          lambda p: ref_write_representation(rep, p, source_hash="f00d"),
                          tmp_path)

    def test_latent_and_summary_tables(self, tmp_path):
        cfg = SynthConfig(items=3, groups=3, annotators=3, windows=7, seed=4)
        manifest_path = pipeline.run_synth(cfg, tmp_path / "data")
        for item in synth_generate(cfg):
            written = (tmp_path / "data" / "latents" / f"{item.item_id}.csv").read_text()
            assert written == ref_latent_table(item.latent)
        rows = pipeline.run_represent(load_manifest(manifest_path), "O_I", tmp_path / "rep")
        written = (tmp_path / "rep" / "summary_O_I.csv").read_text()
        assert written == ref_summary_table("O_I", rows)

    def test_header_metadata_and_text_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, {"note": "a: b", "empty": ""},
                    {"name": ["x", "y"], "value": np.array([0.1, 2.0])})
        assert path.read_text() == ("# format_version: 1\n# note: a: b\n# empty: \n"
                                    "name,value\nx,0.10000000000000001\ny,2\n")


class TestReadTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        values = np.random.default_rng(5).normal(size=(6, 2))
        write_table(path, {"k": "v"}, {"a": values[:, 0], "b": values[:, 1]})
        table = read_table(path)
        assert table.meta == {"format_version": "1", "k": "v"}
        assert table.names == ["a", "b"]
        np.testing.assert_array_equal(table.rows, values)
        assert table.lines == [4, 5, 6, 7, 8, 9]

    def test_empty_table_keeps_its_width(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# format_version: 1\na,b,c\n")
        assert read_table(path).rows.shape == (0, 3)

    @pytest.mark.parametrize("text, message", [
        ("# only: meta\n", "no column header"),
        ("a,b\n1,2\n\n3\n", "ragged row at line 4"),
        ("a,b\n1,2\n3,x\n", "bad value at line 3"),
        ("a,b\n1,2\n3,\n", "bad value at line 3"),
        ("a,b\n#c\n1,inf\n", "non-finite value at line 3"),
        ("a,b\n1,2\n3,nan\n", "non-finite value at line 3"),
        # numpy's parser would skip the separator as whitespace; float does not.
        ("a,b\n1\x1c,2\n", "bad value at line 2"),
        ("a,b\n1,2\n3,1_0x\n", "bad value at line 3"),
    ])
    def test_errors_name_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
            read_table(path)
        assert_same_outcome(path)

    @pytest.mark.parametrize("text", [
        "a,b\n1_0,2\n3,4\n",
        "a\n\u0661\n\uff12\n1e1_0\n",
        "# k: v\na,b\n1,2\n\n3,4\n",
        "a,b\n1,2\n# late: meta\n3,4\n",
        "a,b\r\n1,2\r\n3,4\r\n",
        "a,b\n\x1c1,2\x1f\n",
        "  # k: v\n1\n2\n",
        "# k: v\n\n1\n2\n",
        "a,b\n\n\n",
        "a,b\n1,2",
        "a,b\n",
    ])
    def test_edge_case_tables_load_as_before(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert isinstance(read_table(path), Table)
        assert_same_outcome(path)

    def test_regular_table_takes_the_array_parse(self, tmp_path, monkeypatch):
        # A reader that always fell back to the line loop would pass every
        # other test and lose the speed-up.
        rng = np.random.default_rng(6)
        annotators = [f"ann{m}" for m in range(5)]
        matrix = np.stack([rng.uniform(-1, 1, size=8350) for _ in range(5)])
        path = tmp_path / "t.csv"
        write_trace_table(path, annotators, matrix, 0.04)
        ref = ref_read_table(path)

        def refuse(path, lines):
            raise AssertionError("the line reader ran on a regular table")

        monkeypatch.setattr(data_io, "_read_lines", refuse)
        table = read_table(path)
        assert table.rows.shape == (8350, 6)
        assert table.rows.tobytes() == ref.rows.tobytes()
        assert (table.meta, table.names, table.lines) == (ref.meta, ref.names, ref.lines)
        assert load_trace_table(path)[0] == annotators

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1,\xff\n")
        with pytest.raises(DataError, match="not a text table"):
            read_table(path)
        assert_same_outcome(path)

    def test_bad_row_ahead_of_undecodable_bytes(self, tmp_path):
        # The bad byte sits past the first decoded chunk, so the bad row
        # two lines in is reported first, as the line reader always did.
        path = tmp_path / "t.csv"
        rows = "".join(f"{i},{i}\n" for i in range(3000))
        path.write_bytes(b"a,b\n1,x\n" + rows.encode() + b"1,\xff\n")
        with pytest.raises(DataError, match="bad value at line 2"):
            read_table(path)
        assert_same_outcome(path)


# --- fuzzing ----------------------------------------------------------------

# ``1_0``, ``1e1_0`` and the non-ASCII digits are floats to ``float`` but not
# to numpy's parser; ``\x1c`` is whitespace to numpy's parser but not to
# ``float``.
TOKENS = ["", " ", "abc", "nan", "inf", "-inf", "1e308", "-1e308", "0", "#", "1,2",
          "1_0", "1e1_0", "\u0661", "\uff11", " 1", "1 ", "\t", "1\x1c"]

mutation = st.tuples(st.sampled_from(["drop", "replace", "insert", "header", "row", "blank",
                                      "meta"]),
                     st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(TOKENS))


@st.composite
def mangled_tables(draw):
    """Text of a valid trace or feature table with a few cells mangled."""
    kind = draw(st.sampled_from(["trace", "feature"]))
    rows = draw(st.integers(0, 5))
    width = draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    values = draw(st.lists(st.lists(finite, min_size=width, max_size=width),
                           min_size=rows, max_size=rows))
    if kind == "trace":
        period = draw(st.sampled_from([1.0, 0.04, 0.25]))
        times = draw(st.one_of(st.just([i * period for i in range(rows)]),
                               st.lists(finite, min_size=rows, max_size=rows)))
        lines = [["# format_version: 1"], ["time_s"] + [f"ann{j}" for j in range(width)]]
        lines += [["%.17g" % t] + ["%.17g" % v for v in row] for t, row in zip(times, values)]
    else:
        lines = [["# format_version: 1"], ["# item_id: x"],
                 ["window_index"] + [f"f{j:03d}" for j in range(width)]]
        lines += [[str(i)] + ["%.17g" % v for v in row] for i, row in enumerate(values)]
    for op, a, b, token in draw(st.lists(mutation, max_size=4)):
        line = lines[a % len(lines)] if lines else None
        if op == "drop" and line:
            del line[b % len(line)]
        elif op == "replace" and line:
            line[b % len(line)] = token
        elif op == "insert" and line is not None:
            line.insert(b % (len(line) + 1), token)
        elif op == "header":
            lines = [cells for cells in lines if not (cells and cells[0].startswith(("time_s",
                                                                                     "window_")))]
        elif op == "row" and lines:
            del lines[a % len(lines)]
        elif op == "blank":
            lines.insert(a % (len(lines) + 1), [])
        elif op == "meta":
            lines.insert(a % (len(lines) + 1), ["# k: v"])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return kind, newline.join(",".join(cells) for cells in lines) + newline


def check_table(table):
    assert table.rows.shape == (len(table.lines), len(table.names))
    assert np.all(np.isfinite(table.rows))


def check_traces(result):
    annotators, matrix, period = result
    assert np.isfinite(period) and period > 0
    assert matrix.ndim == 2 and len(matrix) == len(annotators) >= 1 and matrix.shape[1] >= 2
    assert np.all(np.isfinite(matrix))


def check_features(matrix):
    assert matrix.ndim == 2 and matrix.shape[0] >= 1
    assert np.all(np.isfinite(matrix))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mangled_tables())
def test_malformed_tables_give_data_errors(tmp_path, case):
    kind, text = case
    path = os.path.join(tmp_path, f"{kind}.csv")
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
    assert_same_outcome(path)
    for load, check in ((read_table, check_table), (load_trace_table, check_traces),
                        (load_feature_table, check_features)):
        try:
            result = load(path)
        except DataError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            check(result)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=8),
       st.sampled_from([1.0, 0.04, 0.25]))
def test_written_traces_load_back_exactly(tmp_path, values, period):
    path = os.path.join(tmp_path, "t.csv")
    matrix = np.array([values, values[::-1]])
    write_trace_table(path, ["a", "b"], matrix, period)
    annotators, loaded, loaded_period = load_trace_table(path)
    assert (annotators, loaded_period) == (["a", "b"], period)
    np.testing.assert_array_equal(loaded, matrix)
