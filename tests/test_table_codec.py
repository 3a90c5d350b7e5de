"""The one table codec: byte identity with the per-kind writers it replaced,
and malformed input that always ends in a DataError."""

import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ambitrace import pipeline, representations
from ambitrace.data_io import (
    DataError,
    FeatureTable,
    SynthConfig,
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
from ambitrace.traces import AnnotationTrace, TraceSet

# --- reference writers ------------------------------------------------------
# The five hand-rolled table writers that ``write_table`` replaced, kept as
# the reference its output is checked against byte for byte.


def _fmt(value) -> str:
    return format(float(value), ".17g")


def ref_write_trace_table(path, traces):
    period = traces[0].sample_period
    n = len(traces[0])
    lines = ["# format_version: 1"]
    lines.append(",".join(["time_s"] + [tr.annotator_id for tr in traces]))
    for i in range(n):
        row = [_fmt(i * period)] + [_fmt(tr.values[i]) for tr in traces]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_write_feature_table(path, table):
    n, d = table.matrix.shape
    lines = [
        "# format_version: 1",
        f"# item_id: {table.item_id}",
        f"# feature_name: {table.feature_name}",
        ",".join(["window_index"] + [f"f{j:03d}" for j in range(d)]),
    ]
    for i in range(n):
        lines.append(",".join([str(i)] + [_fmt(v) for v in table.matrix[i]]))
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


def assert_same_bytes(write, ref_write, tmp_path):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write(new)
    ref_write(ref)
    assert new.read_bytes() == ref.read_bytes()


class TestByteIdentity:
    @pytest.mark.parametrize("period", [1.0, 0.04])
    def test_trace_table(self, tmp_path, period):
        rng = np.random.default_rng(1)
        traces = [AnnotationTrace(f"ann{m}", rng.normal(size=300) * 10.0 ** rng.integers(-8, 8),
                                  period) for m in range(4)]
        assert_same_bytes(lambda p: write_trace_table(p, traces),
                          lambda p: ref_write_trace_table(p, traces), tmp_path)

    def test_feature_table(self, tmp_path):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(40, 12)) * np.logspace(-12, 12, 12)
        matrix[3, 4] = 0.0
        matrix[5, 6] = -0.0
        table = FeatureTable("item007", matrix, feature_name="egemaps")
        assert_same_bytes(lambda p: write_feature_table(p, table),
                          lambda p: ref_write_feature_table(p, table), tmp_path)

    @pytest.mark.parametrize("kind", ["I_gaussian", "I_beta", "I_beta_fallbacks", "O_I", "O_G"])
    def test_representation_table(self, tmp_path, monkeypatch, kind):
        rng = np.random.default_rng(3)
        traces = [AnnotationTrace(f"ann{m}", rng.uniform(-0.9, 0.9, size=30), 1.0)
                  for m in range(4)]
        ts = TraceSet(traces, window_length=1.0, bounds=(-1.0, 1.0))
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
    ])
    def test_errors_name_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
            read_table(path)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1,\xff\n")
        with pytest.raises(DataError, match="not a text table"):
            read_table(path)


# --- fuzzing ----------------------------------------------------------------

TOKENS = ["", " ", "abc", "nan", "inf", "-inf", "1e308", "-1e308", "0", "#", "1,2"]

mutation = st.tuples(st.sampled_from(["drop", "replace", "insert", "header", "row"]),
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
    return kind, "\n".join(",".join(cells) for cells in lines) + "\n"


def check_table(table):
    assert table.rows.shape == (len(table.lines), len(table.names))
    assert np.all(np.isfinite(table.rows))


def check_traces(traces):
    assert len(traces) >= 1
    period = traces[0].sample_period
    assert np.isfinite(period) and period > 0
    for tr in traces:
        assert len(tr) == len(traces[0]) >= 2 and tr.sample_period == period
        assert np.all(np.isfinite(tr.values))


def check_features(table):
    assert table.matrix.ndim == 2 and table.matrix.shape[0] >= 1
    assert np.all(np.isfinite(table.matrix))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mangled_tables())
def test_malformed_tables_give_data_errors(tmp_path, case):
    kind, text = case
    path = os.path.join(tmp_path, f"{kind}.csv")
    with open(path, "w") as fh:
        fh.write(text)
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
    traces = [AnnotationTrace("a", values, period), AnnotationTrace("b", values[::-1], period)]
    write_trace_table(path, traces)
    loaded = load_trace_table(path)
    assert [tr.sample_period for tr in loaded] == [period, period]
    for src, out in zip(traces, loaded):
        np.testing.assert_array_equal(out.values, src.values)
