import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ambitrace.traces import (
    TraceSet,
    central_difference,
    shift_delay,
    window_aggregate,
)


class TestWindowAggregate:
    def test_150_samples_at_40ms_into_3s_windows(self):
        raw = np.arange(150, dtype=float)
        out = window_aggregate(raw, 75)
        assert len(out) == 2
        assert out[0] == pytest.approx(np.mean(raw[:75]))
        assert out[1] == pytest.approx(np.mean(raw[75:150]))

    def test_constant_input(self):
        out = window_aggregate(np.full(10, 3.5), 2)
        assert np.all(out == 3.5)

    def test_simple_means(self):
        out = window_aggregate([0, 1, 2, 3, 4, 5], 3)
        assert out.tolist() == [1.0, 4.0]

    def test_trailing_partial_window_discarded(self):
        out = window_aggregate([1, 2, 3, 4, 5], 2)
        assert out.tolist() == [1.5, 3.5]

    def test_commutes_with_constant_shift(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            raw = rng.normal(size=37)
            c = rng.normal()
            np.testing.assert_allclose(
                window_aggregate(raw + c, 5),
                window_aggregate(raw, 5) + c,
                atol=1e-12,
            )

    def test_errors(self):
        with pytest.raises(ValueError, match="0 samples, fewer than one window of 2"):
            window_aggregate([], 2)


class TestShiftDelay:
    def test_zero_offset_is_identity(self):
        raw = np.array([1.0, 2.0, 3.0])
        assert shift_delay(raw, 0).tolist() == raw.tolist()

    def test_four_seconds_at_40ms_drops_100(self):
        raw = np.arange(250, dtype=float)
        out = shift_delay(raw, 100)
        assert len(out) == 150
        assert out[0] == 100.0

    def test_index_shift(self):
        assert shift_delay([9, 8, 7], 1).tolist() == [8.0, 7.0]


class TestCentralDifference:
    def test_linear_ramp(self):
        assert central_difference([0, 1, 2, 3]).tolist() == [1, 1, 1, 1]

    def test_constant(self):
        assert central_difference([5, 5, 5]).tolist() == [0, 0, 0]

    def test_alternating(self):
        assert central_difference([0, 1, 0, 1]).tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_linearity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, y = rng.normal(size=(2, 9))
            a, b = rng.normal(size=2)
            np.testing.assert_allclose(
                central_difference(a * x + b * y),
                a * central_difference(x) + b * central_difference(y),
                atol=1e-12,
            )

    def test_affine_exact_including_endpoints(self):
        n = np.arange(15, dtype=float)
        out = central_difference(2.5 - 0.75 * n)
        np.testing.assert_allclose(out, -0.75, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            central_difference([1.0])


class TestTraceSet:
    def test_keeps_ids_and_values_in_order(self):
        matrix = np.random.default_rng(1).normal(size=(5, 20))
        ids = [f"a{i}" for i in range(5)]
        ts = TraceSet(ids, matrix[:, :19])
        assert ts.annotators == ids
        assert ts.window_count == 19
        np.testing.assert_array_equal(ts.matrix, matrix[:, :19])

    def test_values_on_the_bounds_accepted(self):
        ts = TraceSet(["a", "b"], [[-1.0, 1.0], [0.0, 0.0]], bounds=(-1.0, 1.0))
        assert ts.matrix.shape == (2, 2)
        assert ts.bounds == (-1.0, 1.0)

    @pytest.mark.parametrize("ids, matrix, message", [
        (["a", "b"], np.zeros(3), "must be 2-D"),
        (["a", "b"], np.zeros((2, 3, 1)), "must be 2-D"),
        (["a", "b", "c"], np.zeros((2, 3)), "3 annotator ids for 2 matrix rows"),
        (["a"], np.zeros((1, 5)), "at least two annotators"),
        (["a", "b"], np.zeros((2, 0)), "at least one window"),
        (["a", "b"], [[0.0, 1.0], [np.nan, 0.0]], "trace 'b' has non-finite values"),
        (["a", "b"], [[np.inf, 1.0], [0.0, 0.0]], "trace 'a' has non-finite values"),
    ])
    def test_refusals(self, ids, matrix, message):
        with pytest.raises(ValueError, match=message):
            TraceSet(ids, matrix)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matrix_rows_equal_one_dimensional_calls(data):
    """Each primitive on an (annotators, samples) matrix gives every row the
    bits the 1-D call on that row gives, the shifted view included."""
    per_window = data.draw(st.integers(1, 80))
    delay = data.draw(st.integers(0, 30))
    samples = data.draw(st.integers(max(2, delay + per_window), delay + 3 * per_window + 20))
    matrix = data.draw(arrays(np.float64, (data.draw(st.integers(1, 5)), samples),
                              elements=st.floats(-1e6, 1e6)))
    shifted = shift_delay(matrix, delay)
    windowed = window_aggregate(matrix, per_window)
    shifted_windows = window_aggregate(shifted, per_window)
    diffs = central_difference(matrix)
    for m, row in enumerate(matrix):
        np.testing.assert_array_equal(shifted[m], shift_delay(row, delay))
        np.testing.assert_array_equal(windowed[m], window_aggregate(row, per_window))
        np.testing.assert_array_equal(
            shifted_windows[m], window_aggregate(shift_delay(row, delay), per_window))
        np.testing.assert_array_equal(diffs[m], central_difference(row))
