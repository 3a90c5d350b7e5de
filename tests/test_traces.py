import numpy as np
import pytest

from ambitrace.traces import (
    AnnotationTrace,
    TraceSet,
    align,
    central_difference,
    shift_delay,
    window_aggregate,
)


class TestWindowAggregate:
    def test_150_samples_at_40ms_into_3s_windows(self):
        raw = np.arange(150, dtype=float)
        out = window_aggregate(raw, 0.04, 3.0)
        assert len(out) == 2
        assert out[0] == pytest.approx(np.mean(raw[:75]))
        assert out[1] == pytest.approx(np.mean(raw[75:150]))

    def test_constant_input(self):
        out = window_aggregate(np.full(10, 3.5), 1.0, 2.0)
        assert np.all(out == 3.5)

    def test_simple_means(self):
        out = window_aggregate([0, 1, 2, 3, 4, 5], 1.0, 3.0)
        assert out.tolist() == [1.0, 4.0]

    def test_trailing_partial_window_discarded(self):
        out = window_aggregate([1, 2, 3, 4, 5], 1.0, 2.0)
        assert out.tolist() == [1.5, 3.5]

    def test_commutes_with_constant_shift(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            raw = rng.normal(size=37)
            c = rng.normal()
            np.testing.assert_allclose(
                window_aggregate(raw + c, 1.0, 5.0),
                window_aggregate(raw, 1.0, 5.0) + c,
                atol=1e-12,
            )

    def test_errors(self):
        with pytest.raises(ValueError):
            window_aggregate([], 1.0, 2.0)
        with pytest.raises(ValueError):
            window_aggregate([1.0, 2.0], -1.0, 2.0)
        with pytest.raises(ValueError):
            window_aggregate([1.0, 2.0], 1.0, 0.5)

    def test_window_must_be_whole_samples(self):
        with pytest.raises(ValueError, match="whole multiple"):
            window_aggregate(np.arange(6.0), 1.0, 1.3)


class TestShiftDelay:
    def test_zero_offset_is_identity(self):
        raw = np.array([1.0, 2.0, 3.0])
        assert shift_delay(raw, 0.04, 0.0).tolist() == raw.tolist()

    def test_four_seconds_at_40ms_drops_100(self):
        raw = np.arange(250, dtype=float)
        out = shift_delay(raw, 0.04, 4.0)
        assert len(out) == 150
        assert out[0] == 100.0

    def test_index_shift(self):
        assert shift_delay([9, 8, 7], 1.0, 1.0).tolist() == [8.0, 7.0]

    def test_offset_must_be_whole_samples(self):
        with pytest.raises(ValueError, match="whole multiple"):
            shift_delay(np.arange(6.0), 1.0, 0.49)

    def test_offset_consuming_signal_errors(self):
        with pytest.raises(ValueError):
            shift_delay([1.0, 2.0], 1.0, 2.0)


class TestAlign:
    def _traces(self, lengths, period=1.0):
        return [
            AnnotationTrace(f"a{i}", np.arange(n, dtype=float), period)
            for i, n in enumerate(lengths)
        ]

    def test_keep_first_19(self):
        ts = align(self._traces([20] * 5), keep_first=19)
        assert ts.window_count == 19
        assert ts.annotator_count == 5

    def test_min_length_rule(self):
        ts = align(self._traces([19, 19, 18]))
        assert ts.window_count == 18

    def test_single_trace_rejected(self):
        with pytest.raises(ValueError):
            align(self._traces([5]))

    def test_mismatched_periods_rejected(self):
        traces = self._traces([5, 5])
        traces[1].sample_period = 2.0
        with pytest.raises(ValueError):
            align(traces)

    def test_never_reorders_or_alters_values(self):
        rng = np.random.default_rng(1)
        traces = [
            AnnotationTrace(f"a{i}", rng.normal(size=12), 1.0) for i in range(3)
        ]
        ts = align(traces, keep_first=10)
        for src, out in zip(traces, ts.traces):
            assert out.annotator_id == src.annotator_id
            np.testing.assert_array_equal(out.values, src.values[:10])


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
    def test_bounds_enforced(self):
        traces = [
            AnnotationTrace("a", [0.0, 1.5], 1.0),
            AnnotationTrace("b", [0.0, 0.5], 1.0),
        ]
        with pytest.raises(ValueError):
            TraceSet(traces, window_length=1.0, bounds=(-1.0, 1.0))

    def test_matrix_shape(self):
        traces = [AnnotationTrace(c, [0.0, 1.0, 2.0], 1.0) for c in "ab"]
        ts = TraceSet(traces, window_length=1.0)
        assert ts.matrix().shape == (2, 3)
