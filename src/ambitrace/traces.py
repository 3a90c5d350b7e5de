"""Time-series primitives for multi-annotator trace processing.

Windowing, delay compensation, alignment and central differencing.  All
functions here are pure and operate on plain 1-D float arrays; no global
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_1d_finite(values, name="values"):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _ratio_as_int(numerator, denominator, what):
    """Integer ratio of two durations, which must match to a relative 1e-9."""
    ratio = numerator / denominator
    k = int(round(ratio))
    if abs(ratio - k) > 1e-9 * abs(ratio):
        raise ValueError(f"{what}: {numerator} is not a whole multiple of {denominator}")
    return k


@dataclass
class AnnotationTrace:
    """One annotator's uniformly sampled annotation signal."""

    annotator_id: str
    values: np.ndarray
    sample_period: float

    def __post_init__(self):
        self.values = _check_1d_finite(self.values, "trace values")
        if not (np.isfinite(self.sample_period) and self.sample_period > 0):
            raise ValueError("sample_period must be finite and positive")

    def __len__(self):
        return len(self.values)


@dataclass
class TraceSet:
    """Aligned per-window traces from several annotators.

    ``bounds`` declares a closed value range (e.g. (-1, 1)) for bounded
    annotation protocols; leave it ``None`` for unbounded traces.
    """

    traces: list[AnnotationTrace]
    window_length: float
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if len(self.traces) < 2:
            raise ValueError("a TraceSet needs at least two annotators")
        n = len(self.traces[0])
        period = self.traces[0].sample_period
        for tr in self.traces[1:]:
            if len(tr) != n:
                raise ValueError("all traces must have the same length")
            if tr.sample_period != period:
                raise ValueError("all traces must share one sample period")
        if self.bounds is not None:
            lo, hi = self.bounds
            if not hi > lo:
                raise ValueError("bounds must satisfy hi > lo")
            for tr in self.traces:
                if np.any(tr.values < lo) or np.any(tr.values > hi):
                    raise ValueError(
                        f"trace {tr.annotator_id!r} has values outside bounds"
                    )

    @property
    def annotator_count(self) -> int:
        return len(self.traces)

    @property
    def window_count(self) -> int:
        return len(self.traces[0])

    def matrix(self) -> np.ndarray:
        """Values as an (annotators, windows) array."""
        return np.stack([tr.values for tr in self.traces])


def window_aggregate(raw, native_period, window_length):
    """Average consecutive samples into fixed-length windows.

    A trailing partial window is discarded.  Returns one mean per full
    window.
    """
    raw = _check_1d_finite(raw, "raw")
    if native_period <= 0 or window_length <= 0:
        raise ValueError("periods must be positive")
    if window_length < native_period:
        raise ValueError("window_length must be at least native_period")
    k = _ratio_as_int(window_length, native_period, "window/native period")
    n_windows = len(raw) // k
    if n_windows == 0:
        return np.empty(0)
    return raw[: n_windows * k].reshape(n_windows, k).mean(axis=1)


def shift_delay(raw, native_period, offset):
    """Compensate annotation lag by dropping the first ``offset`` seconds.

    Only the label side is shifted; the caller is responsible for
    discarding the matching trailing stimulus frames.
    """
    raw = _check_1d_finite(raw, "raw")
    if native_period <= 0:
        raise ValueError("native_period must be positive")
    if offset < 0:
        raise ValueError("offset must be non-negative")
    k = _ratio_as_int(offset, native_period, "offset/native period")
    if k >= len(raw):
        raise ValueError(f"offset of {k} samples consumes the whole signal")
    return raw[k:].copy()


def align(traces, keep_first=None, bounds=None) -> TraceSet:
    """Truncate windowed traces to a shared length and bundle them.

    ``keep_first`` caps the number of windows kept (e.g. 19 for
    protocols that trim ragged sequence ends).  Annotator order and
    values are preserved; only trailing windows are dropped.
    """
    if len(traces) < 2:
        raise ValueError("alignment needs at least two traces")
    period = traces[0].sample_period
    for tr in traces[1:]:
        if tr.sample_period != period:
            raise ValueError("traces have mismatched sample periods")
    n = min(len(tr) for tr in traces)
    if keep_first is not None:
        if keep_first < 1:
            raise ValueError("keep_first must be positive")
        n = min(n, keep_first)
    if n == 0:
        raise ValueError("alignment produced zero windows")
    truncated = [
        AnnotationTrace(tr.annotator_id, tr.values[:n], period) for tr in traces
    ]
    return TraceSet(truncated, window_length=period, bounds=bounds)


def central_difference(values):
    """Per-step rate of change: symmetric in the interior, one-sided at the ends.

    Interior: (x[n+1] - x[n-1]) / 2.  Exact on affine sequences,
    including the endpoints.
    """
    x = _check_1d_finite(values, "values")
    if len(x) < 2:
        raise ValueError("need at least two samples to differentiate")
    g = np.empty_like(x)
    g[1:-1] = (x[2:] - x[:-2]) / 2.0
    g[0] = x[1] - x[0]
    g[-1] = x[-1] - x[-2]
    return g
