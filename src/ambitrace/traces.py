"""Time-series primitives for multi-annotator trace processing.

A trace set is one (annotators, windows) matrix.  Windowing, delay
compensation and central differencing act along the last axis, so each
takes one annotator's 1-D trace or a whole matrix alike.  All functions
here are pure; no global state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import _ratio_as_int


@dataclass
class TraceSet:
    """Per-window traces of several annotators: one ``matrix`` row per id.

    ``bounds`` declares a closed value range (e.g. (-1, 1)) for bounded
    annotation protocols; leave it ``None`` for unbounded traces.
    """

    annotators: list[str]
    matrix: np.ndarray
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("a TraceSet matrix must be 2-D (annotators x windows)")
        if len(self.annotators) != len(self.matrix):
            raise ValueError(f"{len(self.annotators)} annotator ids for "
                             f"{len(self.matrix)} matrix rows")
        if len(self.matrix) < 2:
            raise ValueError("a TraceSet needs at least two annotators")
        if self.window_count == 0:
            raise ValueError("a TraceSet needs at least one window")
        finite = np.isfinite(self.matrix).all(axis=1)
        if not finite.all():
            raise ValueError(f"trace {self.annotators[np.argmin(finite)]!r} has "
                             f"non-finite values")
        if self.bounds is not None:
            lo, hi = self.bounds
            if not hi > lo:
                raise ValueError("bounds must satisfy hi > lo")
            outside = ((self.matrix < lo) | (self.matrix > hi)).any(axis=1)
            if outside.any():
                raise ValueError(
                    f"trace {self.annotators[np.argmax(outside)]!r} has values outside bounds"
                )

    @property
    def window_count(self) -> int:
        return self.matrix.shape[1]


def window_aggregate(raw, native_period, window_length):
    """Average consecutive samples along the last axis into fixed-length windows.

    A trailing partial window is discarded.  Returns one mean per full
    window; fewer samples than one window is an error.
    """
    raw = np.asarray(raw, dtype=float)
    if native_period <= 0 or window_length <= 0:
        raise ValueError("periods must be positive")
    if window_length < native_period:
        raise ValueError("window_length must be at least native_period")
    k = _ratio_as_int(window_length, native_period, "window/native period")
    n_windows = raw.shape[-1] // k
    if n_windows == 0:
        raise ValueError(f"{raw.shape[-1]} samples, fewer than one window of {k}")
    return raw[..., : n_windows * k].reshape(*raw.shape[:-1], n_windows, k).mean(axis=-1)


def shift_delay(raw, native_period, offset):
    """Compensate annotation lag by dropping the first ``offset`` seconds.

    Acts along the last axis and returns a view of ``raw``.  Only the
    label side is shifted; the caller is responsible for discarding the
    matching trailing stimulus frames.
    """
    raw = np.asarray(raw, dtype=float)
    if native_period <= 0:
        raise ValueError("native_period must be positive")
    if offset < 0:
        raise ValueError("offset must be non-negative")
    k = _ratio_as_int(offset, native_period, "offset/native period")
    if k >= raw.shape[-1]:
        raise ValueError(f"offset of {k} samples consumes the whole signal")
    return raw[..., k:]


def central_difference(values):
    """Per-step rate of change along the last axis: symmetric in the
    interior, one-sided at the ends.

    Interior: (x[n+1] - x[n-1]) / 2.  Exact on affine sequences,
    including the endpoints.
    """
    x = np.asarray(values, dtype=float)
    if x.shape[-1] < 2:
        raise ValueError("need at least two samples to differentiate")
    g = np.empty_like(x)
    g[..., 1:-1] = (x[..., 2:] - x[..., :-2]) / 2.0
    g[..., 0] = x[..., 1] - x[..., 0]
    g[..., -1] = x[..., -1] - x[..., -2]
    return g
