"""Time-series primitives for multi-annotator trace processing.

A trace set is one (annotators, windows) matrix.  Windowing, delay
compensation and central differencing act along the last axis, so each
takes one annotator's 1-D trace or a whole matrix alike.  They work in
samples: ``DatasetConfig`` turns the manifest's seconds into sample counts,
and ``prepare_item`` checks a trace against them before it is shifted and
windowed.  All functions here are pure; no global state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TraceSet:
    """Per-window traces of several annotators: one ``matrix`` row per id.

    ``bounds`` is the closed value range (e.g. (-1, 1)) of a bounded
    annotation protocol, else ``None``; it is data for the Beta fit, checked
    against the raw samples by ``prepare_item``, not here.
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

    @property
    def window_count(self) -> int:
        return self.matrix.shape[1]


def window_aggregate(raw, samples_per_window):
    """Average each ``samples_per_window`` consecutive samples along the last axis.

    A trailing partial window is discarded.  Returns one mean per full
    window; fewer samples than one window is an error.
    """
    raw = np.asarray(raw, dtype=float)
    n_windows = raw.shape[-1] // samples_per_window
    if n_windows == 0:
        raise ValueError(f"{raw.shape[-1]} samples, fewer than one window of "
                         f"{samples_per_window}")
    return raw[..., : n_windows * samples_per_window].reshape(
        *raw.shape[:-1], n_windows, samples_per_window).mean(axis=-1)


def shift_delay(raw, delay_samples):
    """Compensate annotation lag by dropping the first ``delay_samples`` samples.

    Acts along the last axis and returns a view of ``raw``.  Only the
    label side is shifted; the caller is responsible for discarding the
    matching trailing stimulus frames.
    """
    return np.asarray(raw, dtype=float)[..., delay_samples:]


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
