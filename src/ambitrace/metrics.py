"""Agreement measures: CCC and SDA."""

from __future__ import annotations

import numpy as np

#: Below this denominator the concordance coefficient is treated as
#: degenerate (both signals flat with equal means) and reported as 0.
CCC_DENOM_GUARD = 1e-12


def _pair(x, y):
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least two samples")
    return x, y


def _concordance(x, y):
    """Concordance of x and y over the last axis, and the terms of its gradient.

    Returns (value, centred x, centred y, mean x, mean y, guarded
    denominator, usable mask); all but the centred values lack the last
    axis, so 1-D inputs give numpy scalars and 0-d arrays.  The variances
    are computed as ``np.var`` computes them, from the centred values.
    Where the denominator is below ``CCC_DENOM_GUARD`` (flat signals with
    equal means) the row is not usable: its value is 0 and its denominator
    1.  A NaN denominator is usable, so a non-finite input gives NaN.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mx, my = x.mean(axis=-1), y.mean(axis=-1)
    xc, yc = x - mx[..., None], y - my[..., None]
    cov = (xc * yc).mean(axis=-1)
    # On scalar means ``**`` is C's pow, on arrays a product; the two can
    # differ in the last bit, and each caller keeps the rounding it had.
    denom = (xc * xc).mean(axis=-1) + (yc * yc).mean(axis=-1) + (mx - my) ** 2
    usable = ~(denom < CCC_DENOM_GUARD)
    denom = np.where(usable, denom, 1.0)
    value = np.where(usable, 2.0 * cov / denom, 0.0)
    return value, xc, yc, mx, my, denom, usable


def ccc(x, y):
    """Concordance correlation coefficient (population moments).

    2*cov(x, y) / (var(x) + var(y) + (mean(x) - mean(y))^2), with a
    small-denominator guard returning 0 for flat equal-mean signals.
    The training loss (``model.ccc_loss_grad``) is 1 minus this value.
    """
    return float(_concordance(*_pair(x, y))[0])


def sda(x, y):
    """Signed differential agreement of two equally long signals.

    Compares the signs of consecutive first differences: +1 per step
    when the signs match (two zero differences also match), -1
    otherwise, averaged over the N-1 steps.  Only direction matters, so
    the score is invariant under strictly increasing transforms.
    """
    x, y = _pair(x, y)
    sx = np.sign(np.diff(x))
    sy = np.sign(np.diff(y))
    return float(np.where(sx == sy, 1.0, -1.0).mean())
