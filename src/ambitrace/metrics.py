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


def ccc(x, y):
    """Concordance correlation coefficient (population moments).

    2*cov(x, y) / (var(x) + var(y) + (mean(x) - mean(y))^2), with a
    small-denominator guard returning 0 for flat equal-mean signals.
    """
    x, y = _pair(x, y)
    mx, my = x.mean(), y.mean()
    cov = ((x - mx) * (y - my)).mean()
    denom = x.var() + y.var() + (mx - my) ** 2
    if denom < CCC_DENOM_GUARD:
        return 0.0
    return float(2.0 * cov / denom)


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
