"""Distribution fits over pooled annotations and the three trace representations.

The interval representation summarizes absolute annotation values per
window as {mu, sigma}; the individual ordinal representation does the
same over per-annotator trace gradients; the group ordinal
representation differentiates the interval parameters over time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data_io import TAGS, AmbitraceError
from .dataset import write_table
from .traces import TraceSet, central_difference

GAUSSIAN = "gaussian"
BETA_MAPPED = "beta_mapped"

BETA_CLAMP_EPS = 1e-6
BETA_MAX_NEWTON_ITERS = 100

TAG_INTERVAL, TAG_INDIVIDUAL, TAG_GROUP = TAGS


class FitError(AmbitraceError, ValueError):
    """A per-window distribution fit could not be computed."""

    exit_code = 3
    prefix = "representation fit failed: "


@dataclass
class WindowFits:
    """Per-window fitted distributions, one array entry per window.

    A fit of one 1-D sample holds 0-d arrays.  For the Beta family,
    mu/sigma are the Beta mean and std mapped back to original trace
    units, (alpha, beta) are kept alongside, and ``beta_fallbacks``
    counts the windows whose Newton solve failed and kept the moment
    estimate.  All three representations are of this type, and ``tag``
    tells them apart: for the group ordinal (``O_G``) mu/sigma are the
    rates of change of the interval mu/sigma, with family ``-``.
    """

    mu: np.ndarray
    sigma: np.ndarray
    family: str = GAUSSIAN
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    beta_fallbacks: int = 0
    neighbor_radius: int = -1
    tag: str = ""

    def __post_init__(self):
        # Traces near the float64 limit can overflow a mean, a spread or a difference.
        finite = np.isfinite(self.mu) & np.isfinite(self.sigma)
        _raise_first_failure([(~finite, "fit is not finite; trace values too large")],
                             np.shape(self.mu))

    def __len__(self):
        return len(self.mu)

    def columns(self) -> dict:
        mu, sigma = ("dmu", "dsigma") if self.tag == TAG_GROUP else ("mu", "sigma")
        cols = {mu: self.mu, sigma: self.sigma}
        if self.alpha is not None:
            cols.update(alpha=self.alpha, beta=self.beta)
        return cols


def pool_windows(matrix, radius):
    """Pool an (annotators, windows) matrix into one row of samples per window.

    Row n holds every annotator's values in windows [n-radius, n+radius]
    (0-based, annotator-major), an (windows, annotators * (2 radius + 1))
    array.  The range is truncated at the sequence boundaries, with no
    padding or reflection in the fit: the returned mask of the same shape
    marks which cells of each row are samples.
    """
    matrix = np.asarray(matrix, dtype=float)
    annotators, n = matrix.shape
    index = np.arange(n)[:, None] + np.arange(-radius, radius + 1)
    inside = (index >= 0) & (index < n)
    # Cells outside the sequence repeat an edge window so they stay finite.
    pooled = matrix[:, np.clip(index, 0, n - 1)].transpose(1, 0, 2).reshape(n, -1)
    valid = np.broadcast_to(inside[:, None, :], (n, annotators, 2 * radius + 1))
    return pooled, valid.reshape(n, -1)


def _rows(samples, where):
    """Samples as (rows, pool) plus the matching validity mask."""
    x = np.atleast_1d(np.asarray(samples, dtype=float))
    lead = x.shape[:-1]
    shape = (int(np.prod(lead)), x.shape[-1])
    valid = np.broadcast_to(True if where is None else where, x.shape)
    return x.reshape(shape), valid.reshape(shape), lead


def _raise_first_failure(checks, lead_shape):
    """FitError for the first row failing any (bad rows, message) check.

    The message is that row's first failing check, so a sequence reports
    what a window-by-window fit would have reported first.  Rows are
    named as windows unless the input was a single 1-D sample.
    """
    bad = np.array([flags for flags, _ in checks])
    failing = np.flatnonzero(bad.any(axis=0))
    if failing.size:
        row = int(failing[0])
        message = checks[int(np.argmax(bad[:, row]))][1]
        raise FitError(f"window {row}: {message}" if lead_shape else message)


def _sample_checks(x, valid):
    counts = valid.sum(axis=-1)
    finite = np.all(np.isfinite(x) | ~valid, axis=-1)
    return [(counts < 2, "need at least two samples"),
            (~finite, "samples contain non-finite values")]


def fit_gaussian(samples, where=None) -> WindowFits:
    """Gaussian maximum-likelihood fit: sample mean and population std.

    Reduces over the last axis, one fit per row; ``where`` marks the
    cells that are samples (all of them by default).
    """
    x, valid, lead = _rows(samples, where)
    _raise_first_failure(_sample_checks(x, valid), lead)
    mu = np.mean(x, axis=-1, where=valid)
    sigma = np.std(x, axis=-1, where=valid)
    return WindowFits(mu=mu.reshape(lead), sigma=sigma.reshape(lead), family=GAUSSIAN)


# Both polygamma functions shift the argument up by recurrence, then apply
# the asymptotic series in 1/y (Bernardo 1976, AS 103; Schneider 1978,
# AS 121).  At y >= 10 the first omitted term is below 1e-15 relative.
_RECURRENCE_SHIFT = 10


def _digamma(x):
    """psi(x) for x > 0, elementwise."""
    recip = np.zeros_like(x)
    for k in range(_RECURRENCE_SHIFT):
        recip += 1.0 / (x + k)
    y = x + _RECURRENCE_SHIFT
    inv = 1.0 / y
    z = inv * inv
    series = z * (1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (1 / 240 - z * (
        1 / 132 - z * (691 / 32760 - z / 12))))))
    return np.log(y) - 0.5 * inv - series - recip


def _trigamma(x):
    """psi'(x) for x > 0, elementwise."""
    recip = np.zeros_like(x)
    for k in range(_RECURRENCE_SHIFT):
        recip += 1.0 / (x + k) ** 2
    y = x + _RECURRENCE_SHIFT
    inv = 1.0 / y
    z = inv * inv
    series = inv * z * (1 / 6 - z * (1 / 30 - z * (1 / 42 - z * (1 / 30 - z * (
        5 / 66 - z * (691 / 2730 - z * 7 / 6))))))
    return inv + 0.5 * z + series + recip


def _beta_newton(mean_log, mean_log1m, a, b):
    """Solve the Beta score equations for every row at once.

    Each row iterates until it converges or its Hessian is singular, with
    its own step halving to keep (a, b) positive.  Returns the final
    (a, b) and which rows converged.
    """
    a, b = a.copy(), b.copy()
    converged = np.zeros(a.shape, dtype=bool)
    active = np.arange(a.size)
    for _ in range(BETA_MAX_NEWTON_ITERS):
        if not active.size:
            break
        ai, bi = a[active], b[active]
        # One call per function over the rows a, b and a + b.
        abc = np.stack([ai, bi, ai + bi])
        psi_a, psi_b, psi_ab = _digamma(abc)
        tri_a, tri_b, t_ab = _trigamma(abc)
        # Score of the mean log-likelihood in (a, b).
        ga = mean_log[active] - (psi_a - psi_ab)
        gb = mean_log1m[active] - (psi_b - psi_ab)
        done = np.maximum(np.abs(ga), np.abs(gb)) < 1e-10
        converged[active[done]] = True
        h_aa = -tri_a + t_ab
        h_bb = -tri_b + t_ab
        det = h_aa * h_bb - t_ab * t_ab
        go = ~done & (det != 0.0)
        active, ai, bi, ga, gb = active[go], ai[go], bi[go], ga[go], gb[go]
        t_ab, h_aa, h_bb, det = t_ab[go], h_aa[go], h_bb[go], det[go]
        da = -(h_bb * ga - t_ab * gb) / det
        db = -(h_aa * gb - t_ab * ga) / det
        step = np.ones(active.size)
        halve = (ai + step * da <= 0) | (bi + step * db <= 0)
        while halve.any():
            step[halve] *= 0.5
            halve &= (step >= 1e-12) & ((ai + step * da <= 0) | (bi + step * db <= 0))
        a[active] = ai + step * da
        b[active] = bi + step * db
    return a, b, converged


def fit_beta(samples, bounds, where=None) -> WindowFits:
    """Beta maximum-likelihood fit of samples from a bounded range.

    Reduces over the last axis, one fit per row; ``where`` marks the
    cells that are samples (all of them by default).  Samples are
    mapped linearly to [0, 1] and clamped away from the support edges
    (exact 0/1 has infinite negative log-likelihood), as is a window mean
    that rounds just past a bound; ``prepare_item`` checks the raw samples
    against ``bounds``.  (alpha, beta) solve the digamma score equations by
    Newton iteration from a method-of-moments start; where Newton does not
    converge the moment estimate is kept and counted in ``beta_fallbacks``.
    mu/sigma are reported back in original trace units.
    """
    lo, hi = bounds
    x, valid, lead = _rows(samples, where)
    u = np.clip((x - lo) / (hi - lo), BETA_CLAMP_EPS, 1.0 - BETA_CLAMP_EPS)
    spread = (np.max(u, axis=-1, where=valid, initial=-np.inf)
              - np.min(u, axis=-1, where=valid, initial=np.inf))
    _raise_first_failure(_sample_checks(x, valid) + [
        (spread == 0.0, "all samples identical after clamping; widen the pool"),
    ], lead)

    m = np.mean(u, axis=-1, where=valid)
    common = m * (1.0 - m) / np.var(u, axis=-1, where=valid) - 1.0
    alpha = np.maximum(m * common, 1e-3)
    beta = np.maximum((1.0 - m) * common, 1e-3)
    a, b, converged = _beta_newton(np.mean(np.log(u), axis=-1, where=valid),
                                   np.mean(np.log1p(-u), axis=-1, where=valid),
                                   alpha, beta)
    fallback = ~(converged & np.isfinite(a) & np.isfinite(b) & (a > 0) & (b > 0))
    a = np.where(fallback, alpha, a)
    b = np.where(fallback, beta, b)

    mean01 = a / (a + b)
    std01 = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    return WindowFits(
        mu=(lo + (hi - lo) * mean01).reshape(lead),
        sigma=((hi - lo) * std01).reshape(lead),
        family=BETA_MAPPED,
        alpha=a.reshape(lead),
        beta=b.reshape(lead),
        beta_fallbacks=int(fallback.sum()),
    )


def interval_representation(
    trace_set: TraceSet, family: str = GAUSSIAN, neighbor_radius: int = 1
) -> WindowFits:
    """Fit the chosen family per window over neighbor-pooled annotations;
    the Beta family within ``trace_set.bounds``."""
    pooled, valid = pool_windows(trace_set.matrix, neighbor_radius)
    if family == BETA_MAPPED:
        fits = fit_beta(pooled, trace_set.bounds, where=valid)
    else:
        fits = fit_gaussian(pooled, where=valid)
    return replace(fits, neighbor_radius=neighbor_radius, tag=TAG_INTERVAL)


def individual_ordinal(trace_set: TraceSet, neighbor_radius: int = 1) -> WindowFits:
    """Gaussian fit per window over pooled per-annotator trace gradients.

    Gradients are always summarized with the Gaussian family: they are
    sign-symmetric around zero and not confined to a bounded support.
    """
    pooled, valid = pool_windows(central_difference(trace_set.matrix), neighbor_radius)
    return replace(fit_gaussian(pooled, where=valid),
                   neighbor_radius=neighbor_radius, tag=TAG_INDIVIDUAL)


def group_ordinal(interval: WindowFits) -> WindowFits:
    """Rates of change of the interval representation's mu and sigma."""
    return WindowFits(mu=central_difference(interval.mu),
                      sigma=central_difference(interval.sigma), family="-", tag=TAG_GROUP)


# --- columnar text serialization -------------------------------------------


def write_representation(rep, path, source_hash=""):
    """Write a representation sequence as a headed columnar text table."""
    meta = {"representation": rep.tag, "family": rep.family,
            "neighbor_radius": rep.neighbor_radius, "source_hash": source_hash}
    if rep.family == BETA_MAPPED:
        meta["beta_fallbacks"] = rep.beta_fallbacks
    write_table(path, meta, {"window_index": np.arange(len(rep)), **rep.columns()})
