"""Distribution fits over pooled annotations and the three trace representations.

The interval representation summarizes absolute annotation values per
window as {mu, sigma}; the individual ordinal representation does the
same over per-annotator trace gradients; the group ordinal
representation differentiates the interval parameters over time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import polygamma, psi

from .data_io import _atomic_write
from .traces import TraceSet, central_difference

GAUSSIAN = "gaussian"
BETA_MAPPED = "beta_mapped"

BETA_CLAMP_EPS = 1e-6
BETA_MAX_NEWTON_ITERS = 100


class FitError(ValueError):
    """A per-window distribution fit could not be computed."""


@dataclass
class DistParams:
    """Central tendency and spread of one window's fitted distribution.

    For the Beta family, mu/sigma are the Beta mean and std mapped back
    to original trace units and (alpha, beta) are kept alongside.
    """

    mu: float
    sigma: float
    family: str = GAUSSIAN
    beta_params: tuple[float, float] | None = None

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.family == BETA_MAPPED and self.beta_params is None:
            raise ValueError("beta family requires (alpha, beta)")


@dataclass
class IntervalRepresentation:
    params: list[DistParams]
    neighbor_radius: int

    def __len__(self):
        return len(self.params)

    @property
    def mu(self) -> np.ndarray:
        return np.array([p.mu for p in self.params])

    @property
    def sigma(self) -> np.ndarray:
        return np.array([p.sigma for p in self.params])


@dataclass
class IndividualOrdinal:
    params: list[DistParams]

    def __len__(self):
        return len(self.params)

    @property
    def mu(self) -> np.ndarray:
        return np.array([p.mu for p in self.params])

    @property
    def sigma(self) -> np.ndarray:
        return np.array([p.sigma for p in self.params])


@dataclass
class GroupOrdinal:
    dmu: np.ndarray
    dsigma: np.ndarray

    def __post_init__(self):
        self.dmu = np.asarray(self.dmu, dtype=float)
        self.dsigma = np.asarray(self.dsigma, dtype=float)
        if self.dmu.shape != self.dsigma.shape:
            raise ValueError("dmu and dsigma must have equal length")
        if not (np.all(np.isfinite(self.dmu)) and np.all(np.isfinite(self.dsigma))):
            raise ValueError("gradients must be finite")

    def __len__(self):
        return len(self.dmu)


def pool_neighbors(trace_set: TraceSet, index: int, radius: int) -> np.ndarray:
    """All annotator values in windows [index-radius, index+radius].

    Window indices are 0-based.  The pooling range is truncated at the
    sequence boundaries; no padding or reflection.
    """
    n = trace_set.window_count
    if not 0 <= index < n:
        raise IndexError(f"window index {index} out of range [0, {n})")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    lo = max(0, index - radius)
    hi = min(n - 1, index + radius)
    return trace_set.matrix()[:, lo : hi + 1].ravel()


def fit_gaussian(samples) -> DistParams:
    """Gaussian maximum-likelihood fit: sample mean and population std."""
    x = np.asarray(samples, dtype=float).ravel()
    if len(x) < 2:
        raise FitError("need at least two samples")
    if not np.all(np.isfinite(x)):
        raise FitError("samples contain non-finite values")
    return DistParams(mu=float(x.mean()), sigma=float(x.std()), family=GAUSSIAN)


def _beta_moment_estimate(x):
    m = x.mean()
    v = x.var()
    common = m * (1.0 - m) / v - 1.0
    alpha = max(m * common, 1e-3)
    beta = max((1.0 - m) * common, 1e-3)
    return alpha, beta


def fit_beta(samples, bounds) -> DistParams:
    """Beta maximum-likelihood fit of samples from a bounded range.

    Samples are mapped linearly to [0, 1] and clamped away from the
    support edges (exact 0/1 has infinite negative log-likelihood).
    (alpha, beta) solve the digamma score equations by Newton iteration
    from a method-of-moments start; if Newton does not converge the
    moment estimate is kept.  mu/sigma are reported back in original
    trace units.
    """
    lo, hi = bounds
    if not hi > lo:
        raise FitError("bounds must satisfy hi > lo")
    x = np.asarray(samples, dtype=float).ravel()
    if len(x) < 2:
        raise FitError("need at least two samples")
    if not np.all(np.isfinite(x)):
        raise FitError("samples contain non-finite values")
    if np.any(x < lo) or np.any(x > hi):
        raise FitError("samples outside the declared bounds")

    u = (x - lo) / (hi - lo)
    u = np.clip(u, BETA_CLAMP_EPS, 1.0 - BETA_CLAMP_EPS)
    if np.ptp(u) == 0.0:
        raise FitError("all samples identical after clamping; widen the pool")

    mean_log = np.log(u).mean()
    mean_log1m = np.log1p(-u).mean()
    alpha, beta = _beta_moment_estimate(u)
    a, b = alpha, beta
    converged = False
    for _ in range(BETA_MAX_NEWTON_ITERS):
        # Score of the mean log-likelihood in (a, b).
        ga = mean_log - (psi(a) - psi(a + b))
        gb = mean_log1m - (psi(b) - psi(a + b))
        if max(abs(ga), abs(gb)) < 1e-10:
            converged = True
            break
        t_ab = polygamma(1, a + b)
        h_aa = -polygamma(1, a) + t_ab
        h_bb = -polygamma(1, b) + t_ab
        det = h_aa * h_bb - t_ab * t_ab
        if det == 0.0:
            break
        da = -(h_bb * ga - t_ab * gb) / det
        db = -(h_aa * gb - t_ab * ga) / det
        step = 1.0
        while a + step * da <= 0 or b + step * db <= 0:
            step *= 0.5
            if step < 1e-12:
                break
        a += step * da
        b += step * db
    if not converged or not np.isfinite(a) or not np.isfinite(b) or a <= 0 or b <= 0:
        a, b = alpha, beta

    mean01 = a / (a + b)
    std01 = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    return DistParams(
        mu=float(lo + (hi - lo) * mean01),
        sigma=float((hi - lo) * std01),
        family=BETA_MAPPED,
        beta_params=(float(a), float(b)),
    )


def _fit_family(samples, family, bounds):
    if family == GAUSSIAN:
        return fit_gaussian(samples)
    if family == BETA_MAPPED:
        return fit_beta(samples, bounds)
    raise ValueError(f"unknown distribution family {family!r}")


def interval_representation(
    trace_set: TraceSet, family: str = GAUSSIAN, neighbor_radius: int = 1
) -> IntervalRepresentation:
    """Fit the chosen family per window over neighbor-pooled annotations."""
    if family == BETA_MAPPED and trace_set.bounds is None:
        raise ValueError("Beta fitting requires the TraceSet to declare bounds")
    params = []
    for n in range(trace_set.window_count):
        pooled = pool_neighbors(trace_set, n, neighbor_radius)
        try:
            params.append(_fit_family(pooled, family, trace_set.bounds))
        except FitError as exc:
            raise FitError(f"window {n}: {exc}") from exc
    return IntervalRepresentation(params=params, neighbor_radius=neighbor_radius)


def individual_ordinal(
    trace_set: TraceSet, neighbor_radius: int = 1
) -> IndividualOrdinal:
    """Gaussian fit per window over pooled per-annotator trace gradients.

    Gradients are always summarized with the Gaussian family: they are
    sign-symmetric around zero and not confined to a bounded support.
    """
    if trace_set.window_count < 2:
        raise ValueError("need at least two windows to differentiate")
    grads = np.stack([central_difference(tr.values) for tr in trace_set.traces])
    n_windows = grads.shape[1]
    params = []
    for n in range(n_windows):
        lo = max(0, n - neighbor_radius)
        hi = min(n_windows - 1, n + neighbor_radius)
        pooled = grads[:, lo : hi + 1].ravel()
        try:
            params.append(fit_gaussian(pooled))
        except FitError as exc:
            raise FitError(f"window {n}: {exc}") from exc
    return IndividualOrdinal(params=params)


def group_ordinal(interval: IntervalRepresentation) -> GroupOrdinal:
    """Rates of change of the interval representation's mu and sigma."""
    if len(interval) < 2:
        raise ValueError("need at least two windows to differentiate")
    return GroupOrdinal(
        dmu=central_difference(interval.mu),
        dsigma=central_difference(interval.sigma),
    )


# --- columnar text serialization -------------------------------------------

FORMAT_VERSION = 1

TAG_INTERVAL = "I"
TAG_INDIVIDUAL = "O_I"
TAG_GROUP = "O_G"


def representation_columns(rep):
    """(column names, column arrays) for one representation sequence."""
    if isinstance(rep, GroupOrdinal):
        return ["dmu", "dsigma"], [rep.dmu, rep.dsigma]
    has_beta = any(p.beta_params is not None for p in rep.params)
    cols = [rep.mu, rep.sigma]
    names = ["mu", "sigma"]
    if has_beta:
        names += ["alpha", "beta"]
        cols += [
            np.array([p.beta_params[0] for p in rep.params]),
            np.array([p.beta_params[1] for p in rep.params]),
        ]
    return names, cols


def representation_tag(rep) -> str:
    if isinstance(rep, IntervalRepresentation):
        return TAG_INTERVAL
    if isinstance(rep, IndividualOrdinal):
        return TAG_INDIVIDUAL
    if isinstance(rep, GroupOrdinal):
        return TAG_GROUP
    raise TypeError(f"not a representation: {type(rep).__name__}")


def write_representation(rep, path, source_hash=""):
    """Write a representation sequence as a headed columnar text table."""
    tag = representation_tag(rep)
    if isinstance(rep, IntervalRepresentation):
        family = rep.params[0].family
        radius = rep.neighbor_radius
    elif isinstance(rep, IndividualOrdinal):
        family, radius = GAUSSIAN, -1
    else:
        family, radius = "-", -1
    names, cols = representation_columns(rep)
    lines = [
        f"# format_version: {FORMAT_VERSION}",
        f"# representation: {tag}",
        f"# family: {family}",
        f"# neighbor_radius: {radius}",
        f"# source_hash: {source_hash}",
        ",".join(["window_index"] + names),
    ]
    for i in range(len(cols[0])):
        row = [str(i)] + [format(float(c[i]), ".17g") for c in cols]
        lines.append(",".join(row))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_representation(path):
    """Read a representation table back as (metadata dict, column dict)."""
    meta = {}
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    if header is None:
        raise ValueError(f"{path}: missing column header")
    data = np.array(rows)
    columns = {name: data[:, j] for j, name in enumerate(header)}
    return meta, columns
