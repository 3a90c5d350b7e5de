import numpy as np
import pytest
from conftest import run_fresh
from scipy.optimize import minimize
from scipy.special import polygamma, psi
from scipy.stats import beta as beta_dist

from ambitrace import representations
from ambitrace.dataset import read_table
from ambitrace.traces import TraceSet, central_difference
from ambitrace.representations import (
    BETA_MAPPED,
    FitError,
    GAUSSIAN,
    WindowFits,
    fit_beta,
    fit_gaussian,
    group_ordinal,
    individual_ordinal,
    interval_representation,
    pool_windows,
    write_representation,
)


def make_set(matrix, bounds=None):
    return TraceSet([f"ann{i}" for i in range(len(matrix))], matrix, bounds)


def read_columns(path):
    """A table's header metadata and its columns by name."""
    table = read_table(path)
    return table.meta, dict(zip(table.names, table.rows.T))


def beta_loglik_oracle(samples):
    """Generic numerical optimizer fit, independent of the Newton path."""

    def neg_ll(p):
        a, b = np.exp(p)  # enforce positivity via log-parameterization
        return -np.sum(beta_dist.logpdf(samples, a, b))

    res = minimize(neg_ll, x0=[0.0, 0.0], method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000})
    return np.exp(res.x)


class TestPoolNeighbors:
    def test_radius_zero_is_window_column(self):
        ts = make_set(np.arange(12.0).reshape(3, 4))
        pooled, _ = pool_windows(ts.matrix, 0)
        np.testing.assert_array_equal(pooled[2], [2.0, 6.0, 10.0])

    def test_interior_count_with_six_annotators(self):
        ts = make_set(np.random.default_rng(0).normal(size=(6, 5)))
        _, valid = pool_windows(ts.matrix, 1)
        assert valid[2].sum() == 18

    def test_boundary_truncates(self):
        ts = make_set(np.random.default_rng(0).normal(size=(6, 5)))
        _, valid = pool_windows(ts.matrix, 1)
        assert valid[0].sum() == 12


class TestGaussianFit:
    def test_closed_form(self):
        d = fit_gaussian([1, 2, 3])
        assert d.mu == pytest.approx(2.0)
        assert d.sigma == pytest.approx(np.sqrt(2.0 / 3.0))
        assert d.family == GAUSSIAN

    def test_degenerate_constant_allowed(self):
        d = fit_gaussian([4.0, 4.0, 4.0])
        assert (d.mu, d.sigma) == (4.0, 0.0)

    def test_symmetric_mean_zero(self):
        d = fit_gaussian([-2.0, -0.5, 0.5, 2.0])
        assert abs(d.mu) < 1e-12

    def test_shift_and_scale_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=30)
            c, a = rng.normal(), abs(rng.normal()) + 0.1
            base = fit_gaussian(x)
            shifted = fit_gaussian(x + c)
            scaled = fit_gaussian(a * x)
            assert shifted.mu == pytest.approx(base.mu + c, abs=1e-12)
            assert shifted.sigma == pytest.approx(base.sigma, abs=1e-12)
            assert scaled.mu == pytest.approx(a * base.mu, abs=1e-12)
            assert scaled.sigma == pytest.approx(a * base.sigma, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(FitError):
            fit_gaussian([1.0])


class TestPolygamma:
    """The numpy digamma and trigamma of the Beta Newton solve, against scipy."""

    X = np.logspace(-4, 12, 4001)

    def test_digamma(self):
        got, want = representations._digamma(self.X), psi(self.X)
        near_root = np.abs(want) < 1.0
        assert near_root.any()
        np.testing.assert_allclose(got[near_root], want[near_root], rtol=0, atol=1e-14)
        np.testing.assert_allclose(got[~near_root], want[~near_root], rtol=1e-14, atol=0)

    def test_trigamma(self):
        np.testing.assert_allclose(representations._trigamma(self.X), polygamma(1, self.X),
                                   rtol=1e-14, atol=0)

    def test_non_finite(self):
        x = np.array([np.inf, np.nan])
        np.testing.assert_array_equal(representations._digamma(x), psi(x))
        np.testing.assert_array_equal(representations._trigamma(x), polygamma(1, x))


def test_scipy_stays_off_the_import_path():
    code = (
        "import sys, numpy as np\n"
        "import ambitrace.cli, ambitrace.pipeline\n"
        "from ambitrace import representations\n"
        "u = np.random.default_rng(0).uniform(0.1, 0.9, size=(5, 40))\n"
        "fit = representations.fit_beta(u, (0.0, 1.0))\n"
        "assert fit.beta_fallbacks == 0\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


class TestBetaFit:
    @pytest.mark.parametrize("a,b", [(2.0, 5.0), (0.8, 0.8), (6.0, 2.0)])
    def test_recovers_parameters_and_matches_oracle(self, a, b):
        rng = np.random.default_rng(int(a * 10 + b))
        samples = rng.beta(a, b, size=10_000)
        fit = fit_beta(samples, (0.0, 1.0))
        fa, fb = fit.alpha, fit.beta
        assert fa == pytest.approx(a, rel=0.05)
        assert fb == pytest.approx(b, rel=0.05)
        oa, ob = beta_loglik_oracle(np.clip(samples, 1e-6, 1 - 1e-6))
        assert fa == pytest.approx(oa, rel=1e-3)
        assert fb == pytest.approx(ob, rel=1e-3)

    def test_moments_close_to_sample_moments(self):
        rng = np.random.default_rng(9)
        for a, b in [(2.0, 5.0), (1.5, 1.5), (8.0, 3.0)]:
            samples = rng.beta(a, b, size=10_000)
            fit = fit_beta(samples, (0.0, 1.0))
            assert fit.mu == pytest.approx(samples.mean(), rel=0.02)
            assert fit.sigma == pytest.approx(samples.std(), rel=0.02)

    def test_symmetric_samples_give_alpha_near_beta(self):
        rng = np.random.default_rng(5)
        x = rng.beta(3.0, 3.0, size=5000)
        x = np.concatenate([x, 1.0 - x])  # force exact symmetry about 0.5
        fit = fit_beta(x, (0.0, 1.0))
        fa, fb = fit.alpha, fit.beta
        assert fa == pytest.approx(fb, rel=1e-6)
        assert fit.mu == pytest.approx(0.5, abs=1e-9)

    def test_mapped_units(self):
        rng = np.random.default_rng(6)
        u = rng.beta(2.0, 2.0, size=2000)
        fit = fit_beta(2.0 * u - 1.0, (-1.0, 1.0))
        assert -1.0 < fit.mu < 1.0
        assert fit.family == BETA_MAPPED
        assert fit.mu == pytest.approx(2.0 * u.mean() - 1.0, abs=0.01)

    def test_boundary_sample_is_clamped(self):
        fit = fit_beta([0.0, 0.2, 0.5, 0.9], (0.0, 1.0))
        assert fit.alpha > 0

    def test_identical_after_clamp_errors(self):
        with pytest.raises(FitError):
            fit_beta([0.3, 0.3, 0.3], (0.0, 1.0))


class TestIntervalRepresentation:
    def test_constant_traces(self):
        ts = make_set(np.full((3, 6), 0.7))
        rep = interval_representation(ts, GAUSSIAN, neighbor_radius=1)
        np.testing.assert_allclose(rep.mu, 0.7, atol=1e-12)
        np.testing.assert_allclose(rep.sigma, 0.0, atol=1e-12)

    def test_mirrored_annotators_mu_zero(self):
        rng = np.random.default_rng(7)
        row = rng.uniform(-0.9, 0.9, size=8)
        ts = make_set(np.stack([row, -row]), bounds=(-1.0, 1.0))
        rep = interval_representation(ts, GAUSSIAN, neighbor_radius=1)
        np.testing.assert_allclose(rep.mu, 0.0, atol=1e-12)

    def test_radius_zero_matches_plain_gaussian_fit(self):
        rng = np.random.default_rng(8)
        matrix = rng.normal(size=(5, 4))
        ts = make_set(matrix)
        rep = interval_representation(ts, GAUSSIAN, neighbor_radius=0)
        for n in range(4):
            direct = fit_gaussian(matrix[:, n])
            assert rep.mu[n] == direct.mu
            assert rep.sigma[n] == direct.sigma

    def test_fit_error_names_window(self):
        ts = make_set(np.zeros((3, 4)), bounds=(-1.0, 1.0))
        with pytest.raises(FitError, match="window 0"):
            interval_representation(ts, BETA_MAPPED, neighbor_radius=1)

    def test_constant_interior_pool_names_its_window(self):
        matrix = np.random.default_rng(3).uniform(-0.9, 0.9, size=(3, 10))
        matrix[:, 4:7] = 0.25  # only window 5 pools nothing but 0.25
        ts = make_set(matrix, bounds=(-1.0, 1.0))
        with pytest.raises(FitError, match=r"^window 5: all samples identical"):
            interval_representation(ts, BETA_MAPPED, neighbor_radius=1)

    def test_single_sample_fit_names_no_window(self):
        with pytest.raises(FitError, match=r"^samples contain non-finite values$"):
            fit_gaussian([1.0, np.nan, 2.0])


class TestIndividualOrdinal:
    def test_constant_offsets_vanish(self):
        trend = np.sin(np.linspace(0, 3, 10))
        matrix = np.stack([trend + off for off in (-0.4, 0.0, 0.3)])
        rep = individual_ordinal(make_set(matrix), neighbor_radius=0)
        np.testing.assert_allclose(rep.sigma, 0.0, atol=1e-12)

    def test_all_constant(self):
        rep = individual_ordinal(make_set(np.full((2, 5), 1.2)), neighbor_radius=1)
        np.testing.assert_allclose(rep.mu, 0.0, atol=1e-12)
        np.testing.assert_allclose(rep.sigma, 0.0, atol=1e-12)

    def test_opposite_slopes_give_positive_sigma(self):
        # two annotators, equal values at even steps, opposite slopes
        matrix = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, -1.0, 0.0, -1.0]])
        rep = individual_ordinal(make_set(matrix), neighbor_radius=0)
        # hand evaluation: per-annotator central differences are
        # [1,0,0,1] and [-1,0,0,-1]; their per-window population stds:
        np.testing.assert_allclose(rep.mu, 0.0, atol=1e-12)
        np.testing.assert_allclose(rep.sigma, [1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_needs_two_windows(self):
        with pytest.raises(ValueError):
            individual_ordinal(make_set(np.ones((2, 1))))


class TestGroupOrdinal:
    def test_constant_params_zero_gradients(self):
        rep = interval_representation(make_set(np.full((3, 5), 0.2)), GAUSSIAN, 1)
        g = group_ordinal(rep)
        np.testing.assert_allclose(g.mu, 0.0, atol=1e-12)
        np.testing.assert_allclose(g.sigma, 0.0, atol=1e-12)

    def test_affine_mu_constant_slope(self):
        base = np.linspace(0.0, 1.0, 6)
        ts = make_set(np.stack([base, base + 0.2]))
        g = group_ordinal(interval_representation(ts, GAUSSIAN, 0))
        np.testing.assert_allclose(g.mu, base[1] - base[0], atol=1e-12)

    def test_hand_case(self):
        mu = np.array([0.0, 0.2, 0.1, 0.4])
        matrix = np.stack([mu, mu])  # identical annotators: interval mu == mu
        g = group_ordinal(interval_representation(make_set(matrix), GAUSSIAN, 0))
        np.testing.assert_allclose(g.mu, [0.2, 0.05, 0.1, 0.3], atol=1e-12)

    def test_overflow_is_a_fit_error(self):
        # Finite traces whose mean (I) or difference (O_G) overflows float64.
        big = np.array([0.0, 1.5e308, -1.5e308, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FitError, match="window 1: fit is not finite"):
                interval_representation(make_set(np.stack([big, big])), GAUSSIAN, 0)
            with pytest.raises(FitError, match="window 1: fit is not finite"):
                group_ordinal(WindowFits(mu=big[[1, 0, 2, 3]], sigma=np.zeros(4)))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        ts = make_set(rng.normal(size=(4, 6)))
        rep = interval_representation(ts, GAUSSIAN, 1)
        path = tmp_path / "rep.csv"
        write_representation(rep, path, source_hash="abc123")
        meta, cols = read_columns(path)
        assert meta["representation"] == "I"
        assert meta["source_hash"] == "abc123"
        np.testing.assert_array_equal(cols["mu"], rep.mu)
        np.testing.assert_array_equal(cols["sigma"], rep.sigma)

    def test_group_columns(self, tmp_path):
        ts = make_set(np.random.default_rng(12).normal(size=(3, 5)))
        g = group_ordinal(interval_representation(ts, GAUSSIAN, 1))
        path = tmp_path / "group.csv"
        write_representation(g, path)
        meta, cols = read_columns(path)
        assert meta["representation"] == "O_G"
        assert set(cols) == {"window_index", "dmu", "dsigma"}


# --- per-window reference ---------------------------------------------------
# The per-window pooling and fits that the array path replaced, kept as the
# reference it is checked against.  They return (mu, sigma, alpha, beta).


def ref_pool_neighbors(trace_set, index, radius):
    n = trace_set.window_count
    if not 0 <= index < n:
        raise IndexError(f"window index {index} out of range [0, {n})")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    lo = max(0, index - radius)
    hi = min(n - 1, index + radius)
    return trace_set.matrix[:, lo : hi + 1].ravel()


def ref_fit_gaussian(samples):
    x = np.asarray(samples, dtype=float).ravel()
    if len(x) < 2:
        raise FitError("need at least two samples")
    if not np.all(np.isfinite(x)):
        raise FitError("samples contain non-finite values")
    return float(x.mean()), float(x.std()), None, None


def _ref_beta_moment_estimate(x):
    m = x.mean()
    v = x.var()
    common = m * (1.0 - m) / v - 1.0
    alpha = max(m * common, 1e-3)
    beta = max((1.0 - m) * common, 1e-3)
    return alpha, beta


def ref_fit_beta(samples, bounds):
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
    u = np.clip(u, 1e-6, 1.0 - 1e-6)
    if np.ptp(u) == 0.0:
        raise FitError("all samples identical after clamping; widen the pool")

    mean_log = np.log(u).mean()
    mean_log1m = np.log1p(-u).mean()
    alpha, beta = _ref_beta_moment_estimate(u)
    a, b = alpha, beta
    converged = False
    for _ in range(100):
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
    return float(lo + (hi - lo) * mean01), float((hi - lo) * std01), float(a), float(b)


def assert_matches_reference(fits, reference):
    """Every column within 1e-12 of the reference column's scale."""
    reference = np.array(reference, dtype=float)
    columns = list(fits.columns().values())
    assert len(columns) == np.sum(~np.isnan(reference[0]))
    for j, column in enumerate(columns):
        scale = np.max(np.abs(reference[:, j]))
        np.testing.assert_allclose(column, reference[:, j], rtol=0, atol=1e-12 * scale)


class TestMatchesPerWindowReference:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("family", [GAUSSIAN, BETA_MAPPED])
    def test_random_shapes(self, seed, family):
        rng = np.random.default_rng(seed)
        annotators = int(rng.integers(2, 7))
        windows = int(rng.integers(2, 61))
        radius = int(rng.integers(0, 4))
        ts = make_set(rng.uniform(-0.9, 0.9, size=(annotators, windows)), bounds=(-1.0, 1.0))

        def ref(pool):
            out = ref_fit_gaussian(pool) if family == GAUSSIAN else ref_fit_beta(pool, ts.bounds)
            return [np.nan if v is None else v for v in out]

        rep = interval_representation(ts, family, radius)
        assert_matches_reference(
            rep, [ref(ref_pool_neighbors(ts, n, radius)) for n in range(windows)])

        grads = make_set(np.stack([central_difference(row) for row in ts.matrix]))
        individual = individual_ordinal(ts, radius)
        assert_matches_reference(individual, [
            ref_fit_gaussian(ref_pool_neighbors(grads, n, radius))[:2] + (np.nan, np.nan)
            for n in range(windows)])


class TestBetaFallbacks:
    def test_counted_and_written_to_the_table_header(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(13)
        ts = make_set(rng.uniform(-0.9, 0.9, size=(4, 9)), bounds=(-1.0, 1.0))
        path = tmp_path / "beta.csv"
        write_representation(interval_representation(ts, BETA_MAPPED, 1), path)
        meta, newton = read_columns(path)
        assert meta["beta_fallbacks"] == "0"

        monkeypatch.setattr(representations, "BETA_MAX_NEWTON_ITERS", 0)
        rep = interval_representation(ts, BETA_MAPPED, 1)
        assert rep.beta_fallbacks == 9
        write_representation(rep, path)
        meta, moments = read_columns(path)
        assert meta["beta_fallbacks"] == "9"
        for n in range(9):
            u = (ref_pool_neighbors(ts, n, 1) + 1.0) / 2.0
            expected = _ref_beta_moment_estimate(u)
            assert moments["alpha"][n] == pytest.approx(expected[0], rel=1e-12)
            assert moments["beta"][n] == pytest.approx(expected[1], rel=1e-12)
        assert not np.array_equal(moments["alpha"], newton["alpha"])

    def test_gaussian_tables_carry_no_count(self, tmp_path):
        ts = make_set(np.random.default_rng(14).normal(size=(3, 5)))
        path = tmp_path / "gauss.csv"
        write_representation(interval_representation(ts, GAUSSIAN, 1), path)
        meta, _ = read_columns(path)
        assert "beta_fallbacks" not in meta
