import math

import numpy as np
import pytest

from ambitrace.metrics import _concordance, ccc, sda


def ccc_naive(x, y):
    """Direct-summation oracle, no vectorization."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    vx = sum((a - mx) ** 2 for a in x) / n
    vy = sum((b - my) ** 2 for b in y) / n
    denom = vx + vy + (mx - my) ** 2
    if denom < 1e-12:
        return 0.0
    return 2.0 * cov / denom


def sda_naive(x, y):
    total = 0
    for t in range(1, len(x)):
        dx = x[t] - x[t - 1]
        dy = y[t] - y[t - 1]
        sx = 0 if dx == 0 else math.copysign(1, dx)
        sy = 0 if dy == 0 else math.copysign(1, dy)
        total += 1 if sx == sy else -1
    return total / (len(x) - 1)


class TestCCC:
    def test_self_agreement(self):
        assert ccc([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == pytest.approx(1.0)

    def test_anti_concordant(self):
        assert ccc([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_case(self):
        assert ccc([1, 2, 3], [2, 3, 4]) == pytest.approx(4.0 / 7.0, abs=1e-15)

    def test_degenerate_guard(self):
        assert ccc([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]) == 0.0

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.normal(size=(2, 10))
            a, b = abs(rng.normal()) + 0.1, rng.normal()
            assert ccc(x, y) == pytest.approx(ccc(y, x), abs=1e-12)
            assert ccc(a * x + b, a * y + b) == pytest.approx(ccc(x, y), abs=1e-10)

    def test_attenuation_vs_pearson(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x, y = rng.normal(size=(2, 8))
            assert abs(ccc(x, y)) <= abs(np.corrcoef(x, y)[0, 1]) + 1e-12 <= 1.0 + 1e-12

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = rng.integers(2, 13)
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert ccc(x, y) == pytest.approx(ccc_naive(list(x), list(y)), abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_gives_nan(self, bad):
        with np.errstate(invalid="ignore"):
            assert math.isnan(ccc([1.0, bad, 3.0], [1.0, 2.0, 3.0]))

    def test_length_errors(self):
        with pytest.raises(ValueError):
            ccc([1.0], [2.0])
        with pytest.raises(ValueError):
            ccc([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_perfect_prediction(self):
        assert ccc([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_scaled_and_shifted_reversal(self):
        # Perfectly anti-correlated, but the scale and the shift attenuate it:
        # 2 * cov / (var x + var y + (mean x - mean y)^2) = 2 (-4/3) / (2/3 + 8/3 + 9).
        assert ccc([1, 2, 3], [7, 5, 3]) == pytest.approx(-8.0 / 37.0, abs=1e-15)

    def test_constant_prediction(self):
        assert ccc([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]) == pytest.approx(0.0)

    def test_rounds_as_the_batched_training_loss(self):
        # A pair whose squared mean difference C's pow rounded apart from
        # the product the batched concordance takes.
        x = np.array([-6.640266764338137, 1.6443492706556797, 0.5396885621444194,
                      -4.866319027447243, 4.59187526590002])
        y = np.array([-0.2156465152590159, 4.481677783040711, 1.6595542858484418,
                      3.7283252619365976, 2.0010051062568084])
        assert ccc(x, y) == _concordance(x[None], y[None])[0][0]


class TestSDA:
    def test_self_agreement(self):
        assert sda([0.0, 0.5, 0.2], [0.0, 0.5, 0.2]) == 1.0

    def test_opposite(self):
        assert sda([1, 2, 3], [3, 2, 1]) == -1.0

    def test_zero_difference_rule(self):
        assert sda([0, 1, 1], [0, 2, 3]) == 0.0
        assert sda([1, 1], [2, 2]) == 1.0  # two zero diffs agree
        assert sda([1, 1], [2, 3]) == -1.0  # zero vs non-zero disagree

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, y = rng.normal(size=(2, 10))
            assert sda(np.exp(x), y) == sda(x, y)
            assert sda(x**3, np.exp(y)) == sda(x, y)

    def test_negation(self):
        rng = np.random.default_rng(4)
        x = np.cumsum(rng.uniform(0.1, 1.0, size=10))  # no zero diffs
        assert sda(x, -x) == -1.0

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = rng.integers(2, 13)
            x = rng.integers(-2, 3, size=n).astype(float)  # ties likely
            y = rng.integers(-2, 3, size=n).astype(float)
            assert sda(x, y) == pytest.approx(sda_naive(list(x), list(y)), abs=1e-12)
