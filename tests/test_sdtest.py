import math

import mpmath
import numpy as np
import pytest

from arcpd.ar import DegenerateFitError, bic_select_order, mean_correct, sample_autocov
from arcpd.sdtest import (
    OrderMode,
    SegmentTooShortError,
    chi_sq_upper_tail,
    discrimination_test,
    fixed_order,
    pooled_autocov,
)
from arcpd.simulate import ArmaSpec, PiecewiseSpec, replicate_seed, simulate_piecewise


def chi2_tail_quadrature(stat, df):
    """Numerical-integration oracle: integrate the chi-square density
    upper tail with tanh-sinh quadrature at 30 significant digits."""
    with mpmath.workdps(30):
        k = mpmath.mpf(df) / 2

        def density(x):
            return x ** (k - 1) * mpmath.exp(-x / 2) / (2**k * mpmath.gamma(k))

        return float(mpmath.quad(density, [mpmath.mpf(stat), mpmath.inf]))


def ar1_pair(seed, n, b1, b2):
    x = simulate_piecewise(PiecewiseSpec(((ArmaSpec(ar=(b1,)), n),)), replicate_seed(seed, 0))
    y = simulate_piecewise(PiecewiseSpec(((ArmaSpec(ar=(b2,)), n),)), replicate_seed(seed, 1))
    return x, y


def pooled(x, y, max_lag):
    """pooled_autocov of two series, each taken to lag max_lag."""
    return pooled_autocov(sample_autocov(x, max_lag), sample_autocov(y, max_lag), max_lag)


class TestPooledAutocov:
    def test_identical_segments(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        x = x - x.mean()
        acov = pooled(x, x, 5)
        assert np.allclose(acov.gamma, sample_autocov(x, 5).gamma)
        assert acov.sample_size == 100

    def test_zero_second_segment_halves(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(40)
        x = x - x.mean()
        acov = pooled(x, np.zeros(40), 3)
        assert np.allclose(acov.gamma, sample_autocov(x, 3).gamma / 2.0)

    def test_mixed_example(self):
        acov = pooled([1, -1, 1, -1], [1, 1, 1, 1], 1)
        assert np.allclose(acov.gamma, [1.0, 0.0])

    def test_weighted_average_form(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(30)
        y = rng.standard_normal(70)
        x, y = x - x.mean(), y - y.mean()
        acov = pooled(x, y, 4)
        gx = sample_autocov(x, 4).gamma
        gy = sample_autocov(y, 4).gamma
        assert np.allclose(acov.gamma, (30 * gx + 70 * gy) / 100)

    def test_longer_sequences_are_cut_to_max_lag(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(30), rng.standard_normal(50)
        acov = pooled_autocov(sample_autocov(x, 9), sample_autocov(y, 6), 4)
        assert np.array_equal(acov.gamma, pooled(x, y, 4).gamma)

    def test_bad_lag(self):
        acov_x = sample_autocov([1.0, 2.0], 1)
        acov_y = sample_autocov([1.0, 2.0, 3.0], 2)
        with pytest.raises(ValueError, match=r"max_lag must be in \[0, 1\], got 2"):
            pooled_autocov(acov_x, acov_y, 2)
        with pytest.raises(ValueError, match="need autocovariances to lag 1, have 0"):
            pooled_autocov(sample_autocov([1.0, 2.0], 0), acov_y, 1)


class TestFixedOrder:
    def test_examples(self):
        assert fixed_order(256, 1000, 1.5) == 13
        assert fixed_order(1024, 2048, 1.2) == 10
        assert fixed_order(3, 100, 1.01) == 1

    def test_symmetric(self):
        assert fixed_order(100, 700, 1.5) == fixed_order(700, 100, 1.5)

    def test_cap_binds_for_short_segments(self):
        # raw floor((ln 12)^1.5) = 3; cap 12 // 3 = 4 does not bind
        assert fixed_order(12, 12, 1.5) == 3
        # raw floor((ln 9)^2.5) = 7 > 9 // 3 = 3
        assert fixed_order(9, 9, 2.5) == 3

    def test_exponent_must_exceed_one(self):
        with pytest.raises(ValueError):
            fixed_order(100, 100, 1.0)

    def test_tiny_segments_rejected(self):
        with pytest.raises(ValueError):
            fixed_order(2, 100, 1.5)


class TestChiSqUpperTail:
    def test_zero_stat_full_mass(self):
        for df in (1, 2, 7, 30):
            assert chi_sq_upper_tail(0.0, df) == 1.0

    def test_df2_closed_form(self):
        for stat in np.arange(0.0, 60.0, 0.5):
            assert chi_sq_upper_tail(float(stat), 2) == pytest.approx(
                math.exp(-stat / 2.0), abs=1e-12
            )

    def test_df1_critical_value(self):
        oracle = chi2_tail_quadrature(3.841459, 1)
        assert chi_sq_upper_tail(3.841459, 1) == pytest.approx(oracle, abs=1e-10)
        assert chi_sq_upper_tail(3.841459, 1) == pytest.approx(0.05, abs=1e-4)

    @pytest.mark.parametrize("df", [1, 3, 4, 10, 25])
    def test_matches_quadrature(self, df):
        for stat in (0.3, 1.7, 5.0, 12.0, 40.0):
            oracle = chi2_tail_quadrature(stat, df)
            assert chi_sq_upper_tail(stat, df) == pytest.approx(oracle, abs=1e-10)

    def test_strictly_decreasing(self):
        for df in (1, 2, 8):
            grid = [chi_sq_upper_tail(s, df) for s in np.arange(0.0, 50.0, 0.25)]
            assert all(a > b for a, b in zip(grid, grid[1:]))

    def test_negative_stat_rejected(self):
        with pytest.raises(ValueError):
            chi_sq_upper_tail(-0.1, 2)


class TestDiscriminationTest:
    def test_identical_segments_lambda_zero(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(300)
        res = discrimination_test(x, x.copy(), OrderMode.fixed(1.5))
        assert res.statistic == pytest.approx(0.0, abs=1e-10)
        assert res.p_value == pytest.approx(1.0)

    def test_scale_invariance(self):
        x, y = ar1_pair(5, 250, 0.5, 0.5)
        a = discrimination_test(x, y, OrderMode.fixed(1.5))
        b = discrimination_test(4.2 * x, 4.2 * y, OrderMode.fixed(1.5))
        assert b.statistic == pytest.approx(a.statistic, abs=1e-8)
        assert b.p_value == pytest.approx(a.p_value, abs=1e-10)
        assert b.df == a.df

    def test_swap_symmetry(self):
        x, y = ar1_pair(6, 200, 0.3, -0.4)
        a = discrimination_test(x, y, OrderMode.fixed(1.5))
        b = discrimination_test(y, x, OrderMode.fixed(1.5))
        assert b.statistic == pytest.approx(a.statistic, abs=1e-8)
        assert b.p_value == pytest.approx(a.p_value, abs=1e-10)

    def test_level_shift_is_not_a_change(self):
        x, y = ar1_pair(7, 400, 0.5, 0.5)
        shifted = discrimination_test(x, y + 50.0, OrderMode.fixed(1.5))
        plain = discrimination_test(x, y, OrderMode.fixed(1.5))
        assert shifted.statistic == pytest.approx(plain.statistic, abs=1e-6)

    def test_fixed_mode_orders_and_df(self):
        x, y = ar1_pair(8, 256, 0.2, 0.2)
        res = discrimination_test(x, y, OrderMode.fixed(1.5))
        assert res.orders == (13, 13, 13)
        assert res.df == 14

    def test_fixed_mode_nonnegative_statistic(self):
        for seed in range(25):
            x, y = ar1_pair(100 + seed, 120, 0.6, -0.6)
            res = discrimination_test(x, y, OrderMode.fixed(1.5))
            assert res.statistic >= -1e-8

    def test_default_mode_is_fixed(self):
        x, y = ar1_pair(9, 128, 0.1, 0.1)
        assert discrimination_test(x, y).orders == discrimination_test(
            x, y, OrderMode.fixed(1.5)
        ).orders

    def test_bic_mode_df_rule(self):
        x, y = ar1_pair(10, 512, 0.8, -0.8)
        res = discrimination_test(x, y, OrderMode.bic(6))
        p1, p2, p0 = res.orders
        assert res.df == max(p1 + p2 - p0 + 1, 1)

    def test_bic_mode_pooled_recursion_stops_early(self):
        # Each segment's sum of squares is near the float maximum, so the
        # pooled sum n1 * gx + n2 * gy overflows: both segment fits are finite
        # but the pooled residual variance is inf, which is no fit at all.
        x, y = ar1_pair(15, 200, 0.6, 0.6)
        x, y = mean_correct(x), mean_correct(y)
        x *= math.sqrt(1e308 / (x @ x))
        y *= math.sqrt(1e308 / (y @ y))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                DegenerateFitError, match="pooled segment fit has non-finite residual variance"
            ):
                discrimination_test(x, y, OrderMode.bic(6))

    def test_bic_mode_short_segment_cannot_supply_pooled_lag(self):
        # BIC orders are chosen per segment; the pooled search stops at the
        # shorter segment's length - 2, so a 5-point segment caps it at 3 even
        # beside a segment of BIC order 8.
        rng = np.random.default_rng(16)
        x = rng.standard_normal(5)
        y = simulate_piecewise(PiecewiseSpec(((ArmaSpec(ma=(0.9,)), 400),)), 0)
        assert bic_select_order(mean_correct(y), 10) == 8
        res = discrimination_test(x, y, OrderMode.bic(10))
        p1, p2, p0 = res.orders
        assert p2 == 8
        assert p0 <= 3
        assert res.fit_pooled.order == p0
        assert res.df == max(1, p1 + p2 - p0 + 1)
        assert math.isfinite(res.statistic)
        assert 0.0 <= res.p_value <= 1.0

    def test_bic_mode_detects_difference(self):
        x, y = ar1_pair(11, 512, 0.8, -0.8)
        res = discrimination_test(x, y, OrderMode.bic(6))
        assert res.p_value < 1e-6

    def test_distinct_processes_reject(self):
        x, y = ar1_pair(12, 300, 0.7, -0.7)
        assert discrimination_test(x, y).p_value < 1e-6

    def test_too_short_segment(self):
        with pytest.raises(SegmentTooShortError):
            discrimination_test([1.0, 2.0], [1.0, 2.0, 3.0, 4.0])

    def test_degenerate_segment(self):
        rng = np.random.default_rng(13)
        with pytest.raises(DegenerateFitError):
            discrimination_test(np.zeros(50), rng.standard_normal(50))

    def test_capped_order_warns(self):
        x, y = ar1_pair(14, 12, 0.2, 0.2)
        res = discrimination_test(x, y, OrderMode.fixed(2.5))
        assert res.orders[0] == 4  # floor((ln 12)^2.5) = 11 capped to 12 // 3
        assert any("capped" in w for w in res.warnings)


def test_null_calibration_small():
    # a small version of the acceptance check: same-process pairs at alpha 0.05
    spec = PiecewiseSpec(((ArmaSpec(ar=(0.5,)), 500),))
    rejections = 0
    for i in range(200):
        x = simulate_piecewise(spec, replicate_seed(2024, 2 * i))
        y = simulate_piecewise(spec, replicate_seed(2024, 2 * i + 1))
        res = discrimination_test(x, y, OrderMode.fixed(1.5))
        rejections += res.p_value <= 0.05
    assert 0.005 <= rejections / 200 <= 0.125
