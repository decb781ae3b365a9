import math

import mpmath
import numpy as np
import pytest

from arcpd.ar import DegenerateFitError, bic_select_order, mean_correct
from arcpd.sdtest import (
    OrderMode,
    SegmentTooShortError,
    chi_sq_upper_tail,
    discrimination_test,
    fixed_order,
)
from arcpd.simulate import ArmaSpec, PiecewiseSpec, replicate_seed, simulate_piecewise


def chi2_tail_quadrature(stat, df):
    """Numerical-integration oracle: integrate the chi-square density
    upper tail with tanh-sinh quadrature at 30 significant digits.

    The integrand is shifted to start at 0 and exp(-stat/2) is taken out of
    it, so the far tail keeps its relative accuracy (integrating the density
    over [stat, inf] directly is off by 1e-4 relative at stat = 400).
    """
    with mpmath.workdps(30):
        k = mpmath.mpf(df) / 2
        s = mpmath.mpf(stat)

        def shifted(u):
            return (s + u) ** (k - 1) * mpmath.exp(-u / 2)

        integral = mpmath.quad(shifted, [0, mpmath.inf])
        return float(mpmath.exp(-s / 2) * integral / (2**k * mpmath.gamma(k)))


def ar1_pair(seed, n, b1, b2):
    x = simulate_piecewise(PiecewiseSpec(((ArmaSpec(ar=(b1,)), n),)), replicate_seed(seed, 0))
    y = simulate_piecewise(PiecewiseSpec(((ArmaSpec(ar=(b2,)), n),)), replicate_seed(seed, 1))
    return x, y


def dense_fit_variance(gamma, order):
    """Innovation variance of the order-p Yule-Walker fit by a dense Toeplitz solve."""
    if order == 0:
        return gamma[0]
    G = np.array([[gamma[abs(i - j)] for j in range(order)] for i in range(order)])
    phi = np.linalg.solve(G, gamma[1 : order + 1])
    return gamma[0] - gamma[1 : order + 1] @ phi


def dense_bic_order(gamma, n, max_order):
    """Order in 0..max_order minimizing T * ln(2 pi s_p) + T + (p + 1) ln T,
    s_p from a dense Toeplitz solve, ties to the smallest order."""
    bics = [
        n * (math.log(2 * math.pi * dense_fit_variance(gamma, p)) + 1) + (p + 1) * math.log(n)
        for p in range(max_order + 1)
    ]
    return bics.index(min(bics))


def brute_force_discrimination(x, y, mode):
    """Segment-test oracle: direct-sum autocovariances (divisor T), a dense
    Toeplitz solve per fit, and the pooled fit on the sample-size-weighted
    average (T1 * gx + T2 * gy) / (T1 + T2).  In BIC mode every order
    minimizes the concentrated-likelihood BIC T (ln(2 pi s_p) + 1) + (p + 1) ln T
    over dense-solve variances: segment i over p = 0..min(max_order, T_i - 2)
    with its own T_i, the pooled fit over p = 0..min(max(p1, p2), T_min - 2)
    with T = T1 + T2.  Returns (statistic, orders, sigma2)."""
    xc = np.asarray(x, dtype=float) - np.mean(x)
    yc = np.asarray(y, dtype=float) - np.mean(y)
    n1, n2 = len(xc), len(yc)
    t_min = min(n1, n2)

    def acov(z, max_lag):
        n = len(z)
        return np.array([sum(z[t] * z[t - j] for t in range(j, n)) / n for j in range(max_lag + 1)])

    if mode.kind == "fixed":
        p1 = p2 = max(1, min(math.floor(math.log(t_min) ** mode.exponent), t_min // 3))
        gx, gy = acov(xc, p1), acov(yc, p2)
    else:
        max1 = min(mode.max_order, n1 - 2)
        max2 = min(mode.max_order, n2 - 2)
        gx, gy = acov(xc, max(max1, max2)), acov(yc, max(max1, max2))
        p1 = dense_bic_order(gx, n1, max1)
        p2 = dense_bic_order(gy, n2, max2)
    p0_max = min(max(p1, p2), t_min - 2)
    pooled = (n1 * gx[: p0_max + 1] + n2 * gy[: p0_max + 1]) / (n1 + n2)
    p0 = p1 if mode.kind == "fixed" else dense_bic_order(pooled, n1 + n2, p0_max)
    s1, s2, s0 = (
        dense_fit_variance(gx, p1),
        dense_fit_variance(gy, p2),
        dense_fit_variance(pooled, p0),
    )
    stat = n1 * math.log(s0 / s1) + n2 * math.log(s0 / s2)
    return stat, (p1, p2, p0), (s1, s2, s0)


def short_beside_ma_pair():
    """A 5-point segment beside an MA(0.9) segment of 800 points whose BIC order is 8."""
    x = np.random.default_rng(16).standard_normal(5)
    y = simulate_piecewise(PiecewiseSpec(((ArmaSpec(ma=(0.9,)), 800),)), 0)
    return x, y


class TestPooledAutocov:
    """The pooled fit reads the sample-size-weighted average of the two
    segments' autocovariances, (T1 * gx + T2 * gy) / (T1 + T2)."""

    def test_identical_segments(self):
        x = np.random.default_rng(0).standard_normal(50)
        s1, s2, s0 = discrimination_test(x, x.copy()).sigma2
        assert s1 == s2
        assert s0 == pytest.approx(s1, rel=1e-12)

    def test_weighted_average_form(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(30), rng.standard_normal(70)
        res = discrimination_test(x, y, OrderMode.fixed(1.5))
        p = res.orders[2]
        xc, yc = x - x.mean(), y - y.mean()
        gx = np.array([xc[j:] @ xc[: 30 - j] / 30 for j in range(p + 1)])
        gy = np.array([yc[j:] @ yc[: 70 - j] / 70 for j in range(p + 1)])
        want = dense_fit_variance((30 * gx + 70 * gy) / 100, p)
        assert res.sigma2[2] == pytest.approx(want, rel=1e-10)


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

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 10, 20, 25, 37])
    def test_matches_quadrature(self, df):
        # df 37 is the largest fixed-mode df at T = 65536.  Where the tail is
        # below 1e-10 an absolute check says nothing, so it is relative there.
        for stat in (0.3, 1.7, 5.0, 12.0, 40.0, 80.0, 150.0, 250.0, 400.0):
            oracle = chi2_tail_quadrature(stat, df)
            if oracle < 1e-10:
                assert chi_sq_upper_tail(stat, df) == pytest.approx(oracle, rel=1e-12, abs=0)
            else:
                assert chi_sq_upper_tail(stat, df) == pytest.approx(oracle, abs=1e-10)

    def test_strictly_decreasing(self):
        for df in (1, 2, 8):
            grid = [chi_sq_upper_tail(s, df) for s in np.arange(0.0, 50.0, 0.25)]
            assert all(a > b for a, b in zip(grid, grid[1:]))

    def test_negative_stat_rejected(self):
        with pytest.raises(ValueError):
            chi_sq_upper_tail(-0.1, 2)

    def test_non_integer_df_rejected(self):
        for df in (0, 2.5):
            with pytest.raises(ValueError, match="df must be a positive integer"):
                chi_sq_upper_tail(1.0, df)


class TestDiscriminationTest:
    @pytest.mark.parametrize(
        "case,mode",
        [
            pytest.param("ar1", OrderMode.fixed(1.5), id="ar1-fixed1.5"),
            pytest.param("ar1", OrderMode.bic(6), id="ar1-bic6"),
            pytest.param("unequal", OrderMode.fixed(1.5), id="unequal-fixed1.5"),
            pytest.param("unequal", OrderMode.fixed(2.5), id="unequal-fixed2.5"),
            pytest.param("unequal", OrderMode.bic(10), id="unequal-bic10"),
            pytest.param("short_beside_ma", OrderMode.fixed(1.5), id="short_beside_ma-fixed1.5"),
            pytest.param("short_beside_ma", OrderMode.bic(10), id="short_beside_ma-bic10"),
        ],
    )
    def test_matches_brute_force_oracle(self, case, mode):
        if case == "ar1":
            x, y = ar1_pair(20, 300, 0.6, -0.3)
        elif case == "unequal":
            x, _ = ar1_pair(21, 90, 0.8, 0.0)
            y = simulate_piecewise(PiecewiseSpec(((ArmaSpec(ar=(1.69, -0.81)), 350),)), 3)
        else:
            x, y = short_beside_ma_pair()
        res = discrimination_test(x, y, mode)
        stat, orders, sigma2 = brute_force_discrimination(x, y, mode)
        assert res.orders == orders
        np.testing.assert_allclose(res.sigma2, sigma2, rtol=1e-10, atol=0)
        assert res.statistic == pytest.approx(stat, rel=1e-8, abs=1e-8)
        if case == "short_beside_ma" and mode.kind == "bic":
            # the pooled search stops at the 5-point segment's length - 2,
            # below the other segment's lag 8
            assert orders[1] == 8 and orders[2] <= 3

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
        assert res.df == p1 + p2 - p0 + 1 >= min(p1, p2) + 1

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
        # beside a segment of BIC order 8; the search ends at that cap.
        x, y = short_beside_ma_pair()
        assert bic_select_order(mean_correct(y), 10) == 8
        res = discrimination_test(x, y, OrderMode.bic(10))
        p1, p2, p0 = res.orders
        assert p2 == 8
        assert p0 == 3
        assert res.df == p1 + p2 - p0 + 1
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

    def test_degenerate_segment_bic_mode(self):
        # a zero segment has order-0 variance 0, so no BIC order exists; the
        # search range named is the segment's own, min(max_order, T_i - 2)
        rng = np.random.default_rng(13)
        y = rng.standard_normal(50)
        with pytest.raises(
            DegenerateFitError, match=r"every order 0\.\.6: residual variance 0\.0 at order 0$"
        ):
            discrimination_test(np.zeros(50), y, OrderMode.bic(6))
        with pytest.raises(
            DegenerateFitError, match=r"every order 0\.\.3: residual variance 0\.0 at order 0$"
        ):
            discrimination_test(y, np.zeros(5), OrderMode.bic(6))

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
