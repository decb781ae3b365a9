import dataclasses
import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import stats

from arcpd.ar import FLOAT_COUNT, DegenerateFitError, bic_select_order, mean_correct
from arcpd.pipeline import DetectConfig, detect_changepoints
from arcpd.sdtest import (
    BoundaryTest,
    DiscriminationResult,
    OrderMode,
    chi_sq_upper_tail,
    discrimination_test,
    segment_table,
)
from arcpd.simulate import (
    ArmaSpec,
    PiecewiseSpec,
    builtin_model,
    replicate_seed,
    simulate_piecewise,
)

from pairs import assert_same_tests, fit_orders, pair_test


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


def chi2_tail_recurrence(stat, df):
    """Reference chi-square tail for positive finite stat: the recurrence
    Q(k+2) = Q(k) + (x/2)^(k/2) exp(-x/2) / Gamma(k/2 + 1) from Q(1) =
    erfc(sqrt(x/2)) or Q(2) = exp(-x/2), run as a loop over steps k, each
    adding its term where df > k and k has df's parity."""
    half = 0.5 * np.asarray(stat, dtype=float)
    df = np.asarray(df)
    odd = df % 2 == 1
    q = np.exp(-half)
    q[odd] = [math.erfc(math.sqrt(v)) for v in half[odd].tolist()]
    with np.errstate(divide="ignore"):
        log_half = np.log(half)
    for k in range(1, int(df.max(initial=0))):
        step = (df > k) & (odd == (k % 2 == 1))
        q[step] += np.exp(0.5 * k * log_half[step] - half[step] - math.lgamma(0.5 * k + 1.0))
    return np.minimum(1.0, q)


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


def acov(z, max_lag):
    """Direct-sum autocovariances of z (divisor T) at lags 0..max_lag, in Python."""
    n = len(z)
    return np.array([sum(z[t] * z[t - j] for t in range(j, n)) / n for j in range(max_lag + 1)])


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


def oracle_partition():
    """Segments of one partition: two AR(1) segments of 300, a 2-point
    segment, an AR(0.8) segment of 90, a constant segment (its mean is exact,
    so it centres to zeros), an AR(2) segment of 350, a 12-point segment, and
    the 5-point and MA(0.9) segments of short_beside_ma_pair.  The 12- and
    5-point segments cap the fixed order."""
    a, b = ar1_pair(20, 300, 0.6, -0.3)
    c, _ = ar1_pair(21, 90, 0.8, 0.0)
    d = simulate_piecewise(PiecewiseSpec(((ArmaSpec(ar=(1.69, -0.81)), 350),)), 3)
    e, _ = ar1_pair(14, 12, 0.2, 0.2)
    five, ma = short_beside_ma_pair()
    return [a, b, np.array([0.3, -1.2]), c, np.full(40, 1.5), d, e, five, ma]


class TestPooledAutocov:
    """The pooled fit reads the sample-size-weighted average of the two
    segments' autocovariances, (T1 * gx + T2 * gy) / (T1 + T2)."""

    def test_identical_segments(self):
        x = np.random.default_rng(0).standard_normal(50)
        s1, s2, s0 = pair_test(x, x.copy()).sigma2[:, 0]
        assert s1 == s2
        assert s0 == pytest.approx(s1, rel=1e-12)

    def test_weighted_average_form(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(30), rng.standard_normal(70)
        res = pair_test(x, y, OrderMode.fixed(1.5))
        p = fit_orders(res)[2]
        xc, yc = x - x.mean(), y - y.mean()
        gx = np.array([xc[j:] @ xc[: 30 - j] / 30 for j in range(p + 1)])
        gy = np.array([yc[j:] @ yc[: 70 - j] / 70 for j in range(p + 1)])
        want = dense_fit_variance((30 * gx + 70 * gy) / 100, p)
        assert res.sigma2[2, 0] == pytest.approx(want, rel=1e-10)


def fixed_pair(len_x, len_y, exponent):
    """The fixed-order test of a len_x-point normal segment beside a len_y-point one."""
    x = np.random.default_rng(len_x).standard_normal(len_x + len_y)
    return discrimination_test(x, [len_x], OrderMode.fixed(exponent))


class TestFixedOrder:
    """floor((ln T_min) ** exponent), at least 1, capped at T_min // 3."""

    def test_examples(self):
        assert fit_orders(fixed_pair(256, 1000, 1.5)) == (13, 13, 13)
        assert fit_orders(fixed_pair(1024, 2048, 1.2)) == (10, 10, 10)
        assert fit_orders(fixed_pair(3, 100, 1.01)) == (1, 1, 1)

    def test_symmetric(self):
        assert fit_orders(fixed_pair(100, 700, 1.5)) == fit_orders(fixed_pair(700, 100, 1.5))

    def test_cap_binds_for_short_segments(self):
        # raw floor((ln 12)^1.5) = 3; cap 12 // 3 = 4 does not bind
        bt = fixed_pair(12, 12, 1.5)
        assert (fit_orders(bt), bt.warnings.get(0)) == ((3, 3, 3), None)
        # raw floor((ln 9)^2.5) = 7 > 9 // 3 = 3
        bt = fixed_pair(9, 9, 2.5)
        assert fit_orders(bt) == (3, 3, 3)
        assert bt.warnings.get(0) == "fixed order 7 capped to 3 for segment lengths (9, 9)"

    def test_exponent_must_exceed_one(self):
        with pytest.raises(ValueError, match="exponent must be > 1"):
            OrderMode.fixed(1.0)

    @pytest.mark.parametrize("flag", [False, True])
    def test_bool_exponent_or_max_order_rejected(self, flag):
        # A bool is a numbers.Integral: OrderMode.bic(True) ran with max_order 1.
        with pytest.raises(ValueError, match=f"^exponent must be a real number, got {flag}$"):
            OrderMode.fixed(flag)
        with pytest.raises(ValueError, match=f"^max_order must be an integer, got {flag}$"):
            OrderMode.bic(flag)

    @pytest.mark.parametrize("exponent", [26, 400, 1e308])
    def test_huge_exponent_saturates_at_the_cap(self, exponent):
        # floor((ln T_min) ** v) passes int64 at T_min = 1000 and v = 26, and
        # overflows a float at v = 1e308: an order past the cap is the cap,
        # and the note gives the raw order (inf where a float overflows).
        x = np.random.default_rng(5).standard_normal(2300)
        tests = discrimination_test(x, [1000, 2200], OrderMode.fixed(exponent))
        for i, (lengths, cap) in enumerate([((1000, 1200), 333), ((1200, 100), 33)]):
            try:
                raw = math.floor(math.log(min(lengths)) ** exponent)
            except OverflowError:
                raw = math.inf
            assert fit_orders(tests, i) == (cap, cap, cap)
            assert tests.warnings.get(i) == f"fixed order {raw} capped to {cap} for segment lengths {lengths}"

    def test_infinite_exponent_rejected(self):
        # The report's JSON would hold it as Infinity, which is not JSON;
        # nan already fails the > 1 rule.
        with pytest.raises(ValueError, match="^fixed-order exponent must be finite, got inf$"):
            OrderMode.fixed(math.inf)
        with pytest.raises(ValueError, match="^fixed-order exponent must be finite, got inf$"):
            OrderMode("bic", exponent=math.inf)
        with pytest.raises(ValueError, match="^fixed-order exponent must be > 1$"):
            OrderMode.fixed(math.nan)

    def test_tiny_segments_rejected(self):
        bt = fixed_pair(2, 100, 1.5)
        assert (bt.tested[0], bt.p_values[0]) == (False, 1.0)
        assert bt.warnings.get(0) == "segments of lengths (2, 100) are too short to compare"


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

    def test_array_input_matches_scipy(self):
        # One pass over mixed df (both parities, up to 37) and statistics from
        # 0 through the far tail to inf; scalars still give a float.
        rng = np.random.default_rng(11)
        df = rng.integers(1, 38, size=500)
        stat = rng.chisquare(df) * rng.uniform(0.1, 4.0, size=500)
        stat[:6] = 0.0
        stat[6:12] = np.inf
        got = chi_sq_upper_tail(stat, df)
        assert got.shape == (500,)
        np.testing.assert_allclose(got, stats.chi2.sf(stat, df), rtol=1e-10, atol=1e-10)
        assert (got[:6] == 1.0).all() and (got[6:12] == 0.0).all()
        grid = chi_sq_upper_tail(stat[:, None], np.array([1, 2, 9]))
        assert grid.shape == (500, 3)
        assert grid[20, 2] == chi_sq_upper_tail(float(stat[20]), 9)
        assert isinstance(chi_sq_upper_tail(3.0, 4), float)

    def test_term_table_matches_the_step_loop_bit_for_bit(self):
        # Every df from 1 to 300, both parities, against statistics from the
        # smallest subnormal to the far tail: the step loop over arrays of
        # many boundaries, one boundary at a time and broadcast grids.
        finite = np.r_[5e-324, 1e-300, 1e-8, np.geomspace(1.0, 1e4, 25)]
        df = np.arange(1, 301)
        want = chi2_tail_recurrence(*(a.ravel() for a in np.meshgrid(finite, df, indexing="ij")))
        want = want.reshape(len(finite), len(df))
        stat = np.r_[0.0, finite, np.inf]
        grid = chi_sq_upper_tail(stat[:, None], df)
        assert grid.shape == (len(stat), len(df))
        assert (grid[0] == 1.0).all() and (grid[-1] == 0.0).all()
        np.testing.assert_array_equal(grid[1:-1], want)
        np.testing.assert_array_equal(chi_sq_upper_tail(finite, df[:, None]), want.T)
        for i, s in enumerate(finite.tolist()):
            np.testing.assert_array_equal(chi_sq_upper_tail(s, df), want[i])
            for d in (1, 2, 9, 10, 37, 120, 299, 300):
                assert chi_sq_upper_tail(s, d) == want[i, d - 1]
        rng = np.random.default_rng(7)
        d = rng.integers(1, 301, size=400)
        s = rng.chisquare(d) * rng.uniform(0.2, 3.0, size=400)
        np.testing.assert_array_equal(chi_sq_upper_tail(s, d), chi2_tail_recurrence(s, d))
        # A T = 1024 pass tests 2 to 9 boundaries with df of about 5 to 14.
        small = rng.integers(1, 15, size=9)
        for c in range(2, 10):
            for dc in (d[:c], small[:c]):
                np.testing.assert_array_equal(
                    chi_sq_upper_tail(s[:c], dc), chi2_tail_recurrence(s[:c], dc)
                )

    @pytest.mark.parametrize("count", [FLOAT_COUNT - 1, FLOAT_COUNT, FLOAT_COUNT + 1])
    def test_few_values_match_the_table_bit_for_bit(self, count):
        # At most FLOAT_COUNT values are summed in Python floats: the same
        # bits as their entries in the step loop over more values, and as
        # the reference loop, on both sides of the size rule.  Statistics
        # from 0 and the smallest subnormal through the far tail to inf, df 1
        # to 300.
        rng = np.random.default_rng(count)
        for trial in range(60):
            df = rng.integers(1, (3, 15, 40, 301)[trial % 4], size=count)
            stat = rng.chisquare(df) * rng.uniform(0.1, 4.0, size=count)
            kind = rng.integers(0, 8, size=count)
            stat[kind == 0] = 0.0
            stat[kind == 1] = np.inf
            stat[kind == 2] = 5e-324
            stat[kind == 3] = 1e-300
            got = chi_sq_upper_tail(stat, df)
            pad = FLOAT_COUNT + 1  # the step loop, whatever count is
            loop = chi_sq_upper_tail(np.r_[stat, np.ones(pad)], np.r_[df, np.ones(pad, int)])
            assert got.shape == (count,) and got.tobytes() == loop[:count].tobytes()
            finite = np.isfinite(stat) & (stat > 0)
            want = chi2_tail_recurrence(stat[finite], df[finite])
            np.testing.assert_array_equal(got[finite], want)
            assert (got[stat == 0.0] == 1.0).all() and (got[stat == np.inf] == 0.0).all()
            if count % 4 == 0:  # a 2-D stack of the same values
                grid = chi_sq_upper_tail(stat.reshape(4, -1), df.reshape(4, -1))
                assert grid.shape == (4, count // 4) and grid.tobytes() == got.tobytes()
            for s, d, q in zip(stat.tolist(), df.tolist(), got.tolist()):
                assert chi_sq_upper_tail(s, d) == q

    def test_step_loop_memory_is_bounded_by_the_value_count(self):
        # A whole table of the terms of 2000 boundaries with df up to 3000
        # would hold 6e6 of them (48 MB); the step loop holds a few arrays of
        # the 2000 values, whatever df.
        rng = np.random.default_rng(8)
        df = rng.integers(1, 3001, size=2000)
        stat = rng.chisquare(df)
        df[0] = 3000
        tracemalloc.start()
        try:
            got = chi_sq_upper_tail(stat, df)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * len(stat) * 8
        np.testing.assert_allclose(got, stats.chi2.sf(stat, df), rtol=1e-9, atol=1e-12)

    def test_negative_stat_rejected(self):
        with pytest.raises(ValueError):
            chi_sq_upper_tail(-0.1, 2)
        with pytest.raises(ValueError, match="got -0.1"):
            chi_sq_upper_tail(np.array([1.0, -0.1, np.nan]), 2)
        # Statistics and df of one shape, on both sides of FLOAT_COUNT: the
        # message names the first statistic that is not nonnegative.
        for count in (1, FLOAT_COUNT, FLOAT_COUNT + 1):
            for bad, shown in ((-0.1, "-0.1"), (np.nan, "nan")):
                stat = np.ones(count)
                stat[-1] = bad
                with pytest.raises(ValueError, match=rf"^statistic must be nonnegative, got {shown}$"):
                    chi_sq_upper_tail(stat, np.full(count, 2))
                stat[0] = -2.5
                with pytest.raises(ValueError, match=r"^statistic must be nonnegative, got -2.5$"):
                    chi_sq_upper_tail(stat, np.full(count, 2))

    def test_non_integer_df_rejected(self):
        # A bool is not a df: True ran as df 1.
        for df in (0, 2.5, np.array([3, 0]), np.array([2.0, 1.5]), True, np.True_, [True, True]):
            with pytest.raises(ValueError, match="df must be a positive integer"):
                chi_sq_upper_tail(1.0, df)
        # The same on one shape, on both sides of FLOAT_COUNT; df is checked
        # before the statistics, and an infinite df raises without a warning.
        for count in (1, FLOAT_COUNT, FLOAT_COUNT + 1):
            for bad in (0, 2.5, np.nan, np.inf):
                df = np.full(count, 3.0)
                df[-1] = bad
                with pytest.raises(ValueError, match=r"^df must be a positive integer$"):
                    chi_sq_upper_tail(np.full(count, -0.1), df)


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
        res = pair_test(x, y, mode)
        stat, orders, sigma2 = brute_force_discrimination(x, y, mode)
        assert fit_orders(res) == orders
        np.testing.assert_allclose(res.sigma2[:, 0], sigma2, rtol=1e-10, atol=0)
        assert res.statistics[0] == pytest.approx(stat, rel=1e-8, abs=1e-8)
        if case == "short_beside_ma" and mode.kind == "bic":
            # the pooled search stops at the 5-point segment's length - 2,
            # below the other segment's lag 8
            assert orders[1] == 8 and orders[2] <= 3

    def test_identical_segments_lambda_zero(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(300)
        res = pair_test(x, x.copy(), OrderMode.fixed(1.5))
        assert res.statistics[0] == pytest.approx(0.0, abs=1e-10)
        assert res.p_values[0] == pytest.approx(1.0)

    def test_scale_invariance(self):
        x, y = ar1_pair(5, 250, 0.5, 0.5)
        a = pair_test(x, y, OrderMode.fixed(1.5))
        b = pair_test(4.2 * x, 4.2 * y, OrderMode.fixed(1.5))
        assert b.statistics[0] == pytest.approx(a.statistics[0], abs=1e-8)
        assert b.p_values[0] == pytest.approx(a.p_values[0], abs=1e-10)
        assert b.df[0] == a.df[0]

    def test_swap_symmetry(self):
        x, y = ar1_pair(6, 200, 0.3, -0.4)
        a = pair_test(x, y, OrderMode.fixed(1.5))
        b = pair_test(y, x, OrderMode.fixed(1.5))
        assert b.statistics[0] == pytest.approx(a.statistics[0], abs=1e-8)
        assert b.p_values[0] == pytest.approx(a.p_values[0], abs=1e-10)

    def test_level_shift_is_not_a_change(self):
        x, y = ar1_pair(7, 400, 0.5, 0.5)
        shifted = pair_test(x, y + 50.0, OrderMode.fixed(1.5))
        plain = pair_test(x, y, OrderMode.fixed(1.5))
        assert shifted.statistics[0] == pytest.approx(plain.statistics[0], abs=1e-6)

    def test_fixed_mode_orders_and_df(self):
        x, y = ar1_pair(8, 256, 0.2, 0.2)
        res = pair_test(x, y, OrderMode.fixed(1.5))
        assert fit_orders(res) == (13, 13, 13)
        assert res.df[0] == 14

    def test_fixed_mode_nonnegative_statistic(self):
        for seed in range(25):
            x, y = ar1_pair(100 + seed, 120, 0.6, -0.6)
            res = pair_test(x, y, OrderMode.fixed(1.5))
            assert res.statistics[0] >= -1e-8

    def test_default_mode_is_fixed(self):
        x, y = ar1_pair(9, 128, 0.1, 0.1)
        assert fit_orders(pair_test(x, y)) == fit_orders(pair_test(x, y, OrderMode.fixed(1.5)))

    def test_bic_mode_df_rule(self):
        x, y = ar1_pair(10, 512, 0.8, -0.8)
        res = pair_test(x, y, OrderMode.bic(6))
        p1, p2, p0 = fit_orders(res)
        assert res.df[0] == p1 + p2 - p0 + 1 >= min(p1, p2) + 1

    def test_bic_mode_pooled_recursion_stops_early(self):
        # Each segment's sum of squares is near the float maximum, so the
        # pooled sum n1 * gx + n2 * gy overflows: both segment fits are finite
        # but the pooled residual variance is inf, which is no fit at all.
        x, y = ar1_pair(15, 200, 0.6, 0.6)
        x, y = mean_correct(x), mean_correct(y)
        x *= math.sqrt(1e308 / (x @ x))
        y *= math.sqrt(1e308 / (y @ y))
        with pytest.raises(
            DegenerateFitError,
            match=r"^pooled segment fit breaks down at order 0: residual variance inf$",
        ):
            pair_test(x, y, OrderMode.bic(6))

    def test_bic_mode_short_segment_cannot_supply_pooled_lag(self):
        # BIC orders are chosen per segment; the pooled search stops at the
        # shorter segment's length - 2, so a 5-point segment caps it at 3 even
        # beside a segment of BIC order 8; the search ends at that cap.
        x, y = short_beside_ma_pair()
        assert bic_select_order(mean_correct(y), 10) == 8
        res = pair_test(x, y, OrderMode.bic(10))
        p1, p2, p0 = fit_orders(res)
        assert p2 == 8
        assert p0 == 3
        assert res.df[0] == p1 + p2 - p0 + 1
        assert math.isfinite(res.statistics[0])
        assert 0.0 <= res.p_values[0] <= 1.0

    def test_bic_mode_detects_difference(self):
        x, y = ar1_pair(11, 512, 0.8, -0.8)
        res = pair_test(x, y, OrderMode.bic(6))
        assert res.p_values[0] < 1e-6

    def test_distinct_processes_reject(self):
        x, y = ar1_pair(12, 300, 0.7, -0.7)
        assert pair_test(x, y).p_values[0] < 1e-6

    def test_too_short_segment(self):
        with pytest.raises(
            DegenerateFitError, match=r"^segments of lengths \(2, 4\) are too short to compare$"
        ):
            pair_test([1.0, 2.0], [1.0, 2.0, 3.0, 4.0])

    def test_degenerate_segment(self):
        rng = np.random.default_rng(13)
        with pytest.raises(DegenerateFitError):
            pair_test(np.zeros(50), rng.standard_normal(50))

    def test_overflowing_lag_products_are_untestable_without_a_warning(self):
        # The squares of the 1e154-scaled segment overflow to inf: the
        # boundary gets its untestable record, and numpy warns of nothing.
        rng = np.random.default_rng(0)
        x = np.r_[rng.standard_normal(300), rng.standard_normal(300) * 1e154]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bt = discrimination_test(x, [300])
        assert bt.p_values[0] == 1.0 and not bt.tested[0]
        assert bt.warnings.get(0) == "second segment fit breaks down at order 0: residual variance inf"

    @pytest.mark.parametrize("mode", [OrderMode.fixed(), OrderMode.bic()], ids=["fixed", "bic"])
    def test_overflowing_pooled_sums_are_untestable_without_a_warning(self, mode):
        # Unit-variance AR(0.9) and AR(-0.9) segments times 6e152: every lag
        # product and segment sum is finite, but the weighted pooled sum
        # n1 * gx + n2 * gy overflows.  At 4e152 the same pair tests normally.
        x, y = (mean_correct(z) / np.std(z) for z in ar1_pair(40, 300, 0.9, -0.9))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            big = discrimination_test(np.r_[x, y] * 6e152, [300], mode)
            fits = discrimination_test(np.r_[x, y] * 4e152, [300], mode)
        assert outcomes(big) == [
            (False, 1.0, "pooled segment fit breaks down at order 0: residual variance inf")
        ]
        assert fits.tested[0] and fits.p_values[0] < 1e-6

    def test_degenerate_segment_bic_mode(self):
        # a zero segment has order-0 variance 0, so its BIC order is 0 and its
        # fit breaks down there; the warning names that segment's side
        rng = np.random.default_rng(13)
        y = rng.standard_normal(50)
        with pytest.raises(
            DegenerateFitError,
            match=r"^first segment fit breaks down at order 0: residual variance 0\.0$",
        ):
            pair_test(np.zeros(50), y, OrderMode.bic(6))
        with pytest.raises(
            DegenerateFitError,
            match=r"^second segment fit breaks down at order 0: residual variance 0\.0$",
        ):
            pair_test(y, np.zeros(5), OrderMode.bic(6))

    def test_capped_order_warns(self):
        x, y = ar1_pair(14, 12, 0.2, 0.2)
        res = pair_test(x, y, OrderMode.fixed(2.5))
        assert fit_orders(res)[0] == 4  # floor((ln 12)^2.5) = 11 capped to 12 // 3
        assert "capped" in res.warnings.get(0)


def test_null_calibration_small():
    # a small version of the acceptance check: same-process pairs at alpha 0.05
    spec = PiecewiseSpec(((ArmaSpec(ar=(0.5,)), 500),))
    rejections = 0
    for i in range(200):
        x = simulate_piecewise(spec, replicate_seed(2024, 2 * i))
        y = simulate_piecewise(spec, replicate_seed(2024, 2 * i + 1))
        res = pair_test(x, y, OrderMode.fixed(1.5))
        rejections += res.p_values[0] <= 0.05
    assert 0.005 <= rejections / 200 <= 0.125


# A constant segment's fit breaks down at order 0 in either order mode; the
# warning names the side the constant segment is on.
FIRST_BREAKS_AT_ZERO = "first segment fit breaks down at order 0: residual variance 0.0"
SECOND_BREAKS_AT_ZERO = "second segment fit breaks down at order 0: residual variance 0.0"


class TestSegmentTable:
    """segment_table: each segment's lag sums about its own mean, one row
    per segment, read directly."""

    @pytest.mark.parametrize("width", [0, 3, 12])
    def test_rows_are_the_direct_sums(self, width):
        # Row s is len(s) times the direct-sum autocovariances of segment s
        # about its own mean, to rounding of its lag-0 sum.  Lags past a short
        # segment's length sum nothing, and the constant segment's row is 0.
        segs = oracle_partition()
        bounds = np.r_[0, np.cumsum([len(s) for s in segs])]
        sums = segment_table(np.concatenate(segs), bounds, width)
        assert sums.shape == (len(segs), width + 1)
        for row, seg in zip(sums, segs):
            want = len(seg) * acov(seg - seg.mean(), width)
            assert np.abs(row - want).max() <= 1e-12 * row[0]

    @pytest.mark.parametrize("value", [1 / 3, 1e6 + 0.1, -2.5e-7])
    def test_constant_segment_row_is_zero(self, value):
        # 300 copies of these values centre to tiny residues, not zeros: the
        # constant rule sets the row to 0.  Its neighbours' rows are, bit for
        # bit, those of the partition without it.
        rng = np.random.default_rng(0)
        a, b, flat = rng.standard_normal(300), rng.standard_normal(300), np.full(300, value)
        assert (flat - np.add.reduceat(flat, [0]) / 300).any()
        sums = segment_table(np.r_[a, flat, b], np.array([0, 300, 600, 900]), 5)
        assert not sums[1].any()
        without = segment_table(np.r_[a, b], np.array([0, 300, 600]), 5)
        assert sums[[0, 2]].tobytes() == without.tobytes()

    @pytest.mark.parametrize("width", [0, 3, 12])
    def test_rows_are_local_to_their_segments(self, width):
        # At one width, a segment's row over the whole partition is, bit for
        # bit, its row over that segment alone.
        segs = oracle_partition()
        bounds = np.r_[0, np.cumsum([len(s) for s in segs])]
        x = np.concatenate(segs)
        sums = segment_table(x, bounds, width)
        for row, lo, hi in zip(sums, bounds, bounds[1:]):
            alone = segment_table(x[lo:hi], np.array([0, hi - lo]), width)
            assert row.tobytes() == alone[0].tobytes()


def constant_stretch_series():
    """300 normals, 300 copies of 0.1 and 300 normals: one
    default_rng(0).standard_normal(600), split in two."""
    a, b = np.split(np.random.default_rng(0).standard_normal(600), 2)
    return np.r_[a, np.full(300, 0.1), b]


@pytest.mark.parametrize(
    "cfg",
    [
        DetectConfig(),
        DetectConfig(order_mode=OrderMode.bic()),
        DetectConfig(iterate=True),
        DetectConfig(order_mode=OrderMode.bic(), iterate=True),
        DetectConfig(window_radius=3),
        DetectConfig(order_mode=OrderMode.fixed(1e308)),
    ],
    ids=["default", "bic", "iterate", "bic-iterate", "h3", "fixed1e308"],
)
@pytest.mark.parametrize("series", ["B", "E", "constant-stretch"])
def test_reports_are_strict_json(series, cfg):
    # Untestable boundaries, capped orders and overflowing raw orders reach
    # the report as JSON numbers, null or text: never Infinity or NaN.
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    if series == "constant-stretch":
        x = constant_stretch_series()
    else:
        x = simulate_piecewise(builtin_model(series), replicate_seed(0, 0))
    text = json.dumps(detect_changepoints(x, cfg).to_dict())
    assert json.loads(text, parse_constant=reject)["series_length"] == len(x)


def outcomes(tests):
    """Per boundary, off the columns: whether it was tested, its p-value and its warning."""
    rows = zip(tests.tested.tolist(), tests.p_values.tolist())
    return [(ok, pv, tests.warnings.get(i)) for i, (ok, pv) in enumerate(rows)]


class TestPartition:
    """The pass over a whole partition against the brute-force oracle on
    each boundary's own pair; untestable boundaries are not tested, have
    p-value 1 and a warning that says why."""

    @pytest.mark.parametrize(
        "mode",
        [OrderMode.fixed(1.5), OrderMode.fixed(2.5), OrderMode.bic(10)],
        ids=["fixed1.5", "fixed2.5", "bic10"],
    )
    def test_every_boundary_matches_its_pair(self, mode):
        segs = oracle_partition()
        positions = np.cumsum([len(s) for s in segs])[:-1]
        tests = discrimination_test(np.concatenate(segs), positions, mode)
        assert len(tests) == len(segs) - 1
        untestable = {
            1: "segments of lengths (300, 2) are too short to compare",
            2: "segments of lengths (2, 90) are too short to compare",
            3: SECOND_BREAKS_AT_ZERO,
            4: FIRST_BREAKS_AT_ZERO,
        }
        for i, outcome in enumerate(outcomes(tests)):
            if i in untestable:
                assert outcome == (False, 1.0, untestable[i])
                continue
            stat, orders, _ = brute_force_discrimination(segs[i], segs[i + 1], mode)
            assert fit_orders(tests, i) == orders
            assert tests.df[i] == orders[0] + orders[1] - orders[2] + 1
            assert tests.statistics[i] == pytest.approx(stat, rel=1e-9, abs=1e-9)
            capped = mode.kind == "fixed" and (i in (6, 7) or (i == 5 and mode.exponent == 2.5))
            assert ("capped" in (tests.warnings.get(i) or "")) == capped

    @pytest.mark.parametrize(
        "mode",
        [OrderMode.fixed(1.5), OrderMode.fixed(2.5), OrderMode.bic(10)],
        ids=["fixed1.5", "fixed2.5", "bic10"],
    )
    def test_records_are_local_to_their_two_segments(self, mode):
        # Each boundary of a pass over the whole partition is, bit for bit,
        # the boundary of a pass over its own two segments alone: untestable
        # and capped boundaries included.
        segs = oracle_partition()
        bounds = np.r_[0, np.cumsum([len(s) for s in segs])].tolist()
        x = np.concatenate(segs)
        tests = discrimination_test(x, bounds[1:-1], mode)
        assert not tests.tested.all()
        assert any("capped" in w for w in tests.warnings.values()) == (mode.kind == "fixed")
        for i, (lo, hi) in enumerate(zip(bounds, bounds[2:])):
            alone = discrimination_test(x[lo:hi], [tests.positions[i] - lo], mode)
            want = (alone.p_values[0], alone.warnings.get(0))
            assert (tests.p_values[i], tests.warnings.get(i)) == want
            if not tests.tested[i]:
                assert not alone.tested[0]
                continue
            got = (tests.statistics[i], tests.df[i], fit_orders(tests, i), tuple(tests.sigma2[:, i]))
            want = (alone.statistics[0], alone.df[0], fit_orders(alone), tuple(alone.sigma2[:, 0]))
            assert got == want

    @pytest.mark.parametrize(
        "mode",
        [OrderMode.fixed(1.5), OrderMode.fixed(2.5), OrderMode.bic(10)],
        ids=["fixed1.5", "fixed2.5", "bic10"],
    )
    def test_short_segments_at_both_ends_and_inside(self, mode):
        # The first and last segments border the ends of the series, where
        # a lag product has no earlier segment to cross into.
        a, b = ar1_pair(30, 300, 0.6, -0.3)
        c, _ = ar1_pair(31, 200, 0.8, 0.0)
        short = np.random.default_rng(32).standard_normal(16)
        segs = [short[:4], a, short[4:11], c, short[11:]]
        assert [len(s) for s in segs] == [4, 300, 7, 200, 5]
        positions = np.cumsum([len(s) for s in segs])[:-1]
        tests = discrimination_test(np.concatenate(segs), positions, mode)
        assert len(tests) == 4
        for i, (left, right) in enumerate(zip(segs, segs[1:])):
            stat, orders, _ = brute_force_discrimination(left, right, mode)
            assert fit_orders(tests, i) == orders
            assert tests.statistics[i] == pytest.approx(stat, rel=1e-9, abs=1e-9)
            if mode.kind == "fixed":
                raw = math.floor(math.log(min(len(left), len(right))) ** mode.exponent)
                assert ("capped" in (tests.warnings.get(i) or "")) == (raw > orders[0])

    @pytest.mark.parametrize("mode", [OrderMode.fixed(), OrderMode.bic()], ids=["fixed", "bic"])
    def test_ranges_tile_the_series(self, mode):
        # The partition holds a 2-point segment and a constant one: the
        # dicts of untestable boundaries carry their ranges too.
        segs = oracle_partition()
        x = np.concatenate(segs)
        positions = np.cumsum([len(s) for s in segs])[:-1].tolist()
        columns = discrimination_test(x, positions, mode)
        tests = columns.dicts()
        assert [d["position"] for d in tests] == positions
        assert not columns.tested.all()
        for d in tests:
            assert d["left"][1] == d["position"] and d["right"][0] == d["position"] + 1
        ranges = [tests[0]["left"]] + [d["right"] for d in tests]
        assert ranges[0][0] == 1 and ranges[-1][1] == len(x)
        assert all(a[1] + 1 == b[0] for a, b in zip(ranges, ranges[1:]))
        assert [d["left"] for d in tests[1:]] == [d["right"] for d in tests[:-1]]

    @pytest.mark.parametrize("mode", [OrderMode.fixed(), OrderMode.bic()], ids=["fixed", "bic"])
    @pytest.mark.parametrize("value", [0.1, 0.3, 1.7, 1e6 + 0.1, -2.5e-7])
    def test_constant_segment_is_untestable(self, value, mode):
        # Only 0.3's mean rounds exactly, so only it centres to exact zeros;
        # the others leave tiny equal residues.  The relative rule makes all
        # of them constant.
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(300), rng.standard_normal(300)
        tests = discrimination_test(np.r_[a, np.full(300, value), b], [300, 600], mode)
        assert outcomes(tests) == [
            (False, 1.0, SECOND_BREAKS_AT_ZERO),
            (False, 1.0, FIRST_BREAKS_AT_ZERO),
        ]

    @pytest.mark.parametrize("mode", [OrderMode.fixed(), OrderMode.bic()], ids=["fixed", "bic"])
    def test_constant_rule_bound_is_relative_to_the_energy(self, mode):
        # At level 1 and 300 points the energy is about 300: noise of sd 1e-9
        # gives a centred lag-0 sum of about 1e-18 of it, sd 1e-15 (31 distinct
        # values a few ulps apart) about 1e-30, on either side of
        # CONSTANT_RTOL = (8 eps)**2 = 3.2e-30.
        rng = np.random.default_rng(0)
        a, noise = rng.standard_normal(300), rng.standard_normal(300)
        noisy = discrimination_test(np.r_[a, 1.0 + 1e-9 * noise], [300], mode)
        assert noisy.tested[0] and noisy.p_values[0] == 0.0
        flat = discrimination_test(np.r_[a, 1.0 + 1e-15 * noise], [300], mode)
        assert outcomes(flat) == [(False, 1.0, SECOND_BREAKS_AT_ZERO)]

    @pytest.mark.parametrize("mode", [OrderMode.fixed(), OrderMode.bic()], ids=["fixed", "bic"])
    def test_noisy_segment_at_a_high_level_is_tested(self, mode):
        # sd 1e-3 at level 1e8 is 1e-11 of the level: far above rounding, so
        # the segment is not constant and its boundary is tested.
        rng = np.random.default_rng(0)
        x = np.r_[rng.standard_normal(300), 1e8 + 1e-3 * rng.standard_normal(300)]
        bt = discrimination_test(x, [300], mode)
        assert bt.tested[0] and bt.warnings.get(0) is None and bt.p_values[0] == 0.0

    @pytest.mark.parametrize("value", [0.1, 1 / 3, 1e8 + 0.1, 7.3e-5])
    def test_long_constant_segment_is_untestable(self, value):
        # The mean's rounding residue of 2**20 equal values stays under the
        # constant rule's bound.
        rng = np.random.default_rng(0)
        x = np.r_[rng.standard_normal(300), np.full(2**20, value), rng.standard_normal(300)]
        tests = discrimination_test(x, [300, 300 + 2**20])
        assert outcomes(tests) == [
            (False, 1.0, SECOND_BREAKS_AT_ZERO),
            (False, 1.0, FIRST_BREAKS_AT_ZERO),
        ]

    def test_positions_must_increase_inside_the_series(self):
        x = np.random.default_rng(0).standard_normal(20)
        assert discrimination_test(x, []).positions.tolist() == []
        for bad in ([0], [20], [5, 5], [8, 4]):
            with pytest.raises(ValueError, match="positions must increase strictly"):
                discrimination_test(x, bad)
        for bad in ([8.0], [100.0], np.array([8.5]), ["8"], [True]):
            with pytest.raises(ValueError, match="positions must be integers"):
                discrimination_test(x, bad)
        for bad, shape in (([[8, 12]], r"\(1, 2\)"), (8, r"\(\)")):
            message = rf"^positions must be 1-D, got an array of shape {shape}$"
            with pytest.raises(ValueError, match=message):
                discrimination_test(x, bad)
        # numpy integers of any width are positions
        want = discrimination_test(x, [8])
        for good in ([np.int64(8)], np.array([8], dtype=np.int32), np.array([8], dtype=np.uint64)):
            assert_same_tests(discrimination_test(x, good), want)

    @pytest.mark.parametrize("mode", [OrderMode.fixed(), OrderMode.bic()], ids=["fixed", "bic"])
    def test_sample_length_buffers_are_freed_before_the_fits(self, mode):
        # 8 AR(+-0.5) regimes of 8192 points and their ~550 scan candidates:
        # the padded buffer, its lag products and the sample mask go once the
        # table is built, so the fits and the tail add only per-segment arrays.
        # Keeping them alive through the fits peaked at 5.5-6.1 len(x) doubles.
        spec = PiecewiseSpec(tuple(
            (ArmaSpec(ar=(0.5 if k % 2 == 0 else -0.5,)), 8192 * (k + 1)) for k in range(8)
        ))
        x = simulate_piecewise(spec, replicate_seed(101, 0))
        positions = detect_changepoints(x).candidates.positions
        assert len(positions) > 500
        tracemalloc.start()
        try:
            discrimination_test(x, positions, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * len(x) * 8


class TestBoundaryTestsSequence:
    """The pass's read-only columns iterate as the BoundaryTest records they
    stand for, built as they are read: the benchmark's view of them."""

    @pytest.mark.parametrize(
        "mode,flagged",
        [(OrderMode.fixed(2.5), [1, 2, 3, 4, 5, 6, 7]), (OrderMode.bic(), [1, 2, 3, 4])],
        ids=["fixed", "bic"],
    )
    def test_behaves_as_a_tuple_of_its_records(self, mode, flagged):
        segs = oracle_partition()
        x = np.concatenate(segs)
        positions = np.cumsum([len(s) for s in segs])[:-1].tolist()
        tests = discrimination_test(x, positions, mode)
        records = tuple(tests)
        assert all(isinstance(bt, BoundaryTest) for bt in records)
        assert len(tests) == len(records) == len(positions)
        first, *rest = tests
        assert (first, *rest) == records
        assert tuple(discrimination_test(x, positions, mode)) == records
        # the columns hold what the records hold, field by field
        assert [f.name for f in dataclasses.fields(BoundaryTest)] == ["position", "p_value", "result"]
        assert [f.name for f in dataclasses.fields(DiscriminationResult)] == ["statistic", "df"]
        assert tests.positions.tolist() == [bt.position for bt in records]
        assert tests.p_values.tolist() == [bt.p_value for bt in records]
        results = [bt.result for bt in records]
        assert tests.tested.tolist() == [r is not None for r in results]
        assert tests.statistics[tests.tested].tolist() == [r.statistic for r in results if r]
        assert tests.df[tests.tested].tolist() == [r.df for r in results if r]
        # the two segments too short to compare (1, 2), the constant segment's
        # broken-down fits (3, 4) and, in fixed mode, the capped orders (5-7)
        assert sorted(tests.warnings) == flagged
        assert set(np.flatnonzero(~tests.tested).tolist()) <= set(flagged)
        for column in (tests.bounds, tests.p_values, tests.orders):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1

    def test_no_boundary_is_the_empty_tuple(self):
        x = np.random.default_rng(0).standard_normal(20)
        tests = discrimination_test(x, [])
        assert tuple(tests) == () and not tests and list(tests) == []
        assert tests.bounds.tolist() == [0, 20] and tests.orders.shape == (3, 0)
