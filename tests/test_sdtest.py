import math
import tracemalloc
import warnings
from collections.abc import Sequence

import mpmath
import numpy as np
import pytest
from scipy import stats

from arcpd.ar import DegenerateFitError, bic_select_order, mean_correct
from arcpd.pipeline import detect_changepoints
from arcpd.sdtest import (
    TAIL_VALUES,
    BoundaryTest,
    OrderMode,
    chi_sq_upper_tail,
    discrimination_test,
)
from arcpd.simulate import ArmaSpec, PiecewiseSpec, replicate_seed, simulate_piecewise


def pair_test(x, y, mode=None):
    """Test x against y as the one-boundary partition and return its record;
    an untestable boundary's warning is raised as a DegenerateFitError."""
    bt = discrimination_test(np.concatenate([x, y]), [len(x)], mode)[0]
    if bt.result is None:
        raise DegenerateFitError(bt.warning)
    return bt


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
        s1, s2, s0 = pair_test(x, x.copy()).result.sigma2
        assert s1 == s2
        assert s0 == pytest.approx(s1, rel=1e-12)

    def test_weighted_average_form(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(30), rng.standard_normal(70)
        res = pair_test(x, y, OrderMode.fixed(1.5))
        p = res.result.orders[2]
        xc, yc = x - x.mean(), y - y.mean()
        gx = np.array([xc[j:] @ xc[: 30 - j] / 30 for j in range(p + 1)])
        gy = np.array([yc[j:] @ yc[: 70 - j] / 70 for j in range(p + 1)])
        want = dense_fit_variance((30 * gx + 70 * gy) / 100, p)
        assert res.result.sigma2[2] == pytest.approx(want, rel=1e-10)


def fixed_pair(len_x, len_y, exponent):
    """The fixed-order record of a len_x-point normal segment beside a len_y-point one."""
    x = np.random.default_rng(len_x).standard_normal(len_x + len_y)
    return discrimination_test(x, [len_x], OrderMode.fixed(exponent))[0]


class TestFixedOrder:
    """floor((ln T_min) ** exponent), at least 1, capped at T_min // 3."""

    def test_examples(self):
        assert fixed_pair(256, 1000, 1.5).result.orders == (13, 13, 13)
        assert fixed_pair(1024, 2048, 1.2).result.orders == (10, 10, 10)
        assert fixed_pair(3, 100, 1.01).result.orders == (1, 1, 1)

    def test_symmetric(self):
        assert fixed_pair(100, 700, 1.5).result.orders == fixed_pair(700, 100, 1.5).result.orders

    def test_cap_binds_for_short_segments(self):
        # raw floor((ln 12)^1.5) = 3; cap 12 // 3 = 4 does not bind
        bt = fixed_pair(12, 12, 1.5)
        assert (bt.result.orders, bt.warning) == ((3, 3, 3), None)
        # raw floor((ln 9)^2.5) = 7 > 9 // 3 = 3
        bt = fixed_pair(9, 9, 2.5)
        assert bt.result.orders == (3, 3, 3)
        assert bt.warning == "fixed order 7 capped to 3 for segment lengths (9, 9)"

    def test_exponent_must_exceed_one(self):
        with pytest.raises(ValueError, match="exponent must be > 1"):
            OrderMode.fixed(1.0)

    @pytest.mark.parametrize("exponent", [26, 400, 1e308, math.inf])
    def test_huge_exponent_saturates_at_the_cap(self, exponent):
        # floor((ln T_min) ** v) passes int64 at T_min = 1000 and v = 26, and
        # overflows a float at v = 1e308 and inf: an order past the cap is the
        # cap, and the note gives the raw order (inf where a float overflows).
        x = np.random.default_rng(5).standard_normal(2300)
        tests = discrimination_test(x, [1000, 2200], OrderMode.fixed(exponent))
        for bt, (lengths, cap) in zip(tests, [((1000, 1200), 333), ((1200, 100), 33)]):
            try:
                raw = math.floor(math.log(min(lengths)) ** exponent)
            except OverflowError:
                raw = math.inf
            assert bt.result.orders == (cap, cap, cap)
            assert bt.warning == f"fixed order {raw} capped to {cap} for segment lengths {lengths}"

    def test_tiny_segments_rejected(self):
        bt = fixed_pair(2, 100, 1.5)
        assert (bt.result, bt.p_value) == (None, 1.0)
        assert bt.warning == "segments of lengths (2, 100) are too short to compare"


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
        # smallest subnormal to the far tail: arrays of many boundaries, one
        # boundary at a time (a one-column table) and broadcast grids.
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

    def test_term_table_is_built_in_bounded_blocks(self):
        # A whole table of 2000 boundaries with df up to 3000 would hold
        # 6e6 terms (48 MB); blocks of TAIL_VALUES terms keep the peak at a
        # few of them.
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
        assert peak < 8 * TAIL_VALUES * 8
        np.testing.assert_allclose(got, stats.chi2.sf(stat, df), rtol=1e-9, atol=1e-12)

    def test_negative_stat_rejected(self):
        with pytest.raises(ValueError):
            chi_sq_upper_tail(-0.1, 2)
        with pytest.raises(ValueError, match="got -0.1"):
            chi_sq_upper_tail(np.array([1.0, -0.1, np.nan]), 2)

    def test_non_integer_df_rejected(self):
        for df in (0, 2.5, np.array([3, 0]), np.array([2.0, 1.5])):
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
        res = pair_test(x, y, mode)
        stat, orders, sigma2 = brute_force_discrimination(x, y, mode)
        assert res.result.orders == orders
        np.testing.assert_allclose(res.result.sigma2, sigma2, rtol=1e-10, atol=0)
        assert res.result.statistic == pytest.approx(stat, rel=1e-8, abs=1e-8)
        if case == "short_beside_ma" and mode.kind == "bic":
            # the pooled search stops at the 5-point segment's length - 2,
            # below the other segment's lag 8
            assert orders[1] == 8 and orders[2] <= 3

    def test_identical_segments_lambda_zero(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(300)
        res = pair_test(x, x.copy(), OrderMode.fixed(1.5))
        assert res.result.statistic == pytest.approx(0.0, abs=1e-10)
        assert res.p_value == pytest.approx(1.0)

    def test_scale_invariance(self):
        x, y = ar1_pair(5, 250, 0.5, 0.5)
        a = pair_test(x, y, OrderMode.fixed(1.5))
        b = pair_test(4.2 * x, 4.2 * y, OrderMode.fixed(1.5))
        assert b.result.statistic == pytest.approx(a.result.statistic, abs=1e-8)
        assert b.p_value == pytest.approx(a.p_value, abs=1e-10)
        assert b.result.df == a.result.df

    def test_swap_symmetry(self):
        x, y = ar1_pair(6, 200, 0.3, -0.4)
        a = pair_test(x, y, OrderMode.fixed(1.5))
        b = pair_test(y, x, OrderMode.fixed(1.5))
        assert b.result.statistic == pytest.approx(a.result.statistic, abs=1e-8)
        assert b.p_value == pytest.approx(a.p_value, abs=1e-10)

    def test_level_shift_is_not_a_change(self):
        x, y = ar1_pair(7, 400, 0.5, 0.5)
        shifted = pair_test(x, y + 50.0, OrderMode.fixed(1.5))
        plain = pair_test(x, y, OrderMode.fixed(1.5))
        assert shifted.result.statistic == pytest.approx(plain.result.statistic, abs=1e-6)

    def test_fixed_mode_orders_and_df(self):
        x, y = ar1_pair(8, 256, 0.2, 0.2)
        res = pair_test(x, y, OrderMode.fixed(1.5))
        assert res.result.orders == (13, 13, 13)
        assert res.result.df == 14

    def test_fixed_mode_nonnegative_statistic(self):
        for seed in range(25):
            x, y = ar1_pair(100 + seed, 120, 0.6, -0.6)
            res = pair_test(x, y, OrderMode.fixed(1.5))
            assert res.result.statistic >= -1e-8

    def test_default_mode_is_fixed(self):
        x, y = ar1_pair(9, 128, 0.1, 0.1)
        assert pair_test(x, y).result.orders == pair_test(
            x, y, OrderMode.fixed(1.5)
        ).result.orders

    def test_bic_mode_df_rule(self):
        x, y = ar1_pair(10, 512, 0.8, -0.8)
        res = pair_test(x, y, OrderMode.bic(6))
        p1, p2, p0 = res.result.orders
        assert res.result.df == p1 + p2 - p0 + 1 >= min(p1, p2) + 1

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
        p1, p2, p0 = res.result.orders
        assert p2 == 8
        assert p0 == 3
        assert res.result.df == p1 + p2 - p0 + 1
        assert math.isfinite(res.result.statistic)
        assert 0.0 <= res.p_value <= 1.0

    def test_bic_mode_detects_difference(self):
        x, y = ar1_pair(11, 512, 0.8, -0.8)
        res = pair_test(x, y, OrderMode.bic(6))
        assert res.p_value < 1e-6

    def test_distinct_processes_reject(self):
        x, y = ar1_pair(12, 300, 0.7, -0.7)
        assert pair_test(x, y).p_value < 1e-6

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
            (bt,) = discrimination_test(x, [300])
        assert bt.p_value == 1.0 and bt.result is None
        assert bt.warning == "second segment fit breaks down at order 0: residual variance inf"

    @pytest.mark.parametrize("mode", [OrderMode.fixed(), OrderMode.bic()], ids=["fixed", "bic"])
    def test_overflowing_pooled_sums_are_untestable_without_a_warning(self, mode):
        # Unit-variance AR(0.9) and AR(-0.9) segments times 6e152: every lag
        # product and segment sum is finite, but the weighted pooled sum
        # n1 * gx + n2 * gy overflows.  At 4e152 the same pair tests normally.
        x, y = (mean_correct(z) / np.std(z) for z in ar1_pair(40, 300, 0.9, -0.9))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (big,) = discrimination_test(np.r_[x, y] * 6e152, [300], mode)
            (fits,) = discrimination_test(np.r_[x, y] * 4e152, [300], mode)
        assert (big.result, big.p_value, big.warning) == (
            None, 1.0, "pooled segment fit breaks down at order 0: residual variance inf"
        )
        assert fits.result is not None and fits.p_value < 1e-6

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
        assert res.result.orders[0] == 4  # floor((ln 12)^2.5) = 11 capped to 12 // 3
        assert "capped" in res.warning


def test_null_calibration_small():
    # a small version of the acceptance check: same-process pairs at alpha 0.05
    spec = PiecewiseSpec(((ArmaSpec(ar=(0.5,)), 500),))
    rejections = 0
    for i in range(200):
        x = simulate_piecewise(spec, replicate_seed(2024, 2 * i))
        y = simulate_piecewise(spec, replicate_seed(2024, 2 * i + 1))
        res = pair_test(x, y, OrderMode.fixed(1.5))
        rejections += res.p_value <= 0.05
    assert 0.005 <= rejections / 200 <= 0.125


# A constant segment's fit breaks down at order 0 in either order mode; the
# warning names the side the constant segment is on.
FIRST_BREAKS_AT_ZERO = "first segment fit breaks down at order 0: residual variance 0.0"
SECOND_BREAKS_AT_ZERO = "second segment fit breaks down at order 0: residual variance 0.0"


class TestPartition:
    """The pass over a whole partition against the brute-force oracle on
    each boundary's own pair; untestable boundaries have no result, p-value
    1 and a warning that says why."""

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
        for i, bt in enumerate(tests):
            if i in untestable:
                assert (bt.result, bt.p_value, bt.warning) == (None, 1.0, untestable[i])
                continue
            stat, orders, _ = brute_force_discrimination(segs[i], segs[i + 1], mode)
            assert bt.result.orders == orders
            assert bt.result.df == orders[0] + orders[1] - orders[2] + 1
            assert bt.result.statistic == pytest.approx(stat, rel=1e-9, abs=1e-9)
            capped = mode.kind == "fixed" and (i in (6, 7) or (i == 5 and mode.exponent == 2.5))
            assert ("capped" in (bt.warning or "")) == capped

    @pytest.mark.parametrize(
        "mode",
        [OrderMode.fixed(1.5), OrderMode.fixed(2.5), OrderMode.bic(10)],
        ids=["fixed1.5", "fixed2.5", "bic10"],
    )
    def test_records_are_local_to_their_two_segments(self, mode):
        # Each record of a pass over the whole partition is, bit for bit, the
        # record of a pass over its own two segments alone: untestable and
        # capped boundaries included.
        segs = oracle_partition()
        bounds = np.r_[0, np.cumsum([len(s) for s in segs])].tolist()
        x = np.concatenate(segs)
        tests = discrimination_test(x, bounds[1:-1], mode)
        assert any(bt.result is None for bt in tests)
        assert any("capped" in (bt.warning or "") for bt in tests) == (mode.kind == "fixed")
        for lo, bt, hi in zip(bounds, tests, bounds[2:]):
            (alone,) = discrimination_test(x[lo:hi], [bt.position - lo], mode)
            assert (bt.p_value, bt.warning) == (alone.p_value, alone.warning)
            if bt.result is None:
                assert alone.result is None
                continue
            r, a = bt.result, alone.result
            assert (r.statistic, r.df, r.orders, r.sigma2) == (a.statistic, a.df, a.orders, a.sigma2)

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
        for left, right, bt in zip(segs, segs[1:], tests):
            stat, orders, _ = brute_force_discrimination(left, right, mode)
            assert bt.result.orders == orders
            assert bt.result.statistic == pytest.approx(stat, rel=1e-9, abs=1e-9)
            if mode.kind == "fixed":
                raw = math.floor(math.log(min(len(left), len(right))) ** mode.exponent)
                assert ("capped" in (bt.warning or "")) == (raw > orders[0])

    @pytest.mark.parametrize("mode", [OrderMode.fixed(), OrderMode.bic()], ids=["fixed", "bic"])
    def test_ranges_tile_the_series(self, mode):
        # The partition holds a 2-point segment and a constant one: the
        # records of untestable boundaries carry their ranges too.
        segs = oracle_partition()
        x = np.concatenate(segs)
        positions = np.cumsum([len(s) for s in segs])[:-1].tolist()
        tests = discrimination_test(x, positions, mode)
        assert [bt.position for bt in tests] == positions
        assert any(bt.result is None for bt in tests)
        for bt in tests:
            assert bt.left_range[1] == bt.position and bt.right_range[0] == bt.position + 1
        ranges = [tests[0].left_range] + [bt.right_range for bt in tests]
        assert ranges[0][0] == 1 and ranges[-1][1] == len(x)
        assert all(a[1] + 1 == b[0] for a, b in zip(ranges, ranges[1:]))
        assert [bt.left_range for bt in tests[1:]] == [bt.right_range for bt in tests[:-1]]

    @pytest.mark.parametrize("mode", [OrderMode.fixed(), OrderMode.bic()], ids=["fixed", "bic"])
    @pytest.mark.parametrize("value", [0.1, 0.3, 1.7, 1e6 + 0.1, -2.5e-7])
    def test_constant_segment_is_untestable(self, value, mode):
        # Only 0.3's mean rounds exactly, so only it centres to exact zeros;
        # the others leave tiny equal residues.  The relative rule makes all
        # of them constant.
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(300), rng.standard_normal(300)
        tests = discrimination_test(np.r_[a, np.full(300, value), b], [300, 600], mode)
        assert [(bt.result, bt.p_value, bt.warning) for bt in tests] == [
            (None, 1.0, SECOND_BREAKS_AT_ZERO),
            (None, 1.0, FIRST_BREAKS_AT_ZERO),
        ]

    @pytest.mark.parametrize("mode", [OrderMode.fixed(), OrderMode.bic()], ids=["fixed", "bic"])
    def test_constant_rule_bound_is_relative_to_the_energy(self, mode):
        # At level 1 and 300 points the energy is about 300: noise of sd 1e-9
        # gives a centred lag-0 sum of about 1e-18 of it, sd 1e-11 about 1e-22,
        # on either side of EXACT_FIT_RTOL = 1e-20.
        rng = np.random.default_rng(0)
        a, noise = rng.standard_normal(300), rng.standard_normal(300)
        (tested,) = discrimination_test(np.r_[a, 1.0 + 1e-9 * noise], [300], mode)
        assert tested.result is not None and tested.p_value == 0.0
        (flat,) = discrimination_test(np.r_[a, 1.0 + 1e-11 * noise], [300], mode)
        assert (flat.result, flat.p_value, flat.warning) == (None, 1.0, SECOND_BREAKS_AT_ZERO)

    def test_positions_must_increase_inside_the_series(self):
        x = np.random.default_rng(0).standard_normal(20)
        assert discrimination_test(x, []) == ()
        for bad in ([0], [20], [5, 5], [8, 4]):
            with pytest.raises(ValueError, match="positions must increase strictly"):
                discrimination_test(x, bad)
        for bad in ([8.0], [100.0], np.array([8.5]), ["8"], [True]):
            with pytest.raises(ValueError, match="positions must be integers"):
                discrimination_test(x, bad)
        # numpy integers of any width are positions
        want = discrimination_test(x, [8])
        for good in ([np.int64(8)], np.array([8], dtype=np.int32), np.array([8], dtype=np.uint64)):
            assert discrimination_test(x, good) == want

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
    """The pass's columns read as a read-only sequence of BoundaryTest
    records, like the tuple of records they stand for."""

    @pytest.mark.parametrize("mode", [OrderMode.fixed(2.5), OrderMode.bic()], ids=["fixed", "bic"])
    def test_behaves_as_a_tuple_of_its_records(self, mode):
        segs = oracle_partition()
        x = np.concatenate(segs)
        positions = np.cumsum([len(s) for s in segs])[:-1].tolist()
        tests = discrimination_test(x, positions, mode)
        assert isinstance(tests, Sequence)
        records = tuple(tests)
        assert all(isinstance(bt, BoundaryTest) for bt in records)
        assert len(tests) == len(records) == len(positions)
        assert tests[-1] is records[-1] and tests[-len(tests)] is records[0]
        assert tests[1:3] == records[1:3] and tests[::-1] == records[::-1]
        first, *rest = tests
        assert (first, *rest) == records
        assert tests == records and records == tests
        assert tests != records[:-1] and tests != ()
        assert discrimination_test(x, positions, mode) == tests
        assert repr(tests) == repr(records)
        # the columns hold what the records hold
        assert tests.positions.tolist() == [bt.position for bt in records]
        assert tests.p_values.tolist() == [bt.p_value for bt in records]
        assert tests.tested.tolist() == [bt.result is not None for bt in records]
        assert {i: bt.warning for i, bt in enumerate(records) if bt.warning} == tests.warnings
        for column in (tests.bounds, tests.p_values, tests.orders):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1

    def test_no_boundary_is_the_empty_tuple(self):
        x = np.random.default_rng(0).standard_normal(20)
        tests = discrimination_test(x, [])
        assert tests == () and () == tests and not tests and list(tests) == []
        assert tests.bounds.tolist() == [0, 20] and tests.orders.shape == (3, 0)
