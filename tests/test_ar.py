import math
import warnings

import mpmath
import numpy as np
import pytest

from arcpd.ar import (
    DegenerateFitError,
    bic_order,
    bic_select_order,
    levinson_path,
    mean_correct,
    sample_autocov,
)
from arcpd.sdtest import discrimination_test
from arcpd.simulate import (
    ArmaSpec,
    PiecewiseSpec,
    builtin_model,
    replicate_seed,
    simulate_piecewise,
)


def pair_test(x, y, mode=None):
    """Test x against y as the one-boundary partition and return its record;
    an untestable boundary's warning is raised as a DegenerateFitError."""
    bt = discrimination_test(np.concatenate([x, y]), [len(x)], mode)[0]
    if bt.result is None:
        raise DegenerateFitError(bt.warning)
    return bt


def toeplitz_solve(gamma, order):
    """Dense Yule-Walker oracle: solve -G b = g directly."""
    g = np.asarray(gamma, dtype=float)
    G = np.array([[g[abs(i - j)] for j in range(order)] for i in range(order)])
    coeffs = np.linalg.solve(G, -g[1 : order + 1])
    sigma2 = g[0] + g[1 : order + 1] @ coeffs
    return coeffs, sigma2


def step_up(reflect):
    """Predictor coefficients phi_1..phi_p from reflection coefficients
    k_1..k_p: order m sets phi_m = k_m and phi_j -= k_m phi_{m-j}."""
    phi = np.empty(0)
    for m, k in enumerate(reflect, start=1):
        new = np.empty(m)
        new[m - 1] = k
        new[: m - 1] = phi - k * phi[::-1]
        phi = new
    return phi


def yule_walker(gamma, order):
    """(whitening coefficients, innovation variance) of the order-`order` fit,
    read off one levinson_path."""
    reflect, sigma2s = levinson_path(np.asarray(gamma, dtype=float), order)
    return -step_up(reflect), sigma2s[order]


def brute_force_bic_order(x, max_order):
    """BIC oracle: a dense Toeplitz solve per order, scored with the
    concentrated Gaussian likelihood.

    BIC(p) = T * ln sigma2_p + (p + 1) * ln T, which differs from
    T * (ln(2 pi sigma2_p) + 1) + (p + 1) * ln T by a constant; ties go to
    the smallest order.  An order counts only if its residual variance and
    every lower order's are positive (a zero residual variance makes every
    larger Yule-Walker system singular).  Returns None when no order counts.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    gamma = [sum(x[t] * x[t - j] for t in range(j, n)) / n for j in range(max_order + 1)]
    best, best_bic = None, math.inf
    for p in range(max_order + 1):
        sigma2 = toeplitz_solve(gamma, p)[1] if p else gamma[0]
        if not sigma2 > 0.0:
            break
        bic = n * math.log(sigma2) + (p + 1) * math.log(n)
        if bic < best_bic:
            best, best_bic = p, bic
    return best


def random_ar_autocov(rng, order_hint=None):
    """Autocovariances of a random stationary AR process plus noise floor."""
    p = order_hint or rng.integers(1, 6)
    # partial autocorrelations in (-0.9, 0.9) guarantee stationarity
    pacf = rng.uniform(-0.9, 0.9, size=p)
    phi = step_up(pacf)
    # run the process long enough to estimate sample autocovariances
    n = 2048
    e = rng.standard_normal(n + 200)
    x = np.zeros(n + 200)
    for t in range(n + 200):
        x[t] = e[t] + sum(phi[j] * x[t - j - 1] for j in range(p) if t - j - 1 >= 0)
    return sample_autocov(x[200:] - x[200:].mean(), 12)


def ieee_div(x, y):
    """x / y in Python floats with IEEE 754 semantics at y = 0 (Python raises)."""
    if y != 0.0:
        return x / y
    if x == 0.0 or math.isnan(x):
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def scalar_schur(gamma, order):
    """Reflection coefficients and innovation variances of one autocovariance
    row, one Python float at a time: the Schur recursion in its in-place
    form, k_m = a[m] / b[m-1], then from the old values a[i] -= k_m b[i-1]
    for i > m and b[i] = b[i-1] - k_m a[i] for m <= i < order, and
    sigma2[m] = sigma2[m-1] * (1 - k_m**2).  From the first order entered
    with a variance that is not positive and finite, all is NaN."""
    a, b = list(gamma[: order + 1]), list(gamma[: order + 1])
    reflect, sigma2s = [], [gamma[0]]
    for m in range(1, order + 1):
        k = ieee_div(a[m], b[m - 1])
        reflect.append(k)
        sigma2s.append(sigma2s[-1] * (1.0 - k * k))
        new_b = [b[i - 1] - k * a[i] for i in range(m, order)]
        for i in range(order, m, -1):
            a[i] -= k * b[i - 1]
        b[m:order] = new_b
    for m in range(1, order + 1):
        if not 0.0 < sigma2s[m - 1] < math.inf:
            reflect[m - 1 :] = [math.nan] * (order - m + 1)
            sigma2s[m:] = [math.nan] * (order - m + 1)
            break
    return reflect, sigma2s


class TestMeanCorrect:
    def test_example(self):
        assert np.allclose(mean_correct([1, 2, 3]), [-1, 0, 1])

    def test_constant(self):
        assert np.allclose(mean_correct([5, 5, 5]), [0, 0, 0])

    def test_already_centered(self):
        assert np.allclose(mean_correct([0.5, -0.5]), [0.5, -0.5])

    def test_sums_to_zero(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-10, 10, size=101)
        assert abs(mean_correct(x).sum()) < 1e-9

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            mean_correct([])
        with pytest.raises(ValueError):
            mean_correct([1.0, math.nan])

    def test_rejects_multidimensional(self):
        with pytest.raises(ValueError, match=r"must be 1-D, got an array of shape \(4, 2\)"):
            mean_correct(np.zeros((4, 2)))


class TestSampleAutocov:
    def test_alternating(self):
        assert np.allclose(sample_autocov([1, -1, 1, -1], 1), [1.0, -0.75])

    def test_zero_series(self):
        assert np.allclose(sample_autocov([0, 0, 0, 0], 2), 0.0)

    def test_impulse(self):
        assert np.allclose(sample_autocov([2, 0, 0, 0], 1), [1.0, 0.0])

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(40)
        acov = sample_autocov(x, 7)
        for j in range(8):
            direct = sum(x[t] * x[t - j] for t in range(j, 40)) / 40
            assert acov[j] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize(
        "n, max_lag", [(1, 0), (2, 1), (7, 0), (7, 6), (64, 10), (64, 63)]
    )
    def test_matches_per_lag_definition(self, n, max_lag):
        # gamma[j] = sum_t x[t] x[t-j] / n, up to the last lag max_lag = n - 1
        x = np.random.default_rng(n + max_lag).standard_normal(n)
        acov = sample_autocov(x, max_lag)
        assert acov.shape == (max_lag + 1,)
        for j in range(max_lag + 1):
            direct = sum(x[t] * x[t - j] for t in range(j, n)) / n
            assert acov[j] == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_max_lag_too_large(self):
        with pytest.raises(ValueError):
            sample_autocov([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            sample_autocov([1.0], 1)


class TestLevinsonDurbin:
    def test_order_one(self):
        coeffs, sigma2 = yule_walker([1.0, 0.5], 1)
        assert coeffs == pytest.approx([-0.5])
        assert sigma2 == pytest.approx(0.75)

    def test_white_noise(self):
        coeffs, sigma2 = yule_walker([2.5, 0.0, 0.0], 2)
        assert np.allclose(coeffs, 0.0)
        assert sigma2 == pytest.approx(2.5)

    def test_ar1_consistent_order_two(self):
        coeffs, sigma2 = yule_walker([1.0, 0.5, 0.25], 2)
        assert coeffs == pytest.approx([-0.5, 0.0], abs=1e-12)
        assert sigma2 == pytest.approx(0.75)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_solve(self, seed):
        rng = np.random.default_rng(seed)
        acov = random_ar_autocov(rng)
        for order in (1, 3, 5, 8, 10):
            coeffs, sigma2 = yule_walker(acov, order)
            want_coeffs, want_sigma2 = toeplitz_solve(acov, order)
            assert np.allclose(coeffs, want_coeffs, rtol=1e-8)
            assert sigma2 == pytest.approx(want_sigma2, rel=1e-8)

    def test_residual_variance_monotone(self):
        rng = np.random.default_rng(77)
        _, sigma2s = levinson_path(random_ar_autocov(rng), 10)
        assert len(sigma2s) == 11
        assert (np.diff(sigma2s) <= 1e-12).all()

    # The segment test reads its fits off levinson_path and reports where
    # the recursion broke down.
    def test_zero_gamma0_raises(self):
        rng = np.random.default_rng(13)
        with pytest.raises(DegenerateFitError):
            pair_test(rng.standard_normal(50), np.zeros(50))

    def test_zero_gamma0_names_order_zero(self):
        # an all-zero segment: the fixed-order fit cannot leave order 0
        rng = np.random.default_rng(13)
        with pytest.raises(
            DegenerateFitError,
            match=r"^first segment fit breaks down at order 0: residual variance 0\.0$",
        ):
            pair_test(np.zeros(50), rng.standard_normal(50))

    def test_order_zero_needs_no_positive_variance(self):
        reflect, sigma2s = levinson_path(np.array([0.0]), 0)
        assert reflect.shape == (0,) and sigma2s.tolist() == [0.0]

    def test_breakdown_names_stage(self):
        # Each product of two values of size 2.3e-162 rounds to the smallest
        # subnormal, so gamma[0] == gamma[1]: the order-1 fit has zero
        # residual variance, below the fixed order 5 of a 20-point segment.
        x = np.repeat([2.3e-162, -2.3e-162], 10)
        with pytest.raises(
            DegenerateFitError,
            match=r"^first segment fit breaks down at order 1: residual variance 0\.0$",
        ):
            pair_test(x, np.random.default_rng(0).standard_normal(40))

    def test_short_autocov_rejected(self):
        with pytest.raises(ValueError, match="need autocovariances to lag 2, have 1"):
            levinson_path(np.array([1.0, 0.3]), 2)


class TestFitAr:
    """Yule-Walker fits as the pipeline makes them: one levinson_path over
    sample_autocov(x, p), read at order p."""

    @staticmethod
    def fit(x, order):
        return yule_walker(sample_autocov(x, order), order)

    def test_order_zero_is_mean_square(self):
        rng = np.random.default_rng(9)
        x = mean_correct(rng.standard_normal(64))
        coeffs, sigma2 = self.fit(x, 0)
        assert coeffs.size == 0
        assert sigma2 == pytest.approx(np.mean(x**2))

    def test_composition_identity(self):
        # one autocovariance pass and one path give every lower-order fit bit
        # for bit, which bic_select_order and the segment test's pooled BIC
        # order rely on
        rng = np.random.default_rng(10)
        x = mean_correct(rng.standard_normal(128))
        reflect, sigma2s = levinson_path(sample_autocov(x, 6), 6)
        assert len(sigma2s) == 7
        for p in range(1, 7):
            coeffs, sigma2 = self.fit(x, p)
            assert np.array_equal(-step_up(reflect[:p]), coeffs)
            assert sigma2s[p] == sigma2

    def test_recovers_ar1_coefficient(self):
        # generated with x[t] = 0.7 x[t-1] + e[t]: levinson_path's reflection
        # coefficient keeps the predictor's sign, the whitening coefficients
        # of yule_walker flip it
        spec = PiecewiseSpec(((ArmaSpec(ar=(0.7,)), 4096),))
        x = mean_correct(simulate_piecewise(spec, 0))
        reflect, _ = levinson_path(sample_autocov(x, 1), 1)
        assert abs(reflect[0] - 0.7) < 0.05
        coeffs, _ = self.fit(x, 1)
        assert coeffs[0] == -reflect[0]

    def test_scale_equivariance(self):
        rng = np.random.default_rng(30)
        x = mean_correct(rng.standard_normal(256))
        base_coeffs, base_sigma2 = self.fit(x, 4)
        coeffs, sigma2 = self.fit(7.5 * x, 4)
        assert np.allclose(base_coeffs, coeffs, atol=1e-10)
        assert sigma2 == pytest.approx(7.5**2 * base_sigma2, rel=1e-10)


class TestLevinsonPath:
    def test_stops_at_last_order_reached(self):
        # perfectly correlated: zero residual variance at order 1, NaN past it
        reflect, sigma2s = levinson_path(np.array([1.0, 1.0, 1.0, 1.0]), 3)
        assert sigma2s[:2].tolist() == [1.0, 0.0] and np.isnan(sigma2s[2:]).all()
        assert reflect[0] == 1.0 and np.isnan(reflect[1:]).all()

    def test_zero_gamma0_stops_at_order_zero(self):
        reflect, sigma2s = levinson_path(np.zeros(4), 3)
        assert sigma2s[0] == 0.0 and np.isnan(sigma2s[1:]).all()
        assert np.isnan(reflect).all()

    @pytest.mark.parametrize("order", [3, 10])
    def test_stack_matches_rows_one_at_a_time(self, order):
        rng = np.random.default_rng(order)
        rows = [random_ar_autocov(rng)[: order + 1] for _ in range(3)]
        alone = [levinson_path(row, order) for row in rows]
        # all zero stops at order 0; all one ([1, 1, 1, 1] at order 3) at order 1
        for broken, stop in ((np.zeros(order + 1), 0), (np.ones(order + 1), 1)):
            stack = np.stack([rows[0], broken, rows[1], rows[2]])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                reflect, sigma2s = levinson_path(stack, order)
            assert reflect.shape == (4, order) and sigma2s.shape == (4, order + 1)
            for k, (want_reflect, want_sigma2s) in zip((0, 2, 3), alone):
                assert np.array_equal(reflect[k], want_reflect)
                assert np.array_equal(sigma2s[k], want_sigma2s)
            broken_reflect, broken_sigma2s = levinson_path(broken, order)
            assert np.array_equal(reflect[1], broken_reflect, equal_nan=True)
            assert np.array_equal(sigma2s[1], broken_sigma2s, equal_nan=True)
            assert sigma2s[1, stop] == 0.0 and np.isfinite(sigma2s[1, :stop]).all()
            assert np.isnan(sigma2s[1, stop + 1 :]).all()
            # any leading shape stacks the same way
            _, nested = levinson_path(stack.reshape(2, 2, order + 1), order)
            assert np.array_equal(nested.reshape(4, order + 1), sigma2s, equal_nan=True)

    @pytest.mark.parametrize("order", [13, 20])
    def test_wide_stacks_match_rows_one_at_a_time(self, order):
        # a row's result must not depend on how many rows share its stack
        rng = np.random.default_rng(order)
        rows = []
        for _ in range(19):
            e = rng.standard_normal(600)
            x = e[2:] + rng.uniform(-0.8, 0.8) * e[1:-1] + rng.uniform(-0.5, 0.5) * e[:-2]
            rows.append(sample_autocov(mean_correct(x), order))
        alone = [levinson_path(row, order) for row in rows]
        assert all(np.isfinite(sigma2s).all() for _, sigma2s in alone)
        for size in (1, 2, 4, 19):
            reflect, sigma2s = levinson_path(np.stack(rows[:size]), order)
            for k in range(size):
                assert np.array_equal(reflect[k], alone[k][0])
                assert np.array_equal(sigma2s[k], alone[k][1])

    def test_matches_a_scalar_schur_recursion_bit_for_bit(self):
        # 100 random stacks of 1-59 rows at orders 0-15.  Rows: sample
        # autocovariances of MA(1) series and of random walks, zero rows,
        # rows of random numbers (not autocovariances: most break down), rows
        # near overflow and an inf lag 0.  Each row's reflections and
        # variances equal those of the recursion run on it alone in Python
        # floats, NaNs included.
        rng = np.random.default_rng(1912)

        def row(kind, width):
            if kind == 0:
                return np.zeros(width)
            if kind == 1:
                return rng.standard_normal(width)
            e = rng.standard_normal(int(rng.integers(width + 1, 300)))
            x = np.cumsum(e) if kind == 2 else e[1:] + rng.uniform(-1, 1) * e[:-1]
            g = sample_autocov(x - x.mean(), width - 1)
            return g * 1e305 if kind == 3 else g

        breaks = 0
        for trial in range(100):
            order = int(rng.integers(0, 16))
            width = order + 1 + int(rng.integers(0, 3))
            stack = np.stack([row(int(rng.integers(0, 5)), width) for _ in range(rng.integers(1, 60))])
            if trial % 10 == 0:
                stack[0, 0] = math.inf
            reflect, sigma2s = levinson_path(stack, order)
            for gamma, got_reflect, got_sigma2s in zip(stack.tolist(), reflect, sigma2s):
                want_reflect, want_sigma2s = scalar_schur(gamma, order)
                assert np.array_equal(got_reflect, want_reflect, equal_nan=True), (trial, gamma)
                assert np.array_equal(got_sigma2s, want_sigma2s, equal_nan=True), (trial, gamma)
                breaks += bool(np.isnan(got_sigma2s).any())
        assert breaks >= 100

    @pytest.mark.parametrize("shape", [(7,), (1, 7), (4, 7), (2, 3, 7)])
    def test_input_is_left_unchanged(self, shape):
        # gamma is only read: the generators start as a copy of its columns,
        # and each order makes new arrays from them
        rng = np.random.default_rng(sum(shape))
        rows = [random_ar_autocov(rng)[:7] for _ in range(math.prod(shape[:-1]))]
        gamma = np.stack(rows).reshape(shape)
        before = gamma.tobytes()
        levinson_path(gamma, 6)
        assert gamma.tobytes() == before

    @pytest.mark.parametrize("ar", [(0.999,), (1.399, -0.4), (1.69, -0.81)])
    @pytest.mark.parametrize("length", [108, 200, 400])
    def test_near_unit_root_matches_exact_toeplitz_solve(self, ar, length):
        # against a 50-digit dense Yule-Walker solve of the same sample
        # autocovariances, at every order 1..13
        spec = PiecewiseSpec(((ArmaSpec(ar=ar), length),))
        gamma = sample_autocov(mean_correct(simulate_piecewise(spec, length)), 13)
        _, sigma2s = levinson_path(gamma, 13)
        with mpmath.workdps(50):
            g = [mpmath.mpf(float(v)) for v in gamma]
            for p in range(1, 14):
                G = mpmath.matrix([[g[abs(i - j)] for j in range(p)] for i in range(p)])
                phi = mpmath.lu_solve(G, mpmath.matrix(g[1 : p + 1]))
                want = g[0] - sum(g[j + 1] * phi[j] for j in range(p))
                assert abs(sigma2s[p] / want - 1) <= 1e-12, (p, sigma2s[p], want)

    def test_bic_order_of_a_stack_is_each_rows(self):
        rng = np.random.default_rng(3)
        gammas = np.stack([random_ar_autocov(rng) for _ in range(3)] + [np.zeros(13)])
        _, paths = levinson_path(gammas, 12)
        n = np.array([40, 200, 1000, 50])
        want = [bic_order(path, int(m)) for path, m in zip(paths, n)]
        assert bic_order(paths, n).tolist() == want
        assert want[3] == 0


class TestBicSelectOrder:
    def test_white_noise_picks_zero(self):
        x = simulate_piecewise(PiecewiseSpec(((ArmaSpec(), 1024),)), 0)
        assert bic_select_order(mean_correct(x), 10) == 0

    def test_ar2_picks_two(self):
        spec = PiecewiseSpec(((ArmaSpec(ar=(1.69, -0.81)), 2048),))
        x = simulate_piecewise(spec, 0)
        assert bic_select_order(mean_correct(x), 10) == 2

    def test_short_series_is_legal(self):
        got = bic_select_order([0.3, -1.2, 0.7, 0.1, -0.4], 3)
        assert got in (0, 1, 2, 3)

    def test_max_order_must_be_positive(self):
        x = np.random.default_rng(0).standard_normal(50)
        with pytest.raises(ValueError, match=r"^max_order must be >= 1$"):
            bic_select_order(x, 0)

    def test_max_order_must_fit(self):
        with pytest.raises(ValueError):
            bic_select_order([1.0, 2.0, 3.0], 3)

    @pytest.mark.parametrize(
        "model,seed,start,length,max_order",
        [
            ("B", 0, 0, 300, 10),
            ("B", 1, 400, 200, 10),
            ("E", 2, 0, 400, 10),
            ("G", 3, 100, 250, 8),
            ("H", 4, 0, 300, 10),
            ("I", 5, 96, 160, 10),
        ],
    )
    def test_matches_brute_force_oracle(self, model, seed, start, length, max_order):
        x = simulate_piecewise(builtin_model(model), replicate_seed(seed, 0))
        seg = mean_correct(x[start : start + length])
        assert bic_select_order(seg, max_order) == brute_force_bic_order(seg, max_order)

    @pytest.mark.parametrize("length", range(5, 13))
    def test_short_segments_match_oracle(self, length):
        rng = np.random.default_rng(length)
        for _ in range(20):
            seg = mean_correct(rng.standard_normal(length))
            max_order = min(10, length - 2)
            assert bic_select_order(seg, max_order) == brute_force_bic_order(seg, max_order)

    @pytest.mark.parametrize("length", [6, 7, 20, 64])
    def test_alternating_series_matches_oracle(self, length):
        # the closest a data series comes to breaking the recursion: the
        # order-1 residual variance is only about 1/T of gamma[0]
        x = np.array([(-1.0) ** t for t in range(length)])
        max_order = min(10, length - 1)
        assert bic_select_order(x, max_order) == brute_force_bic_order(x, max_order) == 1

    @pytest.mark.parametrize(
        "spec,seed",
        [
            pytest.param(PiecewiseSpec(((ArmaSpec(ar=(0.6,)), 200),)), 0, id="ar0.6"),
            pytest.param(builtin_model("A:0.4"), replicate_seed(0, 0), id="A:0.4"),
            pytest.param(builtin_model("B"), replicate_seed(0, 0), id="B"),
            pytest.param(builtin_model("E"), replicate_seed(2, 0), id="E"),
            pytest.param(builtin_model("H"), replicate_seed(4, 0), id="H"),
        ],
    )
    def test_scale_invariance(self, spec, seed):
        # the score depends on the data only through sigma2_p / sigma2_0
        x = mean_correct(simulate_piecewise(spec, seed))
        orders = [bic_select_order(c * x, 10) for c in (1e-100, 1e-10, 1.0, 1e10, 1e100)]
        assert orders == [orders[2]] * 5

    def test_zero_series_breaks_down_at_order_zero(self):
        # the recursion stops at order 0, so no order can be scored
        assert brute_force_bic_order(np.zeros(8), 3) is None
        with pytest.raises(
            DegenerateFitError,
            match=r"every order 0\.\.3: residual variance 0\.0 at order 0$",
        ):
            bic_select_order(np.zeros(8), 3)
