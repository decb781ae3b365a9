import math

import numpy as np
import pytest

from arcpd.ar import mean_correct
from arcpd.pipeline import DetectConfig, detect_changepoints
from arcpd.scan import (
    CHUNK_VALUES,
    DEFAULT_RADIUS,
    EXACT_FIT_RTOL,
    CandidateSet,
    ScanProfile,
    SeriesTooShortError,
    _solve_stack,
    extract_candidates,
    scan_statistics,
)
from arcpd.simulate import ArmaSpec, PiecewiseSpec, builtin_model, replicate_seed, simulate_piecewise


def brute_force_scan_value(x, t, h, p):
    """Per-window least-squares oracle, built independently of the prefix sums.

    NaN when a piece is degenerate: rank-deficient lags or zero residuals.
    """

    def piece(lo, hi):
        idx = np.arange(lo, hi)
        y = x[idx]
        if p:
            X = np.column_stack([x[idx - j] for j in range(1, p + 1)])
            if np.linalg.matrix_rank(X) < p:
                return math.nan
            coef, *_ = np.linalg.lstsq(X, y, rcond=None)
            r = y - X @ coef
        else:
            r = y
        n = len(idx)
        s2 = (r @ r) / n
        if not s2 > 0.0:
            return math.nan
        return -0.5 * n * (math.log(2 * math.pi * s2) + 1.0)

    a = t - h + p
    return (piece(a, t) + piece(t, t + h) - piece(a, t + h)) / h


def rank_checked_scan_value(x, t, h, p):
    """Per-window least-squares oracle with the scan's two degeneracy rules.

    NaN when a piece's lag matrix is rank-deficient (``matrix_rank``) or its
    fit is exact: residual sum of squares at most EXACT_FIT_RTOL times the
    sum of squares of its targets.
    """

    def piece(lo, hi):
        idx = np.arange(lo, hi)
        y = x[idx]
        X = np.column_stack([x[idx - j] for j in range(1, p + 1)])
        if np.linalg.matrix_rank(X) < p:
            return math.nan
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        r = y - X @ coef
        sse = r @ r
        if not sse > EXACT_FIT_RTOL * (y @ y):
            return math.nan
        return -0.5 * len(idx) * (math.log(2 * math.pi * sse / len(idx)) + 1.0)

    a = t - h + p
    return (piece(a, t) + piece(t, t + h) - piece(a, t + h)) / h


def flat_run_walk(seed, n=532):
    """Random walk with two flat stretches: cumulative sums of normals with
    two runs of 30-89 zero increments at random places."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    for _ in range(2):
        length = int(rng.integers(30, 90))
        start = int(rng.integers(0, n - length))
        z[start : start + length] = 0.0
    return np.cumsum(z)


def gram_stack(X):
    """(p+1, p+1, N) Gram matrices of N designs X[n] (rows, p+1), target column last."""
    return np.einsum("nti,ntj->ijn", X, X)


def ar1(seed, n, b=0.5):
    spec = PiecewiseSpec(((ArmaSpec(ar=(b,)), n),))
    return simulate_piecewise(spec, seed)


# Radius 25 (so each half holds more targets than order 10 has coefficients)
# and series lengths whose window counts are one chunk - 1, one chunk and one
# chunk + 1.
CHUNK_H = 25
CHUNK_EDGE_LENGTHS = [
    CHUNK_VALUES // (2 * CHUNK_H) + d + 2 * CHUNK_H - 1 for d in (-1, 0, 1)
]


class TestDefaultWindow:
    """The pipeline's default radius h = 50, the paper's max(50, ceil(ln T))."""

    def test_paper_scale(self):
        assert DEFAULT_RADIUS == max(50, math.ceil(math.log(2048))) == 50
        assert detect_changepoints(ar1(0, 2048)).profile.radius == 50

    def test_small_series(self):
        # T = 2h is the shortest series that holds one window
        report = detect_changepoints(ar1(1, 100))
        assert report.profile.radius == 50
        assert len(report.profile.values) == 1

    def test_too_small(self):
        for length in (1, 3, 4, 99):
            with pytest.raises(SeriesTooShortError, match=f"length {length} < 2h = 100"):
                detect_changepoints(ar1(2, length))


class TestScanStatistics:
    def test_profile_length(self):
        x = mean_correct(ar1(0, 1024))
        prof = scan_statistics(x, 50, 1)
        assert len(prof.values) == 1024 - 2 * 50 + 1
        assert prof.offset == 50
        assert prof.positions()[0] == 50
        assert prof.positions()[-1] == 1024 - 50

    @pytest.mark.parametrize("order", range(11))
    def test_matches_brute_force(self, order):
        h = CHUNK_H
        for length in [90] + CHUNK_EDGE_LENGTHS:
            x = mean_correct(ar1(7, length, b=-0.4))
            prof = scan_statistics(x, h, order)
            assert len(prof.values) == length - 2 * h + 1
            assert prof.degenerate == 0
            want = [brute_force_scan_value(x, t, h, order) for t in prof.positions()]
            np.testing.assert_allclose(prof.values, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("order", [0, 1])
    def test_degenerate_count_matches_oracle(self, order):
        # A zero stretch longer than a window, inside one chunk of regular
        # windows: some pieces have all-zero lags (singular), others zero
        # residuals; each window with any such piece scores 0 and is counted.
        x = np.random.default_rng(21).standard_normal(200)
        x[60:110] = 0.0
        h = 8
        assert len(x) - 2 * h + 1 <= CHUNK_VALUES // (2 * h)
        prof = scan_statistics(x, h, order)
        want = np.array([brute_force_scan_value(x, t, h, order) for t in prof.positions()])
        bad = np.isnan(want)
        assert 0 < bad.sum() < len(want) // 2
        assert prof.degenerate == bad.sum()
        assert (prof.values[bad] == 0.0).all()
        np.testing.assert_allclose(prof.values[~bad], want[~bad], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("order", [1, 2])
    def test_degenerate_windows_match_rank_checked_oracle(self, order):
        # Flat stretches of a random walk make whole pieces constant: their
        # lag columns are equal (rank-deficient at order >= 2) or fitted
        # exactly by phi = 1.  Prefix-sum Gram matrices are never exactly
        # singular there, so only the relative pivot and SSE rules find them.
        h = 28
        for seed in range(40):
            x = flat_run_walk(seed)
            prof = scan_statistics(x, h, order)
            want = np.array(
                [rank_checked_scan_value(x, t, h, order) for t in prof.positions()]
            )
            bad = np.isnan(want)
            assert bad.any()
            assert prof.degenerate == bad.sum(), seed
            assert (prof.values[bad] == 0.0).all()
            np.testing.assert_allclose(prof.values[~bad], want[~bad], rtol=0, atol=1e-10)
            for c in (1e-100, 1e100):
                assert scan_statistics(c * x, h, order).degenerate == prof.degenerate

    def test_no_drift_on_long_near_unit_root_series(self):
        # Window Gram matrices are differences of prefix sums over 2e5 points
        # of an AR(0.999) series; the SSEs must not inherit that cancellation.
        spec = PiecewiseSpec(((ArmaSpec(ar=(0.999,)), 200_000),))
        x = mean_correct(simulate_piecewise(spec, 5))
        h, order = 50, 2
        prof = scan_statistics(x, h, order)
        m = len(prof.values)
        idx = np.r_[0, m - 1, np.random.default_rng(0).choice(m, 200, replace=False)]
        want = [brute_force_scan_value(x, prof.offset + i, h, order) for i in idx]
        np.testing.assert_allclose(prof.values[idx], want, rtol=0, atol=1e-10)

    def test_nonnegative_on_random_series(self):
        for seed in range(20):
            x = mean_correct(ar1(seed, 512, b=0.7))
            prof = scan_statistics(x, 40, 2)
            assert prof.values.min() >= -1e-8

    def test_identical_halves_score_zero(self):
        # constant-free periodic window: both halves and the pool fit identically
        x = np.tile([1.0, -1.0], 30)
        prof = scan_statistics(x, 10, 0)
        mid = prof.values[len(prof.values) // 2]
        assert abs(mid) < 1e-12

    def test_scale_invariance(self):
        x = mean_correct(ar1(3, 400, b=0.3))
        a = scan_statistics(x, 30, 1).values
        b = scan_statistics(100.0 * x, 30, 1).values
        assert np.allclose(a, b, atol=1e-6)

    def test_auto_order_is_recorded(self):
        spec = PiecewiseSpec(((ArmaSpec(ar=(1.69, -0.81)), 600),))
        x = mean_correct(simulate_piecewise(spec, 0))
        prof = scan_statistics(x, 50)
        assert prof.order == 2

    def test_too_short_raises(self):
        with pytest.raises(SeriesTooShortError):
            scan_statistics(np.zeros(99), 50, 0)

    def test_degenerate_windows_score_zero(self):
        x = np.zeros(64)
        x[40] = 1.0  # most windows are all-zero: sse == 0
        prof = scan_statistics(x, 8, 1)
        assert prof.degenerate > 0
        assert np.isfinite(prof.values).all()

    def test_window_order_config_invariant(self):
        # a half window has h - p targets for p coefficients: h >= 2p + 1
        for h, order in ((5, 4), (15, 10), (20, 10)):
            with pytest.raises(ValueError, match="at least 2 \\* scan order \\+ 1"):
                DetectConfig(window_radius=h, scan_order=order)
        assert DetectConfig(window_radius=21, scan_order=10).scan_order == 10

    def test_auto_order_capped_by_window(self):
        # BIC picks order 8 on this series; at h = 15 the cap is (h - 1) // 2 = 7
        x = mean_correct(simulate_piecewise(PiecewiseSpec(((ArmaSpec(ma=(0.9,)), 800),)), 0))
        assert scan_statistics(x, 50).order == 8
        assert scan_statistics(x, 15).order <= 7

    def test_argmax_near_true_change(self):
        spec = builtin_model("C")
        x = mean_correct(simulate_piecewise(spec, 0))
        prof = scan_statistics(x, 50, 1)
        t = prof.offset + int(np.argmax(prof.values))
        assert min(abs(t - 400), abs(t - 612)) <= 40


class TestSolveStack:
    @pytest.mark.parametrize("p", range(1, 11))
    def test_matches_numpy_solve(self, p):
        gram = gram_stack(np.random.default_rng(p).standard_normal((50, 60, p + 1)))
        a = gram.transpose(2, 0, 1)
        want = np.linalg.solve(a[:, :p, :p], a[:, :p, p:])[:, :, 0].T
        got = _solve_stack(gram.copy())
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    def test_singular_members_are_nan(self, p):
        X = np.random.default_rng(100 + p).standard_normal((40, 60, p + 1))
        X[29, :, :p] = 0.0  # all-zero lag block
        planted = [29]
        if p > 1:
            X[3, :, 0] = X[3, :, p - 1]  # duplicated lag column
            planted = [3, 29]
        phi = _solve_stack(gram_stack(X))
        assert np.flatnonzero(np.isnan(phi).any(axis=0)).tolist() == planted
        assert np.isnan(phi[:, planted]).all()


class TestExtractCandidates:
    def rule_oracle(self, values, h):
        out = []
        n = len(values)
        for i in range(n):
            lo, hi = max(0, i - h), min(n, i + h + 1)
            if all(values[i] > values[s] for s in range(lo, i)) and all(
                values[i] >= values[s] for s in range(i + 1, hi)
            ):
                out.append(i)
        return out

    def test_example(self):
        prof = ScanProfile(np.array([0, 1, 0, 0, 2, 0.0]), offset=0, radius=2, order=0)
        cands = extract_candidates(prof)
        assert cands.positions == (1, 4)
        assert cands.scan_values == (1.0, 2.0)

    def test_decreasing_profile(self):
        prof = ScanProfile(np.linspace(5, 1, 9), offset=10, radius=3, order=0)
        assert extract_candidates(prof).positions == (10,)

    def test_constant_profile_tie_breaks_left(self):
        prof = ScanProfile(np.ones(6), offset=4, radius=10, order=0)
        assert extract_candidates(prof).positions == (4,)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_rule_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0, 1, size=80)
        h = int(rng.integers(1, 15))
        prof = ScanProfile(values, offset=h, radius=h, order=0)
        got = [p - h for p in extract_candidates(prof).positions]
        assert got == self.rule_oracle(values, h)

    @pytest.mark.parametrize(
        "n,h",
        # h >= n, n a multiple of h or one off it, and 12 drawn shapes
        [(1, 1), (1, 60), (5, 60), (60, 60), (61, 60), (119, 60), (400, 1), (400, 40)]
        + [(int(n), int(h)) for n, h in zip(
            np.random.default_rng(8).integers(1, 401, 12),
            np.random.default_rng(9).integers(1, 61, 12),
        )],
    )
    def test_tie_heavy_profiles_match_rule_oracle(self, n, h):
        # integer values in 0..3 put ties inside nearly every window
        rng = np.random.default_rng(1000 * n + h)
        for _ in range(5):
            values = rng.integers(0, 4, size=n).astype(float)
            prof = ScanProfile(values, offset=h, radius=h, order=0)
            got = [p - h for p in extract_candidates(prof).positions]
            assert got == self.rule_oracle(values, h)

    def test_spacing_exceeds_radius(self):
        for seed in range(10):
            x = mean_correct(ar1(seed, 700, b=0.6))
            prof = scan_statistics(x, 35, 1)
            pos = extract_candidates(prof).positions
            assert all(b - a > 35 for a, b in zip(pos, pos[1:]))

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            extract_candidates(ScanProfile(np.empty(0), offset=1, radius=1, order=0))


def test_location_sanity_model_c():
    # most replicates put a candidate within h of each true change point
    spec = builtin_model("C")
    hits = 0
    for rep in range(50):
        x = mean_correct(simulate_piecewise(spec, replicate_seed(1000, rep)))
        prof = scan_statistics(x, 50, 1)
        pos = extract_candidates(prof).positions
        if all(min(abs(p - cp) for p in pos) <= 50 for cp in (400, 612)):
            hits += 1
    assert hits >= 40
