import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from arcpd import scan as scan_module
from arcpd.ar import mean_correct
from arcpd.pipeline import DetectConfig, detect_changepoints
from arcpd.scan import (
    DEFAULT_RADIUS,
    EXACT_FIT_RTOL,
    FALLBACK_RTOL,
    CandidateSet,
    ScanProfile,
    SeriesTooShortError,
    _chunk_windows,
    _eliminate,
    _solve_stack,
    _well_conditioned,
    _window_reduce,
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
# and, per order, series lengths whose window counts are one chunk - 1, one
# chunk and one chunk + 1.
CHUNK_H = 25


def chunk_edge_lengths(order):
    return [_chunk_windows(order) + d + 2 * CHUNK_H - 1 for d in (-1, 0, 1)]


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
        for length in [90] + chunk_edge_lengths(order):
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
        assert len(x) - 2 * h + 1 <= _chunk_windows(order)
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

    @pytest.mark.parametrize("h", [3, 7, 25])
    def test_block_edges_match_brute_force(self, h, monkeypatch):
        # Gram matrices are range sums of h - p lag products, each made of
        # the power-of-two blocks of h - p's set bits (1 to 25 here: one
        # block or several), reaching to the last column of a chunk's sums.
        # Chunks of 2h + 1 windows leave a short last chunk; window counts
        # are a multiple of h, one off it, and 1 (T = 2h).
        for order in range((h - 1) // 2 + 1):
            monkeypatch.setattr(scan_module, "CHUNK_VALUES", 3 * (order + 1) ** 2 * (2 * h + 1))
            assert _chunk_windows(order) == 2 * h + 1
            for m in (5 * h - 1, 5 * h, 5 * h + 1, 1):
                x = mean_correct(ar1(100 * h + m, m + 2 * h - 1, b=-0.4))
                prof = scan_statistics(x, h, order)
                assert len(prof.values) == m
                assert prof.degenerate == 0
                want = [brute_force_scan_value(x, t, h, order) for t in prof.positions()]
                np.testing.assert_allclose(prof.values, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("order", [2, 10])
    def test_wide_radius_across_a_chunk_edge(self, order):
        # At h = 200 a chunk sums lag products over 2h = 400 columns beyond
        # its windows: more than the 361 windows of an order-10 chunk.  The
        # second chunk holds h + 1 windows.
        h = 200
        m = _chunk_windows(order) + h + 1
        x = mean_correct(ar1(17, m + 2 * h - 1, b=-0.4))
        prof = scan_statistics(x, h, order)
        assert len(prof.values) == m
        assert prof.degenerate == 0
        want = [brute_force_scan_value(x, t, h, order) for t in prof.positions()]
        np.testing.assert_allclose(prof.values, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("order", [1, 3])
    def test_chunks_past_the_series_end_match_brute_force(self, order, monkeypatch):
        # A chunk reads x in place unless its lag products, over the
        # chunk + 2h + order values from its first window on, run past the
        # end of x; then it reads a zero-padded copy of its own span.  In
        # chunks of 2h + 1 windows, a last chunk of order + 1 windows runs
        # past the end alone, and a last chunk of one window takes the chunk
        # before it along.
        h = 7
        chunk = 2 * h + 1
        monkeypatch.setattr(scan_module, "CHUNK_VALUES", 3 * (order + 1) ** 2 * chunk)
        assert _chunk_windows(order) == chunk
        for last, past in ((order + 1, 1), (1, 2)):
            m = 3 * chunk + last
            assert sum(k0 + chunk + order > m - 1 for k0 in range(0, m, chunk)) == past
            x = mean_correct(ar1(10 * order + last, m + 2 * h - 1, b=-0.4))
            prof = scan_statistics(x, h, order)
            assert len(prof.values) == m
            assert prof.degenerate == 0
            want = [brute_force_scan_value(x, t, h, order) for t in prof.positions()]
            np.testing.assert_allclose(prof.values, want, rtol=0, atol=1e-10)
            # A zero tail longer than a window: the padded span's last
            # windows are degenerate, as the rank-checked oracle finds.
            w = x.copy()
            w[-(2 * h + 3) :] = 0.0
            prof = scan_statistics(w, h, order)
            want = np.array([rank_checked_scan_value(w, t, h, order) for t in prof.positions()])
            bad = np.isnan(want)
            assert bad[-1] and prof.degenerate == bad.sum()
            assert (prof.values[bad] == 0.0).all()
            np.testing.assert_allclose(prof.values[~bad], want[~bad], rtol=0, atol=1e-10)

    def test_fallback_residuals_are_grouped(self):
        # Near a unit root 9% of the windows take explicit residuals, in
        # runs: at h = 500 one residual pass over a whole chunk's fallback
        # windows (1000 values each) peaks near 90 MB.  In groups the peak
        # beyond the profile is about 4.5 MB: a few buffers the size of one
        # chunk's Gram stack (the chunks read the series in place).
        spec = PiecewiseSpec(((ArmaSpec(ar=(0.999,)), 200_000),))
        x = mean_correct(simulate_piecewise(spec, 5))
        tracemalloc.start()
        try:
            prof = scan_statistics(x, 500, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof.fallback > len(prof.values) // 20
        assert peak - prof.values.nbytes < 8e6

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        # Chunks of 7 windows, of 2**12 Gram entries and the default: the
        # same candidates, degenerate and fallback counts, and values bit
        # for bit, as each is scored from its own window's SSEs.  Flat
        # stretches and a near unit root take the fallback, in groups of 1
        # and of 20 windows at the two small budgets.
        series = [(flat_run_walk(seed), 28, order) for seed in range(3) for order in (1, 2)]
        unit_root = PiecewiseSpec(((ArmaSpec(ar=(0.999,)), 4000),))
        series += [
            (mean_correct(simulate_piecewise(builtin_model("G"), 0)), DEFAULT_RADIUS, None),
            (mean_correct(simulate_piecewise(unit_root, 5)), DEFAULT_RADIUS, 2),
        ]
        runs = [(x, h, order, None) for x, h, order in series]
        # An 8-regime AR(+-0.5) series at T = 65536: 14 default chunks.
        regimes = [(ArmaSpec(ar=(0.5 - k % 2,)), 8192 * (k + 1)) for k in range(8)]
        x = mean_correct(simulate_piecewise(PiecewiseSpec(tuple(regimes)), 0))
        runs.append((x, DEFAULT_RADIUS, None, (2**10, 2**12, 2**15)))
        for x, h, order, budgets in runs:
            base = scan_statistics(x, h, order)
            for budget in budgets or (3 * (base.order + 1) ** 2 * 7, 2**12):
                monkeypatch.setattr(scan_module, "CHUNK_VALUES", budget)
                prof = scan_statistics(x, h, order)
                monkeypatch.undo()
                assert (prof.degenerate, prof.fallback) == (base.degenerate, base.fallback)
                assert extract_candidates(prof).positions == extract_candidates(base).positions
                np.testing.assert_array_equal(prof.values, base.values)

    def test_fallback_only_where_conditioning_needs_it(self):
        # AR(+-0.5) windows are well conditioned: every SSE is a last pivot.
        regimes = [(ArmaSpec(ar=(0.5 - k % 2,)), 8192 * (k + 1)) for k in range(8)]
        spec = PiecewiseSpec(tuple(regimes))
        prof = scan_statistics(mean_correct(simulate_piecewise(spec, 101)), DEFAULT_RADIUS)
        assert prof.fallback == 0
        # Flat stretches of a random walk make exact fits: their windows,
        # and the degenerate ones among them, take the explicit residuals.
        for order in (1, 2):
            for seed in range(5):
                prof = scan_statistics(flat_run_walk(seed), 28, order)
                assert prof.fallback > 0
                assert prof.fallback >= prof.degenerate
        # Near a unit root the target is mostly explained by its lags; only
        # the worst-conditioned windows fall back.
        spec = PiecewiseSpec(((ArmaSpec(ar=(0.999,)), 200_000),))
        prof = scan_statistics(mean_correct(simulate_piecewise(spec, 5)), 50, 2)
        assert 0 < prof.fallback < len(prof.values) // 4

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
        # a half window has h - p targets for p coefficients: h >= 2p + 1.
        # The scan checks the rule itself: at order = h a left piece has no
        # targets, above h more lags than a half window holds.
        x = np.random.default_rng(0).standard_normal(200)
        for h, order in ((5, 4), (5, 5), (5, 6), (15, 10), (20, 10)):
            with pytest.raises(ValueError, match="at least 2 \\* scan order \\+ 1"):
                DetectConfig(window_radius=h, scan_order=order)
            with pytest.raises(ValueError, match=f"at least 2 \\* scan order \\+ 1 \\(got h={h},"):
                scan_statistics(x, h, order)
        with pytest.raises(ValueError, match="scan order must be nonnegative"):
            scan_statistics(x, 5, -1)
        assert DetectConfig(window_radius=21, scan_order=10).scan_order == 10

    @pytest.mark.parametrize("order", [False, True, np.True_])
    def test_bool_order_rejected(self, order):
        # numpy would read a bool order as a mask: gram[p, p] would be empty.
        x = np.random.default_rng(0).standard_normal(200)
        with pytest.raises(ValueError, match=f"^scan order must be an integer, got {order!r}$"):
            scan_statistics(x, 50, order)

    @pytest.mark.parametrize("h", [0, -3, 50.0, True, np.True_])
    def test_radius_checked_by_the_scan(self, h):
        # The scan checks its radius itself, with the config's messages: 0 and
        # -3 no longer divide by zero or take a log of a negative, 50.0 is not
        # used as a slice bound, and True does not run as h = 1.
        x = np.random.default_rng(0).standard_normal(300)
        if isinstance(h, int) and not isinstance(h, bool):
            message = "window_radius must be positive"
        else:
            message = re.escape(f"window_radius must be an integer, got {h!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            scan_statistics(x, h)
        with pytest.raises(ValueError, match=f"^{message}$"):
            DetectConfig(window_radius=h)
        assert scan_statistics(x, np.int32(50), 1).radius == 50

    @pytest.mark.parametrize("h", [1, 2])
    def test_auto_order_is_zero_below_h_3(self, h):
        # The cap (h - 1) // 2 is 0: no BIC search, order 0.
        x = mean_correct(np.random.default_rng(0).standard_normal(100))
        assert scan_statistics(x, h).order == 0

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


class TestWindowReduce:
    LENGTHS = sorted({1, 2, 3, 5, 7, 31, 32, 33, 50, 63, 64, 97, 127, 128, 129, 255, 256, 259, 260})

    @pytest.mark.parametrize("length", LENGTHS)
    def test_sums_are_window_local(self, length):
        # Terms spread over twelve decades: a window's error is bounded by
        # its own terms, whatever the rest of the row holds.
        rng = np.random.default_rng(length)
        z = rng.standard_normal((2, length + 300)) * 10.0 ** rng.uniform(-6, 6, (2, length + 300))
        out = np.empty((2, 301))
        _window_reduce(np.add, z, length, out)
        eps = np.finfo(float).eps
        for r in range(2):
            for s in range(301):
                terms = z[r, s : s + length]
                bound = (math.ceil(math.log2(length)) + 1) * eps * math.fsum(np.abs(terms))
                assert abs(out[r, s] - math.fsum(terms)) <= bound

    @pytest.mark.parametrize("length", LENGTHS)
    def test_sums_over_zeros_are_exactly_zero(self, length):
        rng = np.random.default_rng(1000 + length)
        z = np.concatenate([1e8 * rng.standard_normal(300), np.zeros(length + 40), rng.standard_normal(300)])
        out = np.empty(len(z) - length + 1)
        _window_reduce(np.add, z, length, out)
        assert (out[300:341] == 0.0).all()

    @pytest.mark.parametrize("length", LENGTHS)
    def test_maxima_equal_a_direct_scan(self, length):
        rng = np.random.default_rng(2000 + length)
        ties = rng.integers(0, 3, 2 * length + 100).astype(float)
        padded = np.concatenate([np.full(length, -np.inf), ties, np.full(length, np.inf)])
        padded[length + 7] = -np.inf
        for z in (ties, padded):
            want = sliding_window_view(z, length).max(axis=-1)
            out = np.empty(len(want))
            _window_reduce(np.maximum, z, length, out)
            assert out.tobytes() == want.tobytes()


def eliminate_and_solve(gram):
    """_solve_stack's back-substitution on a copy of gram that _eliminate has reduced."""
    gram = gram.copy()
    pivots, diag = _eliminate(gram)
    return _solve_stack(gram, pivots, diag)


class TestSolveStack:
    @pytest.mark.parametrize("p", range(1, 11))
    def test_matches_numpy_solve(self, p):
        gram = gram_stack(np.random.default_rng(p).standard_normal((50, 60, p + 1)))
        a = gram.transpose(2, 0, 1)
        want = np.linalg.solve(a[:, :p, :p], a[:, :p, p:])[:, :, 0].T
        got = eliminate_and_solve(gram)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    def test_lower_triangle_is_never_read(self, p):
        gram = gram_stack(np.random.default_rng(200 + p).standard_normal((30, 60, p + 1)))
        junk = gram.copy()
        junk[np.tril_indices(p + 1, -1)] = np.nan
        pivots, diag = _eliminate(gram)
        junk_pivots, junk_diag = _eliminate(junk)
        upper = np.triu_indices(p + 1)
        assert np.array_equal(junk[upper], gram[upper])
        assert np.array_equal(junk_pivots, pivots) and np.array_equal(junk_diag, diag)
        assert np.array_equal(_solve_stack(junk, pivots, diag), _solve_stack(gram, pivots, diag))

    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    def test_singular_members_are_nan(self, p):
        X = np.random.default_rng(100 + p).standard_normal((40, 60, p + 1))
        X[29, :, :p] = 0.0  # all-zero lag block
        planted = [29]
        if p > 1:
            X[3, :, 0] = X[3, :, p - 1]  # duplicated lag column
            planted = [3, 29]
        phi = eliminate_and_solve(gram_stack(X))
        assert np.flatnonzero(np.isnan(phi).any(axis=0)).tolist() == planted
        assert np.isnan(phi[:, planted]).all()


def per_piece_rule(gram):
    """The per-piece fallback rule on a copy of a (p+1, p+1, N) stack: per
    member, every lag pivot above FALLBACK_RTOL times its diagonal entry and
    a finite SSE above FALLBACK_RTOL times the amplified energy.  Returns the
    rule and _eliminate's outputs, with the SSEs and the energies."""
    gram = gram.copy()
    p = gram.shape[0] - 1
    energy = gram[p, p].copy()
    pivots, diag = _eliminate(gram)
    sse = gram[p, p]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        amplified = energy + ((gram[:p, p] / pivots) ** 2 * diag).sum(axis=0)
        good = (
            (pivots > FALLBACK_RTOL * diag).all(axis=0)
            & (sse > FALLBACK_RTOL * amplified)
            & np.isfinite(sse)
        )
    return good, pivots, diag, sse, energy


class TestChunkBound:
    """A chunk passes one chunk-wide bound, or each piece goes through the
    per-piece fallback rule; the bound implies that rule."""

    @staticmethod
    def bound(gram):
        good, pivots, diag, sse, energy = per_piece_rule(gram)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.log(sse)
        return _well_conditioned(pivots, diag, sse, energy, values), good

    @pytest.mark.parametrize("p", range(6))
    def test_bound_implies_per_piece_rule(self, p):
        # Designs from well conditioned to nearly collinear lags and nearly
        # exact fits: wherever the bound holds, every member passes the rule.
        rng = np.random.default_rng(300 + p)
        held = 0
        for eps in 10.0 ** -np.arange(0, 9):
            X = rng.standard_normal((40, 30, p + 1))
            if p > 1:
                X[:, :, 1] = X[:, :, 0] + eps * X[:, :, 1]
            X[:, :, p] = X[:, :, :p].sum(axis=2) + eps * X[:, :, p]
            ok, good = self.bound(gram_stack(X))
            assert not ok or good.all(), eps
            held += ok
        assert held >= 1

    def test_well_conditioned_stack(self):
        X = np.random.default_rng(7).standard_normal((20, 40, 3))
        ok, good = self.bound(gram_stack(X))
        assert ok and good.all()
        # No lags: rho is 1, and the SSE is the energy.
        ok, good = self.bound(gram_stack(X[:, :, :1]))
        assert ok and good.all()

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_non_finite_or_empty_members_fail(self, p):
        X = np.random.default_rng(11 + p).standard_normal((20, 40, p + 1))
        cases = []
        for spoil in ("inf_diag", "zero_energy", "nan"):
            Y = X.copy()
            if spoil == "inf_diag":
                Y[5, 0, 0] = 1e200  # its square overflows: an inf diagonal entry
            elif spoil == "zero_energy":
                Y[5, :, p] = 0.0
            else:
                Y[5, 3, 0] = np.nan
            cases.append(gram_stack(Y))
        for gram in cases:
            ok, good = self.bound(gram)
            assert not ok
            assert not good[5]

    def test_non_finite_value_fails(self):
        X = np.random.default_rng(3).standard_normal((20, 40, 3))
        good, pivots, diag, sse, energy = per_piece_rule(gram_stack(X))
        values = np.log(sse)
        assert _well_conditioned(pivots, diag, sse, energy, values)
        values[4] = np.inf
        assert not _well_conditioned(pivots, diag, sse, energy, values)

    def test_profiles_do_not_depend_on_the_bound(self, monkeypatch):
        # With the bound always false every chunk takes the per-piece rule:
        # the same values bit for bit, degenerate and fallback counts.
        series = [
            (mean_correct(simulate_piecewise(builtin_model(name), 0)), 28, order)
            for name in "BCDEFGHI"
            for order in (0, 2, 5)
        ]
        for b in (0.999, -0.999, 0.99):
            series.append((mean_correct(ar1(9, 4000, b=b)), 50, 2))
        for seed in range(2):
            for order in (1, 3):
                series += [(c * flat_run_walk(seed), 10, order) for c in (1.0, 1e-100, 1e100)]
        x = np.random.default_rng(5).standard_normal(600)
        x[200:300] = 0.0  # a zero run
        series += [(x, h, 1) for h in (3, 28)]
        big = np.random.default_rng(6).standard_normal(400)
        big[0] = 1e200  # seen only as a lag: its square overflows a diagonal entry
        series += [(big, 10, order) for order in (1, 2, 3)]
        base = [scan_statistics(x, h, order) for x, h, order in series]
        monkeypatch.setattr(scan_module, "_well_conditioned", lambda *args: False)
        for (x, h, order), want in zip(series, base):
            got = scan_statistics(x, h, order)
            assert got.values.tobytes() == want.values.tobytes()
            assert (got.degenerate, got.fallback) == (want.degenerate, want.fallback)
        assert sum(prof.fallback > 0 for prof in base) >= 10
        assert all(prof.fallback > 0 for prof in base[-3:])

    def test_ar_half_chunks_pass_the_bound(self, monkeypatch):
        # AR(+-0.5) data: every chunk of a default scan is decided by the bound.
        calls = []

        def spy(*args):
            calls.append(_well_conditioned(*args))
            return calls[-1]

        monkeypatch.setattr(scan_module, "_well_conditioned", spy)
        regimes = [(ArmaSpec(ar=(0.5 - k % 2,)), 2048 * (k + 1)) for k in range(8)]
        x = mean_correct(simulate_piecewise(PiecewiseSpec(tuple(regimes)), 101))
        prof = scan_statistics(x, DEFAULT_RADIUS, 2)
        assert len(calls) == -(-len(prof.values) // _chunk_windows(2)) and all(calls)


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

    @pytest.mark.parametrize(
        "block,n,h",
        # several blocks; h larger than a block; a last block of one value
        [(8, 40, 3), (8, 41, 3), (5, 60, 12), (4, 33, 10), (3, 7, 20), (16, 400, 40), (1, 30, 2)],
    )
    def test_blocks_match_rule_oracle(self, block, n, h, monkeypatch):
        # Extraction runs over blocks of BLOCK_VALUES profile values, each
        # with the h values on either side of it.
        monkeypatch.setattr(scan_module, "BLOCK_VALUES", block)
        rng = np.random.default_rng(100 * block + n + h)
        for draw in range(20):
            if draw % 2:
                values = rng.integers(0, 4, size=n).astype(float)  # ties in most windows
            else:
                values = rng.uniform(0, 1, size=n)
            prof = ScanProfile(values, offset=h, radius=h, order=0)
            cands = extract_candidates(prof)
            got = [p - h for p in cands.positions]
            assert got == self.rule_oracle(values, h)
            assert cands.scan_values == tuple(values[got].tolist())

    def test_tie_across_a_block_edge_breaks_left(self, monkeypatch):
        # A plateau of 5 over profile values 6..10 straddles the block edge
        # at 8: its first value is the candidate, from either block's view.
        values = np.zeros(24)
        values[6:11] = 5.0
        values[[2, 20]] = 1.0
        for block in (8, 24):
            monkeypatch.setattr(scan_module, "BLOCK_VALUES", block)
            prof = ScanProfile(values, offset=3, radius=3, order=0)
            assert extract_candidates(prof).positions == (3 + 2, 3 + 6, 3 + 20)
            assert self.rule_oracle(values, 3) == [2, 6, 20]

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
