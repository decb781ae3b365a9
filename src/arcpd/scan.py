"""Sliding-window likelihood-ratio scan and candidate extraction.

For a window radius ``h`` the scan value at position ``t`` (1-based,
``h <= t <= T - h``) compares fitting one AR model to the window
``x[t-h+1 .. t+h]`` against fitting the two halves separately:

    scan(t) = (L_left + L_right - L_pooled) / h

where each ``L`` is the maximized Gaussian log-likelihood of its piece,
conditioning every term on the actual preceding in-window observations.
Under that conditioning the pooled sum decomposes exactly into the two
half sums, so the split fits can only improve on the pooled fit and the
profile is nonnegative up to rounding.  Large values flag a change in the
autoregressive structure at ``t``.

The half fits are exact conditional maximum-likelihood (least-squares)
AR fits; the per-piece maximizer property is what makes the ratio
sign-controlled, which a moment-based fit would only achieve
approximately.  Windows where a fit degenerates (singular normal
equations, zero residual variance) score 0 and are counted in
``ScanProfile.degenerate``.

Positions are evaluated in chunks of about ``CHUNK_VALUES / 2h``
windows.  Per chunk and piece (left, right, pooled), the normal equations
are differences of one prefix sum of lag outer products and are solved in
one stacked call; a chunk holding a singular window is re-solved window
by window.  The residual sum of squares is then summed from explicit
residuals, not taken as ``g00 - g0' phi`` from the prefix sums: that
difference cancels badly on long and near-unit-root series (errors near
1e-9 on AR(0.999) at T = 2e5), while explicit residuals keep the profile
within rounding of a per-window least-squares fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ar import LOG_2PI, as_series, bic_select_order

__all__ = [
    "ScanConfig",
    "ScanProfile",
    "CandidateSet",
    "SeriesTooShortError",
    "DEFAULT_RADIUS",
    "scan_statistics",
    "extract_candidates",
    "AUTO_MAX_ORDER",
]

# Cap for the automatic (BIC) scan order.
AUTO_MAX_ORDER = 10

# Scan positions per chunk: CHUNK_VALUES // (2h), so one piece's residuals
# hold about CHUNK_VALUES floats.
CHUNK_VALUES = 2**14

# Default window radius h: the paper's max(50, ceil(ln T)) is 50 for every T < e^50.
DEFAULT_RADIUS = 50


class SeriesTooShortError(ValueError):
    """The series cannot hold a single scanning window."""


@dataclass(frozen=True)
class ScanConfig:
    """Window radius and scan order; ``order=None`` selects it by BIC."""

    window_radius: int
    order: int | None = None

    def __post_init__(self):
        if self.window_radius < 1:
            raise ValueError("window_radius must be positive")
        if self.order is not None:
            if self.order < 0:
                raise ValueError("scan order must be nonnegative")
            # A half window has h - p targets for p coefficients.
            if self.window_radius < 2 * self.order + 1:
                raise ValueError(
                    "window_radius must be at least 2 * scan order + 1 "
                    f"(got h={self.window_radius}, order={self.order})"
                )


@dataclass(frozen=True)
class ScanProfile:
    """Scan values at positions offset, offset+1, ..., offset + len(values) - 1."""

    values: np.ndarray
    offset: int
    radius: int
    order: int
    degenerate: int = 0

    def positions(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + len(self.values))


@dataclass(frozen=True)
class CandidateSet:
    positions: tuple[int, ...]
    scan_values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.positions)


def _resolve_order(x: np.ndarray, cfg: ScanConfig) -> int:
    if cfg.order is not None:
        return cfg.order
    cap = min(AUTO_MAX_ORDER, (cfg.window_radius - 1) // 2, len(x) - 1)
    if cap < 1:
        return 0
    return bic_select_order(x, cap)


def _gram_prefix(x: np.ndarray, p: int) -> np.ndarray:
    """prefix[i+1] = sum of r_k r_k^T over targets k = p..i, r_k = (x[k], ..., x[k-p]).

    prefix[0..p] are zero.  Built in place: one (n+1, p+1, p+1) array.
    """
    n, dim = len(x), p + 1
    prefix = np.zeros((n + 1, dim, dim))
    rows = sliding_window_view(x, dim)[:, ::-1]  # row k - p is r_k
    np.einsum("ti,tj->tij", rows, rows, out=prefix[p + 1 :])
    np.cumsum(prefix, axis=0, out=prefix)
    return prefix


def _solve_stack(gram: np.ndarray) -> np.ndarray:
    """AR coefficients of each Gram matrix in the stack; NaN rows where singular."""
    a, b = gram[:, 1:, 1:], gram[:, 1:, :1]
    try:
        return np.linalg.solve(a, b)[:, :, 0]
    except np.linalg.LinAlgError:
        # One singular window fails the whole stack: retry one at a time.
        phi = np.full(b.shape[:2], np.nan)
        for i in range(len(gram)):
            try:
                phi[i] = np.linalg.solve(a[i], b[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return phi


def _piece_loglik(
    x: np.ndarray, prefix: np.ndarray, p: int, lo: int, hi: int, count: int
) -> np.ndarray:
    """Max conditional logliks of the pieces with targets s .. s + count - 1, lo <= s < hi.

    NaN where the fit degenerates (singular normal equations, residual
    variance not positive and finite).
    """
    windows = sliding_window_view(x, count)
    resid = windows[lo:hi].copy()
    if p:
        phi = _solve_stack(prefix[lo + count : hi + count] - prefix[lo:hi])
        for j in range(1, p + 1):
            resid -= phi[:, j - 1, None] * windows[lo - j : hi - j]
    sse = np.einsum("ij,ij->i", resid, resid)
    ok = (sse > 0.0) & np.isfinite(sse)
    log_s2 = np.log(sse / count, out=np.full(len(sse), np.nan), where=ok)
    return -0.5 * count * (LOG_2PI + log_s2 + 1.0)


def scan_statistics(series, cfg: ScanConfig) -> ScanProfile:
    """Compute the scan profile at every admissible position.

    The series should be mean-corrected.  Raises SeriesTooShortError when
    T < 2h.  The profile has length T - 2h + 1.
    """
    x = as_series(series)
    n = len(x)
    h = cfg.window_radius
    if n < 2 * h:
        raise SeriesTooShortError(
            f"series of length {n} is shorter than one window (2h = {2 * h})"
        )
    p = _resolve_order(x, cfg)
    prefix = _gram_prefix(x, p)

    # Position index k (scan position t = h + k) has its window's targets at
    # 0-based k + p .. k + 2h - 1.  Each piece is (first target - k, count).
    pieces = ((p, h - p), (h, h), (p, 2 * h - p))  # left, right, pooled
    m = n - 2 * h + 1
    chunk = max(1, CHUNK_VALUES // (2 * h))
    values = np.empty(m)
    for k0 in range(0, m, chunk):
        k1 = min(k0 + chunk, m)
        left, right, pooled = (
            _piece_loglik(x, prefix, p, k0 + first, k1 + first, count)
            for first, count in pieces
        )
        values[k0:k1] = (left + right - pooled) / h
    bad = np.isnan(values)
    values[bad] = 0.0
    return ScanProfile(
        values=values, offset=h, radius=h, order=p, degenerate=int(bad.sum())
    )


def extract_candidates(profile: ScanProfile) -> CandidateSet:
    """Positions whose scan value dominates every neighbor within the radius.

    A position qualifies when its value is strictly greater than all values
    up to `radius` before it and at least as great as all values up to
    `radius` after it (ties break to the earliest position).  Consecutive
    candidates are therefore always more than `radius` apart.
    """
    vals = np.asarray(profile.values, dtype=float)
    n = len(vals)
    if n == 0:
        raise ValueError("empty scan profile")
    h = profile.radius
    pad = np.full(h, -np.inf)
    ext = np.concatenate([pad, vals, pad])
    windows = sliding_window_view(ext, h)
    before = windows[:n].max(axis=1)
    after = windows[h + 1 : h + 1 + n].max(axis=1)
    keep = (vals > before) & (vals >= after)
    idx = np.flatnonzero(keep)
    return CandidateSet(
        positions=tuple(int(profile.offset + i) for i in idx),
        scan_values=tuple(float(vals[i]) for i in idx),
    )
