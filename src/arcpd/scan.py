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
"""

from __future__ import annotations

import math
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
            if self.window_radius < self.order + 2:
                raise ValueError(
                    "window_radius must be at least scan order + 2 "
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
    cap = min(AUTO_MAX_ORDER, cfg.window_radius - 2, len(x) - 1)
    if cap < 1:
        return 0
    return bic_select_order(x, cap)


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

    # Regression targets are 0-based indices i in [p, n-1] with predictor
    # row (x[i], x[i-1], ..., x[i-p]).  Prefix sums of the outer products
    # give any window's normal equations in O(p^2).
    dim = p + 1
    lagged = np.empty((n, dim))
    lagged[:, 0] = x
    for j in range(1, dim):
        lagged[j:, j] = x[:-j]
        lagged[:j, j] = 0.0
    outer = np.einsum("ti,tj->tij", lagged, lagged)
    outer[:p] = 0.0
    prefix = np.concatenate([np.zeros((1, dim, dim)), np.cumsum(outer, axis=0)])
    # prefix[i+1] = sum of outer products for targets p..i

    def piece_loglik(a: int, b: int, count: int) -> float:
        """Max conditional loglik of targets a..b inclusive (0-based)."""
        g = prefix[b + 1] - prefix[a]
        if p == 0:
            sse = float(g[0, 0])
        else:
            try:
                phi = np.linalg.solve(g[1:, 1:], g[1:, 0])
            except np.linalg.LinAlgError:
                return math.nan
            resid = x[a : b + 1] - lagged[a : b + 1, 1:] @ phi
            sse = float(resid @ resid)
        if not (sse > 0.0) or not math.isfinite(sse):
            return math.nan
        return -0.5 * count * (LOG_2PI + math.log(sse / count) + 1.0)

    values = np.empty(n - 2 * h + 1)
    degenerate = 0
    for i, t in enumerate(range(h, n - h + 1)):  # 1-based scan position t
        a = t - h + p  # first target index of the window (0-based)
        left = piece_loglik(a, t - 1, h - p)
        right = piece_loglik(t, t + h - 1, h)
        pooled = piece_loglik(a, t + h - 1, 2 * h - p)
        ls = (left + right - pooled) / h
        if math.isnan(ls):
            degenerate += 1
            ls = 0.0
        values[i] = ls
    return ScanProfile(
        values=values, offset=h, radius=h, order=p, degenerate=degenerate
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
