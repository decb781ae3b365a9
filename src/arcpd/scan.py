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
approximately.  A window scores 0 and is counted in
``ScanProfile.degenerate`` when a piece has rank-deficient lags (an
elimination pivot at most ``PIVOT_RTOL`` times its diagonal entry) or an
exact fit (residual sum of squares at most ``EXACT_FIT_RTOL`` times that
of its targets), as on a constant stretch.  Both rules are relative, so
they do not depend on the scale of the series.

Positions are evaluated in chunks of about ``CHUNK_VALUES / 2h`` windows
(``CHUNK_VALUES = 2**15``: 327 windows at h = 50, so a T = 65536 series
takes 201 chunks; each chunk costs a few dozen numpy calls whatever its
size, and one piece's residuals hold at most 256 KB).
Left and right Gram matrices are differences of one prefix sum of lag
outer products; the pooled targets are the union of theirs, so its Gram
matrix is their sum.  All three stacks are solved by one batched LDL^T
elimination, a p-step numpy loop.  The residual sums of squares come from
explicit residuals over column slices of one sliding-window view, not
from ``g00 - g0' phi``, which cancels badly on long and near-unit-root
series (errors near 1e-9 on AR(0.999) at T = 2e5); explicit residuals
keep the profile within rounding of a per-window least-squares fit.

:func:`extract_candidates` takes the h-wide window maxima on each side of
every position from block prefix and suffix maxima (rows of h values, one
``np.maximum.accumulate`` each way), O(T) instead of O(T h).  Maxima are
exact, so ties resolve as in a direct scan of each window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ar import LOG_2PI, as_series, bic_select_order

__all__ = [
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
# hold about CHUNK_VALUES floats.  At 2**16 glibc malloc hands the chunk
# buffers back to the system after every chunk, and faulting them in again
# made the T = 1024 scan 1.3-1.8x slower than at 2**15.
CHUNK_VALUES = 2**15

# Degenerate-piece rules (module docstring).  A pivot ratio of 1e-10 means the
# normal equations have lost about ten of sixteen digits; a residual sum of
# squares of 1e-20 times the energy is rounding noise of an exact fit.
PIVOT_RTOL = 1e-10
EXACT_FIT_RTOL = 1e-20

# Default window radius h: the paper's max(50, ceil(ln T)) is 50 for every T < e^50.
DEFAULT_RADIUS = 50


class SeriesTooShortError(ValueError):
    """The series cannot hold a single scanning window."""


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


def _resolve_order(x: np.ndarray, h: int, order: int | None) -> int:
    if order is not None:
        return order
    cap = min(AUTO_MAX_ORDER, (h - 1) // 2, len(x) - 1)
    if cap < 1:
        return 0
    return bic_select_order(x, cap)


def _gram_prefix(x: np.ndarray, p: int) -> np.ndarray:
    """prefix[:, :, i+1] = sum of r_k r_k^T over targets k = p..i, r_k = (x[k-p], ..., x[k]).

    prefix[:, :, 0..p] are zero.  Built in place: one (p+1, p+1, n+1) array,
    so the Gram matrices of a run of windows are a contiguous slice.  Index
    p is the target and index i < p its lag p - i.
    """
    n, dim = len(x), p + 1
    prefix = np.zeros((dim, dim, n + 1))
    rows = sliding_window_view(x, dim)  # row k - p is r_k
    np.einsum("ti,tj->ijt", rows, rows, out=prefix[:, :, p + 1 :])
    np.cumsum(prefix, axis=2, out=prefix)
    return prefix


def _solve_stack(gram: np.ndarray) -> np.ndarray:
    """AR coefficients of a (p+1, p+1, N) stack of Gram matrices laid out as in _gram_prefix.

    Solves gram[:p, :p] phi = gram[:p, p] for every member at once by
    Gaussian elimination without pivoting, which on a symmetric positive
    definite matrix is its LDL^T factorization (the eliminated rows are
    D L^T).  phi[i] is the coefficient of lag p - i.  A member with a pivot
    at most PIVOT_RTOL times its diagonal entry has rank-deficient lags: its
    column of the (p, N) result is NaN.  Overwrites the lag rows gram[:p].
    """
    p = gram.shape[0] - 1
    diag = np.diagonal(gram[:p, :p]).copy()  # (N, p)
    phi = np.empty((p, gram.shape[2]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(p - 1):
            factor = gram[k + 1 : p, k] / gram[k, k]
            gram[k + 1 : p, k + 1 :] -= factor[:, None] * gram[k, k + 1 :]
        # Elimination leaves row k's pivot on the diagonal.
        ok = (np.diagonal(gram[:p, :p]) > PIVOT_RTOL * diag).all(axis=1)
        for k in range(p - 1, -1, -1):
            rhs = gram[k, p]
            if k + 1 < p:
                rhs = rhs - np.einsum("jn,jn->n", gram[k, k + 1 : p], phi[k + 1 :])
            phi[k] = rhs / gram[k, k]
    phi[:, ~ok] = np.nan
    return phi


def scan_statistics(series, h: int, order: int | None = None) -> ScanProfile:
    """Compute the scan profile with window radius h at every admissible position.

    The series should be mean-corrected.  ``order=None`` selects the AR
    order by BIC on the whole series, capped at min(AUTO_MAX_ORDER,
    (h - 1) // 2); a given order needs h >= 2 * order + 1, as
    :class:`arcpd.pipeline.DetectConfig` checks.  Raises SeriesTooShortError
    when T < 2h.  The profile has length T - 2h + 1.
    """
    x = as_series(series)
    n = len(x)
    if n < 2 * h:
        raise SeriesTooShortError(
            f"series of length {n} is shorter than one window (2h = {2 * h})"
        )
    p = _resolve_order(x, h, order)
    prefix = _gram_prefix(x, p)
    windows = sliding_window_view(x, 2 * h)

    # Window k (scan position t = h + k) is windows[k] = x[k .. k + 2h - 1];
    # each piece is a column range of its targets.
    pieces = ((p, h), (h, 2 * h), (p, 2 * h))  # left, right, pooled
    # With L = -n/2 (log 2pi + log(sse / n) + 1) per piece, the scan value
    # (L_left + L_right - L_pooled) / h is a constant plus weights @ log(sse).
    counts = np.array([hi - lo for lo, hi in pieces], dtype=float)
    weights = -0.5 * np.array([1.0, 1.0, -1.0]) * counts / h
    const = float(weights @ (LOG_2PI + 1.0 - np.log(counts)))
    m = n - 2 * h + 1
    chunk = max(1, CHUNK_VALUES // (2 * h))
    values = np.empty(m)
    for k0 in range(0, m, chunk):
        k1 = min(k0 + chunk, m)
        c = k1 - k0
        gram = np.empty((p + 1, p + 1, 3, c))
        for i, (lo, hi) in enumerate(pieces[:2]):
            np.subtract(prefix[:, :, k0 + hi : k1 + hi], prefix[:, :, k0 + lo : k1 + lo],
                        out=gram[:, :, i])
        np.add(gram[:, :, 0], gram[:, :, 1], out=gram[:, :, 2])
        energy = gram[p, p]  # _solve_stack leaves the target row alone
        phi = _solve_stack(gram.reshape(p + 1, p + 1, 3 * c)).reshape(p, 3, c)
        w = windows[k0:k1]
        sse = np.empty((3, c))
        for i, (lo, hi) in enumerate(pieces):
            resid = w[:, lo:hi].copy()
            for j in range(1, p + 1):
                resid -= phi[p - j, i, :, None] * w[:, lo - j : hi - j]
            np.einsum("ij,ij->i", resid, resid, out=sse[i])
        # NaN phi (rank-deficient lags) gives NaN sse.
        ok = (sse > EXACT_FIT_RTOL * energy) & np.isfinite(sse)
        log_sse = np.log(sse, out=np.full((3, c), np.nan), where=ok)
        values[k0:k1] = weights @ log_sse + const
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
    # ext is the profile with h -inf before it and at least h after, cut into
    # rows of h.  A window ext[k : k + h] is the suffix of k's row from k plus
    # the prefix of the next row up to k + h - 1, so win[k], its maximum, is
    # the larger of the two.  before[i] = win[i] covers vals[i - h .. i - 1],
    # after[i] = win[i + h + 1] covers vals[i + 1 .. i + h].
    ext = np.full((-(-n // h) + 2) * h, -np.inf)
    ext[h : h + n] = vals
    rows = ext.reshape(-1, h)
    prefix = np.maximum.accumulate(rows, axis=1).ravel()
    suffix = np.maximum.accumulate(rows[:, ::-1], axis=1)[:, ::-1].ravel()
    win = np.maximum(suffix[: n + h + 1], prefix[h - 1 : n + 2 * h])
    before = win[:n]
    after = win[h + 1 :]
    keep = (vals > before) & (vals >= after)
    idx = np.flatnonzero(keep)
    return CandidateSet(
        positions=tuple((profile.offset + idx).tolist()),
        scan_values=tuple(vals[idx].tolist()),
    )
