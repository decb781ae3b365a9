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

Positions are evaluated in chunks sized by their Gram stacks: a chunk of
c windows stacks 3c matrices of (p + 1)^2 entries, at most
``CHUNK_VALUES = 2**17`` in all (4854 windows at p = 2 whatever h, so a
T = 65536 series takes 14 chunks).  A chunk costs a few dozen numpy calls
whatever its size and sums lag products over c + 2h columns, so the scan
is O(T log h) at every radius while c is large against h.  A piece's Gram
matrix of lags and target is a set of range sums of the p + 1 lag
products x[s] x[s + l], made by doubling: sums over ranges of 1, 2, 4,
... products, each from two of the level below, and a range of length L
is the sum of the power-of-two ranges of L's set bits, placed one after
another.  So every entry sums the piece's own terms only, as a binary
tree, and its rounding scales with them, not with the length of the
series.  Left pieces (h - p targets) are ranges of h - p products; a right
piece (h targets) is such a range plus its last p products, and the pooled
matrix is the sum of the two.  Each matrix is symmetric, so only its upper
triangle is filled.  All three stacks go through one batched elimination
of the p lag rows, target row included, so the last pivot of each matrix
is its residual sum of squares (SSE): no coefficients and no residuals.
Each chunk reads the series in place; only a chunk whose lag products run
past the end of the series reads a copy of its own span with zeros after
it, so the scan's buffers beyond the profile are the size of a chunk, not
of the series.  A window's value is w_L log s_L + w_R log s_R + w_P log s_P
+ const, added elementwise in that order: the same IEEE operations on its
own three SSEs whatever ``CHUNK_VALUES`` is, so no chunk size changes it.

That SSE is a difference of the target energy and the part the lags
explain, and it loses about log10(energy / SSE) digits, more where the
lags are nearly collinear.  So a window whose pieces are not all well
conditioned takes its SSEs from explicit residuals instead, with
coefficients back-substituted from the same elimination; this fallback is
counted in ``ScanProfile.fallback``.  A piece is well conditioned when
every lag pivot exceeds ``FALLBACK_RTOL`` times its diagonal entry and
its SSE exceeds ``FALLBACK_RTOL`` times its energy plus each lag's
explained part scaled by that lag's diagonal-to-pivot ratio (the factor
by which rounding in that part is amplified).  Degenerate pieces fail the
test, so the ``PIVOT_RTOL`` and ``EXACT_FIT_RTOL`` rules are only applied
on the fallback path.  A chunk first tests one bound over all its pieces,
from what the elimination already gives: the least pivot-to-diagonal ratio
rho of any lag, the least SSE-to-energy ratio and the finiteness of the
chunk's values.  The bound implies the per-piece test, so only a chunk
that fails it runs that test piece by piece: on 8-regime AR(+-0.5) data
at the default radius none does.  The profile stays within about 1e-12 of a
per-window least-squares fit at the default radius, near-unit-root
models included.

:func:`extract_candidates` takes the h-wide window maxima on each side of
every position from the same doubling kernel with ``np.maximum`` in place
of ``np.add``, O(T log h) instead of O(T h).  Maxima are exact, so ties
resolve as in a direct scan of each window.  It runs over blocks of
``BLOCK_VALUES`` profile values, each with the h values on either side of
it (-inf past the profile's ends), so its buffers are the size of a block
plus 2h, not of the profile.  A profile of at most BLOCK_VALUES values is
one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ar import as_series, bic_select_order, check_integer

__all__ = [
    "ScanProfile",
    "CandidateSet",
    "SeriesTooShortError",
    "DEFAULT_RADIUS",
    "scan_statistics",
    "extract_candidates",
    "AUTO_MAX_ORDER",
    "check_order",
    "check_radius",
]

# Cap for the automatic (BIC) scan order.
AUTO_MAX_ORDER = 10

# Gram entries per scan chunk (module docstring): a chunk holds
# CHUNK_VALUES // (3 (p + 1)^2) windows, 4854 at p = 2 and 361 at p = 10.
# On an 8-regime T = 65536 series at h = 3-200 and orders 1-10, 2**17 scanned
# up to 12x faster than chunks of 2**15 // (2h) windows, and at most 7% slower;
# 2**16 was 14-24% slower than those at order 10 (h = 25, 50), and 2**18 (a
# 2 MB stack at p = 2) 17% slower than 2**17 at order 2.
CHUNK_VALUES = 2**17

# Profile values per candidate-extraction block (module docstring): a block's
# buffers hold about 4 (BLOCK_VALUES + h) doubles, 0.5 MB at h = 50.  On a
# T = 65536 profile at h = 50 (2-core VM, medians of 25 rounds), blocks of
# 2**14 and 2**15 took 0.37-0.38 ms, the whole profile in one pass 0.40 ms,
# and blocks of 2**13 and 2**12 0.46 and 0.64 ms.
BLOCK_VALUES = 2**14

# Degenerate-piece rules (module docstring).  A pivot ratio of 1e-10 means the
# normal equations have lost about ten of sixteen digits; a residual sum of
# squares of at most 1e-20 times the raw energy is rounding noise.
PIVOT_RTOL = 1e-10
EXACT_FIT_RTOL = 1e-20
# Conditioning below which a window's SSEs come from explicit residuals
# (module docstring): a well-conditioned SSE carries a relative error of a
# few roundoffs / FALLBACK_RTOL, about 1e-12.
FALLBACK_RTOL = 3e-4

# Default window radius h: the paper's max(50, ceil(ln T)) is 50 for every T < e^50.
DEFAULT_RADIUS = 50


class SeriesTooShortError(ValueError):
    """The series cannot hold a single scanning window."""


@dataclass(frozen=True, eq=False)  # compared and hashed by identity: values is an array
class ScanProfile:
    """Scan values at positions offset, offset+1, ..., offset + len(values) - 1."""

    values: np.ndarray
    offset: int
    radius: int
    order: int
    degenerate: int = 0
    fallback: int = 0  # windows whose SSEs came from explicit residuals

    def positions(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + len(self.values))


@dataclass(frozen=True)
class CandidateSet:
    """The scan's candidate change points and their scan values, in order."""

    positions: tuple[int, ...]
    scan_values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.positions)


def check_radius(h: int) -> int:
    """h as a Python int if it is a positive int (numpy's too), not a bool; else ValueError."""
    h = check_integer("window_radius", h)
    if h < 1:
        raise ValueError("window_radius must be positive")
    return h


def check_order(h: int, order: int) -> int:
    """order as an int if nonnegative, not a bool, and h >= 2 * order + 1; else ValueError."""
    order = check_integer("scan order", order)  # numpy would read a bool as a mask
    if order < 0:
        raise ValueError("scan order must be nonnegative")
    if h < 2 * order + 1:
        raise ValueError(
            f"window_radius must be at least 2 * scan order + 1 (got h={h}, order={order})"
        )
    return order


def _resolve_order(x: np.ndarray, h: int, order: int | None) -> int:
    if order is not None:
        return check_order(h, order)
    cap = min(AUTO_MAX_ORDER, (h - 1) // 2)
    return bic_select_order(x, cap) if cap >= 1 else 0


def _chunk_windows(order: int) -> int:
    """Windows per scan chunk at this order: a (p+1, p+1, 3c) Gram stack of at
    most CHUNK_VALUES entries, and at least one window."""
    return max(1, CHUNK_VALUES // (3 * (order + 1) ** 2))


def _window_reduce(op, z: np.ndarray, length: int, out: np.ndarray) -> None:
    """out[..., s] = op.reduce(z[..., s : s + length]) for every column s of out.

    By doubling: level w holds op over z[..., s : s + w], and level 2w is op
    of level w and itself shifted by w.  A window is op over the
    power-of-two blocks of the set bits of ``length``, placed one after
    another, so about log2(length) + popcount(length) whole-row ufunc
    calls.  With ``np.add`` each value sums the window's own terms only,
    as a binary tree, so its rounding scales with them, not with the rest
    of the series (and it is exactly 0 over zeros); with ``np.maximum`` it
    is the exact window maximum.  z has at least ``length - 1`` more
    columns than out.
    """
    m = out.shape[-1]
    spare = np.empty((2,) + z.shape[:-1] + (m + length - 2,))
    level, w, done = z, 1, 0
    while True:
        if length & w:  # block z[..., s + done : s + done + w]
            if done:
                op(out, level[..., done : done + m], out=out)
            else:
                out[...] = level[..., :m]
            done += w
        if 2 * w > length:
            return
        cols = m + length - 2 * w  # what the blocks of 2w and more reach
        nxt = spare[0, ..., :cols]
        op(level[..., :cols], level[..., w : w + cols], out=nxt)
        level, w, spare = nxt, 2 * w, spare[::-1]  # keep level out of the next out


def _eliminate(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian elimination without pivoting of the p lag rows of a (p+1, p+1, N) stack.

    Index p of each (p+1) x (p+1) Gram matrix is the target and index i < p
    its lag p - i.  Only the upper triangle (j >= i) is read or written, so
    the lower one may hold anything.  Each lag row in turn is eliminated
    from every row below it, the target row included, in place; on a
    symmetric positive definite matrix this is its LDL^T factorization (the
    eliminated rows are D L^T).  The last pivot, gram[p, p], is then the
    residual sum of squares of the least-squares fit of the target on its
    lags, and gram[k, p] the target's entry in lag row k as that row was
    eliminated.  Returns the lag pivots and the diagonal entries they
    started from, both (p, N).  Raises no warning; a zero pivot leaves inf
    or NaN behind it.
    """
    p = gram.shape[0] - 1
    diag = np.diagonal(gram[:p, :p]).T.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(p):
            factor = gram[k, k + 1 :] / gram[k, k]
            for i in range(k + 1, p + 1):
                gram[i, i:] -= factor[i - k - 1] * gram[k, i:]
    return np.diagonal(gram[:p, :p]).T, diag


def _solve_stack(gram: np.ndarray, pivots: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """AR coefficients of a (p+1, p+1, N) Gram stack that _eliminate has reduced.

    Back-substitution solves gram[:p, :p] phi = gram[:p, p] for every member
    at once, given the pivots and diag _eliminate returned for the stack.
    phi[i] is the coefficient of lag p - i.  A member with a pivot at most
    PIVOT_RTOL times its diagonal entry has rank-deficient lags: its column
    of the (p, N) result is NaN.
    """
    p = len(pivots)
    phi = np.empty((p, gram.shape[2]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(p - 1, -1, -1):  # at k = p - 1 the sum is empty: 0.0
            rhs = gram[k, p] - np.einsum("jn,jn->n", gram[k, k + 1 : p], phi[k + 1 :])
            phi[k] = rhs / gram[k, k]
    phi[:, ~(pivots > PIVOT_RTOL * diag).all(axis=0)] = np.nan
    return phi


def _well_conditioned(pivots, diag, sse, energy, values) -> bool:
    """True when one chunk-wide bound shows every piece of a chunk well
    conditioned by the per-piece rule (module docstring).

    pivots and diag are what _eliminate returned for the chunk's stack, sse
    its last pivots, energy its targets' energies before elimination and
    values the chunk's scan values.  With R = FALLBACK_RTOL and rho the least
    ratio of a lag pivot to its diagonal entry over the whole stack (1
    without lags), the bound is rho > 2R, every sse / energy > 2R (1 + 1/rho)
    and every value finite.  It implies the per-piece rule: fl(D / d) > 2R
    gives D > R d; the amplified energy is at most energy + (energy -
    sse) / rho up to rounding, so the second condition gives sse > R times it
    with a factor 2 to spare; and a value is not finite where its sse is not.
    A NaN anywhere makes a minimum NaN and the bound false.  Raises no
    warning.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        fit = (sse / energy).min()
        # rho <= 1 (a matrix's first pivot is its diagonal entry), so a chunk
        # whose fit is at most 4R fails whatever rho is: one ratio, not two.
        if not fit > 4 * FALLBACK_RTOL:
            return False
        rho = (pivots / diag).min(initial=1.0)  # the first lag's ratio is 1
        return bool(
            rho > 2 * FALLBACK_RTOL
            and fit > 2 * FALLBACK_RTOL * (1 + 1 / rho)
            and np.isfinite(values).all()
        )


def scan_statistics(series, h: int, order: int | None = None) -> ScanProfile:
    """Compute the scan profile with window radius h at every admissible position.

    The series should be mean-corrected.  h must satisfy
    :func:`check_radius` (a positive int, not a bool), else ValueError.
    ``order=None`` selects the AR order by BIC on the whole series, capped at
    min(AUTO_MAX_ORDER, (h - 1) // 2); a given order must satisfy
    :func:`check_order` (0 <= order, h >= 2 * order + 1), else ValueError.
    Raises SeriesTooShortError when T < 2h.  The profile has length
    T - 2h + 1.
    """
    h = check_radius(h)
    x = as_series(series)
    n = len(x)
    if n < 2 * h:
        raise SeriesTooShortError(
            f"series of length {n} is shorter than one window (2h = {2 * h})"
        )
    p = _resolve_order(x, h, order)
    dim = p + 1

    # Window k (scan position t = h + k) is x[k .. k + 2h - 1]; each piece
    # is a column range of its targets.
    pieces = ((p, h), (h, 2 * h), (p, 2 * h))  # left, right, pooled
    # With L = -n/2 (log 2pi + log(sse / n) + 1) per piece, log 2pi + 1 cancels: n_L + n_R = n_P.
    w_left, w_right, w_pooled = -(h - p) / (2 * h), -0.5, (2 * h - p) / (2 * h)
    const = -(w_left * math.log(h - p) + w_right * math.log(h) + w_pooled * math.log(2 * h - p))

    def score(log_sse):  # scan values of windows from their (3, n) log SSEs, column by column
        return w_left * log_sse[0] + w_right * log_sse[1] + w_pooled * log_sse[2] + const

    m = n - 2 * h + 1
    chunk = min(m, _chunk_windows(p))
    # Fallback windows per residual pass: 2h values and up to 2h residuals each.
    group = max(1, CHUNK_VALUES // (4 * h))

    # Gram entry (i, j) of a piece with targets x[a .. b-1] sums the lag-l
    # products z[l, s] = x[s] x[s + l], l = |i - j|, over the b - a values of
    # s from a - p + min(i, j) on.  Counting s from a chunk's first window,
    # window w's left piece (targets w + p .. w + h - 1) sums h - p of them
    # from w + min(i, j): sums[0, l, w + min(i, j)].  Its right piece sums h
    # from w + h - p + min(i, j): the same kind of range sum plus p
    # more products, sums[1, l, w + min(i, j)], and its pooled piece the sum
    # of the two, sums[2, l, w + min(i, j)].
    width = chunk + h  # columns of sums[0]
    span = width + h  # columns of z
    z = np.empty((dim, span))  # z[l, s] = x[s] x[s + l], s from the chunk's first window
    sums = np.empty((3, dim, width))
    # Every chunk's Gram stack.  Only upper triangles are written or read
    # (_eliminate, _solve_stack): the lower ones are left unset, and the
    # fallback's copies of whole matrices carry them along unread.
    stack = np.empty(dim * dim * 3 * chunk)

    values = np.empty(m)
    fallback = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k0 in range(0, m, chunk):
            c = min(chunk, m - k0)
            # Past the end of x, the span reads zeros (module docstring).
            xs = x[k0 : k0 + span + p]
            if len(xs) < span + p:
                xs = np.concatenate([xs, np.zeros(span + p - len(xs))])
            for lag in range(dim):
                np.multiply(xs[:span], xs[lag : lag + span], out=z[lag])
            _window_reduce(np.add, z, h - p, sums[0])
            right = sums[1, :, : chunk + p]
            right[:] = sums[0, :, h - p : h + chunk]
            for q in range(2 * h - 2 * p, 2 * h - p):
                right += z[:, q : q + chunk + p]
            np.add(sums[0, :, : chunk + p], right, out=sums[2, :, : chunk + p])
            # The (dim, dim, 3, c) Gram stack of the chunk's c windows: left,
            # right, pooled; member piece * c + w of the reshaped stack.
            gram = stack[: dim * dim * 3 * c].reshape(dim, dim, 3, c)
            for i in range(dim):  # upper triangles only (_eliminate)
                gram[i, i:] = sums[:, : dim - i, i : i + c].transpose(1, 0, 2)
            gram = gram.reshape(dim, dim, 3 * c)
            energy = sums[:, 0, p : p + c]  # targets' energies: gram[p, p] before elimination
            pivots, diag = _eliminate(gram)
            sse = gram[p, p]
            values[k0 : k0 + c] = score(np.log(sse).reshape(3, c))
            if _well_conditioned(pivots, diag, sse.reshape(3, c), energy, values[k0 : k0 + c]):
                continue
            # Lag row k explains u_k^2 / D_k of the target's energy (u_k =
            # gram[k, p], D_k its pivot), amplified by diag_k / D_k.
            amplified = energy.ravel() + ((gram[:p, p] / pivots) ** 2 * diag).sum(axis=0)
            good = (
                (pivots > FALLBACK_RTOL * diag).all(axis=0)
                & (sse > FALLBACK_RTOL * amplified)
                & np.isfinite(sse)
            )
            if good.all():
                continue
            redo = np.flatnonzero(~good.reshape(3, c).all(axis=0))
            fallback += len(redo)
            members = (np.arange(3)[:, None] * c + redo).ravel()
            phi = _solve_stack(gram[:, :, members], pivots[:, members], diag[:, members])
            phi = phi.reshape(p, 3, len(redo))
            resid_sse = np.empty((3, len(redo)))
            windows = sliding_window_view(x, 2 * h)  # windows[k] is window k
            for g in range(0, len(redo), group):
                part = slice(g, g + group)
                w = windows[k0 + redo[part]]
                for i, (lo, hi) in enumerate(pieces):
                    resid = w[:, lo:hi].copy()
                    for j in range(1, p + 1):
                        resid -= phi[p - j, i, part, None] * w[:, lo - j : hi - j]
                    np.einsum("ij,ij->i", resid, resid, out=resid_sse[i, part])
            # NaN phi (rank-deficient lags) gives NaN sse.
            ok = (resid_sse > EXACT_FIT_RTOL * energy[:, redo]) & np.isfinite(resid_sse)
            log_sse = np.log(resid_sse, out=np.full_like(resid_sse, np.nan), where=ok)
            values[k0 + redo] = score(log_sse)
    bad = np.isnan(values)
    values[bad] = 0.0
    return ScanProfile(
        values=values, offset=h, radius=h, order=p, degenerate=int(bad.sum()), fallback=fallback
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
    positions, scan_values = [], []
    for lo in range(0, n, BLOCK_VALUES):
        part = vals[lo : lo + BLOCK_VALUES]
        b = len(part)
        # ext is vals[lo - h : lo + b + h], -inf past either end of vals, and
        # win[k] the maximum of ext[k : k + h].  before[i] = win[i] covers
        # part[i - h .. i - 1], after[i] = win[i + h + 1] part[i + 1 .. i + h].
        win = np.empty(b + h + 1)
        ext = np.full(b + 2 * h, -np.inf)
        first, last = max(lo - h, 0), min(lo + b + h, n)
        ext[first - lo + h : last - lo + h] = vals[first:last]
        _window_reduce(np.maximum, ext, h, win)
        before = win[:b]
        after = win[h + 1 : b + h + 1]
        keep = (part > before) & (part >= after)
        idx = np.flatnonzero(keep)
        positions += (profile.offset + lo + idx).tolist()
        scan_values += part[idx].tolist()
    return CandidateSet(positions=tuple(positions), scan_values=tuple(scan_values))
