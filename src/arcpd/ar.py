"""Autoregressive fitting kernel: autocovariances, Levinson-Durbin, BIC order.

A time series is a 1-D float array.  Everything here treats the input as
already mean-corrected unless noted; use :func:`mean_correct` first.

:func:`levinson_path` is the one Levinson-Durbin recursion, in its Schur
form (Le Roux & Gueguen 1977).  It takes a stack of autocovariance rows
(shape (..., L); a 1-D input is a stack of one row) and gives each row's
reflection coefficients and Yule-Walker innovation variances at every
order up to the one asked for, with vector operations across rows and a
Python loop over orders only.  A row's result depends on that row alone,
bit for bit, whatever its stack.  Breakdown follows one convention for
every row: a row whose variance at order m - 1 is not positive and finite
stops there, and its later variances and reflection coefficients are NaN.

:func:`bic_order` is the one BIC scorer, read off a stack of such paths
with the concentrated Gaussian likelihood: BIC(p) = n * (log(2 pi) + log
sigma2_p + 1) + (p + 1) * log(n).  It needs no residual pass, and since the
minimizer depends on the data only through ratios of innovation variances,
the selected order does not depend on the units (scale) of the series.

Both kernels take stacks, as the segment test fits them.  The scan's order
is one series, where numpy's per-call cost would outweigh O(order) updates:
:func:`bic_select_order` runs the same steps and scores on Python floats,
in the kernels' order, so it picks the order they pick, bit for bit.

Reflection coefficients carry the predictor's sign, that of
x[t] ~ phi_1 x[t-1] + ... + phi_p x[t-p], the generating convention of
:mod:`arcpd.simulate`: a process simulated with ``ar=(0.7,)`` gives
``reflect[0] ~= 0.7``.  The order-p predictor is the step-up of
reflect[:p]: phi_m = k_m and phi_j <- phi_j - k_m phi_{m-j} for each order
m, with k_m = reflect[m-1].
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# At most this many boundaries, the chi-square tail and the corrections run on
# Python floats.  Floats vs numpy (2-core VM): the tail 62 vs 106 us at 24
# values, 108 vs 121 at 48; BH 15.0 vs 20.6 us at 24, 30.4 vs 27.8 at 48.
FLOAT_COUNT = 24

__all__ = [
    "DegenerateFitError",
    "mean_correct",
    "sample_autocov",
    "levinson_path",
    "bic_order",
    "bic_select_order",
]


class DegenerateFitError(ArithmeticError):
    """The Yule-Walker system is singular or broke down mid-recursion."""


def as_series(values) -> np.ndarray:
    """Coerce to a 1-D float array and validate basic invariants."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"time series must be 1-D, got an array of shape {x.shape}")
    if x.size < 1:
        raise ValueError("time series must contain at least one observation")
    if not np.all(np.isfinite(x)):
        raise ValueError("time series contains non-finite values")
    return x


def check_integer(name: str, value) -> int:
    """value as a Python int if it is an int (numpy's too), not a bool; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def mean_correct(values) -> np.ndarray:
    """Subtract the arithmetic mean; the result sums to zero up to rounding."""
    x = as_series(values)
    return x - x.mean()


def sample_autocov(values, max_lag: int) -> np.ndarray:
    """Sample autocovariances with divisor T at every lag.

    gamma[j] = (1/T) * sum_{t=j}^{T-1} x[t] * x[t-j] for j = 0..max_lag,
    all lags from one ``np.correlate`` of x, zero-padded by max_lag, with x.
    No mean is subtracted here; the caller mean-corrects first.  The
    divisor-T form keeps the sequence positive semidefinite, which the
    Levinson-Durbin recursion relies on.
    """
    x = as_series(values)
    max_lag = check_integer("max_lag", max_lag)
    n = len(x)
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must be in [0, {n - 1}], got {max_lag}")
    return np.correlate(np.concatenate([x, np.zeros(max_lag)]), x, "valid") / n


def levinson_path(gamma, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Reflection coefficients and innovation variances of every order up to
    `order`, per row, by the Schur recursion.

    gamma is a stack of autocovariance rows, shape (..., L) with L > order;
    a 1-D gamma is one row.  Returns (reflect, sigma2s) of shapes
    (..., order) and (..., order + 1): reflect[..., m-1] is the order-m
    reflection (partial autocorrelation) coefficient k_m and sigma2s[..., m]
    the innovation variance of the order-m Yule-Walker fit.  The generators a and b start
    as gamma[:order + 1]; order m takes k_m = a[m] / b[m-1], then, from the
    old values, sets a[i] -= k_m b[i-1] for i > m and b[i] = b[i-1] - k_m a[i]
    for m <= i < order.  After the last order, sigma2s[m] = sigma2s[m-1] *
    (1 - k_m**2).  Each order is equivalent to a dense Toeplitz solve but
    costs O(order) per row.  A row whose sigma2s[m-1] is not positive and
    finite breaks down entering order m: its sigma2s past m - 1 and its
    reflect from order m on are NaN.  Callers read a row's breakdown order
    off its first variance that is not positive and finite.
    """
    g = np.asarray(gamma, dtype=float)
    order = check_integer("order", order)
    if not 0 <= order < g.shape[-1]:
        raise ValueError(
            f"need autocovariances to lag {order}, have {g.shape[-1] - 1}"
        )
    # The generator columns, lags on the outer axis and rows on the inner,
    # copied to be contiguous: strided reads in the first order cost more
    # than the copy.  Entering order m, a holds a[m:] and b holds
    # b[m-1:order]: k_m is a[0] / b[0], and the update rebinds both to new
    # arrays, so gamma is never written.
    cols = g.reshape(-1, g.shape[-1])[:, : order + 1].T.copy()
    a, b = cols[1:], cols[:-1]
    reflect = np.empty((order, cols.shape[1]))
    # A row keeps computing after it breaks down; what it computes then is
    # masked with NaN below, so its warnings mean nothing.
    with np.errstate(all="ignore"):
        for k in reflect:
            np.divide(a[0], b[0], out=k)
            a, b = a[1:] - k * b[1:], b[:-1] - k * a[:-1]
        sigma2s = np.concatenate([cols[:1], 1.0 - reflect * reflect])
        np.multiply.accumulate(sigma2s, axis=0, out=sigma2s)
    usable = (0.0 < sigma2s) & (sigma2s < math.inf)
    broken = ~np.logical_and.accumulate(usable, axis=0)[:-1]  # entering order m
    sigma2s[1:][broken] = np.nan
    reflect[broken] = np.nan
    shape = g.shape[:-1]
    return reflect.T.reshape(shape + (order,)), sigma2s.T.reshape(shape + (order + 1,))


def bic_order(sigma2s, n):
    """BIC order of each Levinson path in a stack, for sample sizes n.

    sigma2s is a stack of innovation variance paths, shape (..., L), with n
    broadcasting against the leading axes; one path (1-D) gives a Python
    int.  What is scored is n * log(sigma2s[p] / sigma2s[0]) + (p + 1) *
    log(n): BIC(p) less n * (log(2 pi) + 1 + log sigma2s[0]), which no order
    changes.  Orders stop at the first variance that is not positive and
    finite (0 when sigma2s[0] is not), so a caller limits a row's search by
    setting its later entries to NaN; ties go to the smallest order.
    """
    s = np.asarray(sigma2s, dtype=float)
    n = np.asarray(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(s / s[..., :1])
    # math.log: numpy's log of an integer can differ from it in the last bit.
    log_n = np.array([math.log(v) for v in n.ravel().tolist()]).reshape(n.shape)
    usable = np.logical_and.accumulate((0.0 < s) & (s < math.inf), axis=-1)
    score = n[..., None] * log_ratio
    score += np.arange(1, s.shape[-1] + 1) * log_n[..., None]
    best = np.where(usable, score, math.inf).argmin(axis=-1)
    return best if best.ndim else int(best)


def bic_select_order(values, max_order: int) -> int:
    """Pick the AR order in 0..max_order minimizing BIC; ties go to the smallest.

    :func:`levinson_path` to max_order on one autocovariance pass, scored by
    :func:`bic_order` with n = len(values), as for a stack of this one row,
    but on Python floats: the same operations in the same order, so the
    same bits.  The result does not depend on scale: ``bic_select_order(c *
    x, m) == bic_select_order(x, m)`` for any c != 0 short of overflow or
    underflow.  Raises DegenerateFitError when the order-0 variance is not
    positive and finite.
    """
    x = as_series(values)
    max_order = check_integer("max_order", max_order)
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    n = len(x)
    if n <= max_order:
        raise ValueError(
            f"series of length {n} too short for max_order {max_order}"
        )
    g = sample_autocov(x, max_order).tolist()
    s = g[0]
    if not 0.0 < s < math.inf:
        raise DegenerateFitError(
            f"BIC order selection failed at every order 0..{max_order}: "
            f"residual variance {s!r} at order 0"
        )
    # levinson_path's steps: entering order m + 1, a[m:] and b[m:] are its
    # generators, updated in place from the top down to read old values.
    a, b = g[1:], g[:-1]
    sigma2s = [s]
    for m in range(max_order):
        # Python raises on a division by 0, where numpy gives inf or NaN.
        k = a[m] / b[m] if b[m] else a[m] * math.copysign(math.inf, b[m])
        s = s * (1.0 - k * k)
        if not 0.0 < s < math.inf:
            break
        sigma2s.append(s)
        for i in range(max_order - 1, m, -1):
            a[i], b[i] = a[i] - k * b[i], b[i - 1] - k * a[i - 1]
    # bic_order's scores: numpy's log of the ratios, for its last bit; a
    # ratio that underflows to 0 scores -inf there too.
    with np.errstate(divide="ignore"):
        log_ratio = np.log(np.array(sigma2s) / sigma2s[0]).tolist()
    log_n = math.log(n)
    scores = [n * lr + p * log_n for p, lr in enumerate(log_ratio, start=1)]
    return scores.index(min(scores))
