"""Autoregressive fitting kernel: autocovariances, Levinson-Durbin, BIC order.

A time series is a 1-D float array.  Everything here treats the input as
already mean-corrected unless noted; use :func:`mean_correct` first.

:func:`levinson_path` is the one Levinson-Durbin recursion, in its Schur
form (Le Roux & Gueguen 1977).  It takes a stack of autocovariance rows
(shape (..., L); a 1-D input is one row, as from :func:`sample_autocov`)
and gives each row's reflection coefficients and Yule-Walker innovation
variances at every order up to the one asked for, with vector operations
across rows and a Python loop over orders only.  It carries two generator
columns, the autocovariances with lags on the outer axis and rows on the
inner, so each step is one division and two updates over contiguous
stack-wide rows; the variances follow as one running product down the
orders.  A row's result depends on that row alone, bit for bit, stacked
or not.  Breakdown follows one convention for every
row: a row whose variance at order m - 1 is not positive and finite stops
there, and its later variances and reflection coefficients are NaN.

:func:`bic_order` is the one BIC scorer, read off such paths alone with the
concentrated Gaussian likelihood: BIC(p) = n * (log(2 pi) + log sigma2_p + 1)
+ (p + 1) * log(n).  It needs no residual pass, and since the minimizer
depends on the data only through ratios of innovation variances, the
selected order does not depend on the units (scale) of the series.

Reflection coefficients carry the predictor's sign, that of
x[t] ~ phi_1 x[t-1] + ... + phi_p x[t-p], the generating convention of
:mod:`arcpd.simulate`: a process simulated with ``ar=(0.7,)`` gives
``reflect[0] ~= 0.7``.  The order-p predictor is the step-up of
reflect[:p]: phi_m = k_m and phi_j <- phi_j - k_m phi_{m-j} for each order
m, with k_m = reflect[m-1].
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DegenerateFitError",
    "mean_correct",
    "sample_autocov",
    "levinson_path",
    "bic_order",
    "bic_select_order",
]

LOG_2PI = math.log(2.0 * math.pi)
# Exact-fit rule of the scan and the segment test: a residual sum of squares or
# centred lag-0 sum of at most 1e-20 times the raw energy is rounding noise.
EXACT_FIT_RTOL = 1e-20


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
    n = len(x)
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must be in [0, {n - 1}], got {max_lag}")
    return np.correlate(np.concatenate([x, np.zeros(max_lag)]), x, "valid") / n


def levinson_path(gamma, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Reflection coefficients and innovation variances of every order up to
    `order`, per row, by the Schur recursion.

    gamma is one autocovariance row or a stack of rows, shape (..., L) with
    L > order.  Returns (reflect, sigma2s) of shapes (..., order) and
    (..., order + 1): reflect[..., m-1] is the order-m reflection (partial
    autocorrelation) coefficient k_m and sigma2s[..., m] the innovation
    variance of the order-m Yule-Walker fit.  The generators a and b start
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

    sigma2s is one path's innovation variances (1-D: the result is an int)
    or a stack of them (shape (..., L), with n broadcasting against the
    leading axes: an int array).  BIC(p) = n * (log(2 pi) + log sigma2s[p]
    + 1) + (p + 1) * log(n), less n * (log(2 pi) + 1 + log sigma2s[0]),
    which no order changes: what is scored is
    n * log(sigma2s[p] / sigma2s[0]) + (p + 1) * log(n).  Orders stop at the
    first variance that is not positive and finite (0 when sigma2s[0] is
    not), so a caller limits a row's search by setting its later entries to
    NaN; ties go to the smallest order.
    """
    s = np.asarray(sigma2s, dtype=float)
    n = np.asarray(n)
    # math.log: numpy's log of an integer can differ from it in the last bit.
    log_n = np.array([math.log(v) for v in n.ravel().tolist()]).reshape(n.shape)
    usable = np.logical_and.accumulate((0.0 < s) & (s < math.inf), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = n[..., None] * np.log(s / s[..., :1])
    score += np.arange(1, s.shape[-1] + 1) * log_n[..., None]
    best = np.where(usable, score, math.inf).argmin(axis=-1)
    return int(best) if s.ndim == 1 else best


def bic_select_order(values, max_order: int) -> int:
    """Pick the AR order in 0..max_order minimizing BIC; ties go to the smallest.

    One autocovariance pass and one Levinson-Durbin path to max_order, scored
    by :func:`bic_order` with n = len(values): the concentrated likelihood
    n * (log(2 pi) + log sigma2_p + 1) + (p + 1) * log(n).  The result does
    not depend on scale: ``bic_select_order(c * x, m) == bic_select_order(x, m)``
    for any c != 0 short of overflow or underflow.  Raises DegenerateFitError when the
    order-0 variance is not positive and finite.
    """
    x = as_series(values)
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    n = len(x)
    if n <= max_order:
        raise ValueError(
            f"series of length {n} too short for max_order {max_order}"
        )
    _, sigma2s = levinson_path(sample_autocov(x, max_order), max_order)
    if not 0.0 < sigma2s[0] < math.inf:
        raise DegenerateFitError(
            f"BIC order selection failed at every order 0..{max_order}: "
            f"residual variance {float(sigma2s[0])!r} at order 0"
        )
    return bic_order(sigma2s, n)
