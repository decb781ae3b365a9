"""Autoregressive fitting kernel: autocovariances, Levinson-Durbin, BIC order.

A time series is a 1-D float array.  Everything here treats the input as
already mean-corrected unless noted; use :func:`mean_correct` first.

:func:`levinson_path` is the one Levinson-Durbin recursion: from one
autocovariance array (:func:`sample_autocov`) it gives the Yule-Walker
coefficients and innovation variance of every order up to the one asked
for, so a caller that needs several orders of one sequence runs it once.
:func:`bic_order` is the one BIC scorer, read off that path alone with the
concentrated Gaussian likelihood: BIC(p) = n * (log(2 pi) + log sigma2_p + 1)
+ (p + 1) * log(n).  It needs no residual pass, and since the minimizer
depends on the data only through ratios of innovation variances, the
selected order does not depend on the units (scale) of the series.

Coefficient sign convention: an AR(p) fit is the vector
``(b_1, ..., b_p)`` of the whitening filter

    x[t] + b_1 * x[t-1] + ... + b_p * x[t-p] = e[t],

so a process generated as ``x[t] = a * x[t-1] + e[t]`` fits with
``coeffs[0] ~= -a``.  The simulation module uses the generating convention
and negates at the boundary.
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


class DegenerateFitError(ArithmeticError):
    """The Yule-Walker system is singular or broke down mid-recursion."""


def as_series(values) -> np.ndarray:
    """Coerce to a 1-D float array and validate basic invariants."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        x = x.ravel()
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


def levinson_path(gamma: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve the Yule-Walker equations of every order up to `order`.

    Returns (phi, sigma2s) where phi[p-1, :p] are the predictor coefficients
    of the order-p solution (x[t] ~ sum phi_j x[t-j]; the whitening
    coefficients are -phi[p-1, :p]) and sigma2s[p] is the innovation
    variance at order p, for p = 0..len(sigma2s) - 1.  Each order is
    equivalent to a dense Toeplitz solve but costs O(p).  Entering order m
    needs a positive, finite sigma2s[m-1]; where it is not, the recursion
    breaks down and the path stops at order m - 1, so callers check
    ``len(sigma2s)`` before reading the order they want.

    The orders here are small (at most a few dozen), so the recursion runs
    on Python floats, one coefficient row as a list; numpy calls on arrays
    this short cost more than the arithmetic.
    """
    if not 0 <= order < len(gamma):
        raise ValueError(
            f"need autocovariances to lag {order}, have {len(gamma) - 1}"
        )
    g = np.asarray(gamma, dtype=float)[: order + 1].tolist()
    sigma2s = [g[0]]
    phi = np.zeros((order, order))
    row: list[float] = []  # coefficients of the last order reached
    for m in range(1, order + 1):
        prev = sigma2s[-1]
        if not 0.0 < prev < math.inf:
            break
        dot = 0.0
        for c, lagged in zip(row, g[m - 1 : 0 : -1]):
            dot += c * lagged
        reflect = (g[m] - dot) / prev
        row = [c - reflect * r for c, r in zip(row, reversed(row))]
        row.append(reflect)
        phi[m - 1, :m] = row
        sigma2s.append(prev * (1.0 - reflect * reflect))
    return phi, np.array(sigma2s)


def bic_order(sigma2s: np.ndarray, n: int) -> int:
    """BIC order over a Levinson path's innovation variances, for sample size n.

    BIC(p) = n * (log(2 pi) + log sigma2s[p] + 1) + (p + 1) * log(n), less
    n * (log(2 pi) + 1 + log sigma2s[0]), which no order changes: what is
    scored is n * log(sigma2s[p] / sigma2s[0]) + (p + 1) * log(n).  Orders
    stop at the first variance that is not positive and finite (0 when
    sigma2s[0] is not); ties go to the smallest order.
    """
    log_n = math.log(n)
    best_p, best = 0, math.inf
    for p, s in enumerate(sigma2s):
        if not 0.0 < s < math.inf:
            break
        bic = n * math.log(s / sigma2s[0]) + (p + 1) * log_n
        if bic < best:
            best_p, best = p, bic
    return best_p


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
