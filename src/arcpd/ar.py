"""Autoregressive fitting kernel: autocovariances, Levinson-Durbin, BIC order.

A time series is a 1-D float array.  Everything here treats the input as
already mean-corrected unless noted; use :func:`mean_correct` first.

:func:`levinson_path` is the one Levinson-Durbin recursion: from one
autocovariance array (:func:`sample_autocov`) it gives the Yule-Walker
coefficients and innovation variance of every order up to the one asked
for, so a caller that needs several orders of one sequence runs it once.

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

    gamma[j] = (1/T) * sum_{t=j}^{T-1} x[t] * x[t-j] for j = 0..max_lag.
    No mean is subtracted here; the caller mean-corrects first.  The
    divisor-T form keeps the sequence positive semidefinite, which the
    Levinson-Durbin recursion relies on.
    """
    x = as_series(values)
    n = len(x)
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must be in [0, {n - 1}], got {max_lag}")
    gamma = np.empty(max_lag + 1)
    for j in range(max_lag + 1):
        gamma[j] = x[j:] @ x[: n - j] / n
    return gamma


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
    """
    if not 0 <= order < len(gamma):
        raise ValueError(
            f"need autocovariances to lag {order}, have {len(gamma) - 1}"
        )
    sigma2s = np.empty(order + 1)
    sigma2s[0] = gamma[0]
    phi = np.zeros((order, order))
    for m in range(1, order + 1):
        prev = sigma2s[m - 1]
        if not (prev > 0.0) or not math.isfinite(prev):
            return phi, sigma2s[:m]
        acc = gamma[m]
        if m > 1:
            acc -= phi[m - 2, : m - 1] @ gamma[m - 1 : 0 : -1]
        reflect = acc / prev
        phi[m - 1, m - 1] = reflect
        if m > 1:
            phi[m - 1, : m - 1] = phi[m - 2, : m - 1] - reflect * phi[m - 2, m - 2 :: -1]
        sigma2s[m] = prev * (1.0 - reflect * reflect)
    return phi, sigma2s


def _whitening_residuals(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """e[t] = x[t] + sum_j coeffs[j] * x[t-j-1] for t = p..T-1 (0-based)."""
    p = len(coeffs)
    if p == 0:
        return x
    e = x[p:].copy()
    n = len(x)
    for j, b in enumerate(coeffs, start=1):
        e += b * x[p - j : n - j]
    return e


def bic_select_order(values, max_order: int) -> int:
    """Pick the AR order in 0..max_order minimizing BIC; ties go to the smallest.

    BIC(p) = -2 * loglik(p) + (p + 1) * log(T), where loglik(p) is the
    Gaussian log-likelihood of the order-p Yule-Walker whitening residuals
    e[p..T-1] with variance sigma2_p, conditional on the first p
    observations.  One autocovariance pass and one Levinson-Durbin path
    serve every order; orders the path does not reach, or whose residual
    variance is not positive, are skipped.
    """
    x = as_series(values)
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    n = len(x)
    if n <= max_order:
        raise ValueError(
            f"series of length {n} too short for max_order {max_order}"
        )
    phi, sigma2s = levinson_path(sample_autocov(x, max_order), max_order)
    log_t = math.log(n)
    best_order = None
    best_bic = math.inf
    for p, sigma2 in enumerate(sigma2s):
        if not sigma2 > 0.0:
            continue
        e = _whitening_residuals(x, -phi[p - 1, :p] if p else np.empty(0))
        loglik = -0.5 * ((n - p) * (LOG_2PI + math.log(sigma2)) + e @ e / sigma2)
        bic = -2.0 * loglik + (p + 1) * log_t
        if bic < best_bic:
            best_bic = bic
            best_order = p
    if best_order is None:
        raise DegenerateFitError(
            f"BIC order selection failed at every order 0..{max_order}: "
            f"residual variance {float(sigma2s[0])!r} at order 0"
        )
    return best_order
