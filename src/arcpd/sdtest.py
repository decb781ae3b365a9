"""Likelihood-ratio test for whether two segments share one AR structure.

Both segments are mean-corrected individually, so a pure level shift is
not evidence of a change; only second-order structure is compared.  Under
the null the segments share an autocovariance structure (equivalently, a
spectral density), and the statistic

    stat = T1 * log(s0 / s1) + T2 * log(s0 / s2)

is asymptotically chi-square, where s1, s2 are the innovation variances of
separate Yule-Walker fits and s0 comes from a fit to the pooled
autocovariances.  Two order policies are supported:

* fixed: both segments and the pooled fit use
  ``floor((ln T_min) ** exponent)`` with ``exponent > 1`` (autoregressive
  approximation; degrees of freedom = order + 1).  This stays valid when
  the data are not truly autoregressive, at some cost in power when they
  are, and is the pipeline default.
* bic: per-segment BIC orders plus a BIC order for the pooled fit, searched
  up to min(max(p1, p2), T_min - 2) (degrees of freedom = p1 + p2 - p0 + 1,
  at least 1).  Preferable only when an AR model is trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ar import (
    LOG_2PI,
    ARFit,
    AutocovSeq,
    DegenerateFitError,
    _levinson_path,
    bic_select_order,
    levinson_durbin,
    mean_correct,
    sample_autocov,
)

__all__ = [
    "OrderMode",
    "DiscriminationResult",
    "SegmentTooShortError",
    "pooled_autocov",
    "fixed_order",
    "discrimination_test",
    "chi_sq_upper_tail",
]


class SegmentTooShortError(ValueError):
    """A segment cannot support the resolved fitting order."""


@dataclass(frozen=True)
class OrderMode:
    """Order policy: ``OrderMode.fixed(exponent)`` or ``OrderMode.bic(max_order)``."""

    kind: str
    exponent: float = 1.5
    max_order: int = 10

    def __post_init__(self):
        if self.kind not in ("fixed", "bic"):
            raise ValueError(f"unknown order mode {self.kind!r}")
        if self.kind == "fixed" and not self.exponent > 1.0:
            raise ValueError("fixed-order exponent must be > 1")
        if self.kind == "bic" and self.max_order < 1:
            raise ValueError("max_order must be >= 1")

    @classmethod
    def fixed(cls, exponent: float = 1.5) -> "OrderMode":
        return cls(kind="fixed", exponent=exponent)

    @classmethod
    def bic(cls, max_order: int = 10) -> "OrderMode":
        return cls(kind="bic", max_order=max_order)


@dataclass(frozen=True)
class DiscriminationResult:
    statistic: float
    df: int
    p_value: float
    fit_x: ARFit
    fit_y: ARFit
    fit_pooled: ARFit
    orders: tuple[int, int, int]  # (segment x, segment y, pooled)
    warnings: tuple[str, ...] = ()


def pooled_autocov(ax: AutocovSeq, ay: AutocovSeq, max_lag: int) -> AutocovSeq:
    """Autocovariances of two segments pooled as one sample.

    c[j] = (sum_t x[t] x[t-j] + sum_t y[t] y[t-j]) / (T1 + T2), i.e. the
    sample-size-weighted average of the per-segment autocovariances
    ``ax`` and ``ay`` (of mean-corrected segments), which must reach lag
    ``max_lag``.
    """
    n1, n2 = ax.sample_size, ay.sample_size
    if not 0 <= max_lag < min(n1, n2):
        raise ValueError(
            f"max_lag must be in [0, {min(n1, n2) - 1}], got {max_lag}"
        )
    if min(ax.max_lag, ay.max_lag) < max_lag:
        raise ValueError(
            f"need autocovariances to lag {max_lag}, have "
            f"{min(ax.max_lag, ay.max_lag)}"
        )
    lags = slice(0, max_lag + 1)
    pooled = (n1 * ax.gamma[lags] + n2 * ay.gamma[lags]) / (n1 + n2)
    return AutocovSeq(gamma=pooled, sample_size=n1 + n2)


def fixed_order(len_x: int, len_y: int, exponent: float) -> int:
    """floor((ln T_min) ** exponent), at least 1, capped at T_min // 3.

    The cap keeps the Yule-Walker system comfortably overdetermined for
    short segments; callers can detect a binding cap by recomputing the
    uncapped value.
    """
    if exponent <= 1.0:
        raise ValueError("exponent must be > 1")
    t_min = min(len_x, len_y)
    if t_min < 3:
        raise ValueError("segments must have at least 3 observations")
    raw = math.floor(math.log(t_min) ** exponent)
    return max(1, min(raw, t_min // 3))


def _bic_order_from_autocov(acov: AutocovSeq, max_order: int) -> int:
    """BIC order selection using only autocovariances.

    Uses the concentrated Gaussian likelihood -N/2 (log(2 pi s_p) + 1) with
    s_p the Levinson-Durbin innovation variance at order p, over the orders
    the recursion reaches.
    """
    n = acov.sample_size
    _, sigma2s = _levinson_path(np.asarray(acov.gamma, dtype=float), max_order)
    best_p, best = 0, math.inf
    for p, s in enumerate(sigma2s):
        if not (s > 0.0):
            break
        bic = n * (LOG_2PI + math.log(s) + 1.0) + (p + 1) * math.log(n)
        if bic < best:
            best_p, best = p, bic
    return best_p


def _segment_orders(
    xc: np.ndarray, yc: np.ndarray, mode: OrderMode
) -> tuple[int, int, list[str]]:
    """Orders of the two per-segment fits, plus any warnings."""
    n1, n2 = len(xc), len(yc)
    warnings: list[str] = []
    if mode.kind == "fixed":
        p = fixed_order(n1, n2, mode.exponent)
        raw = math.floor(math.log(min(n1, n2)) ** mode.exponent)
        if raw > p:
            warnings.append(
                f"fixed order {raw} capped to {p} for segment lengths ({n1}, {n2})"
            )
        return p, p, warnings
    max1 = min(mode.max_order, n1 - 2)
    max2 = min(mode.max_order, n2 - 2)
    if max1 < 1 or max2 < 1:
        raise SegmentTooShortError(
            f"segments of lengths ({n1}, {n2}) too short for BIC order selection"
        )
    return bic_select_order(xc, max1), bic_select_order(yc, max2), warnings


def discrimination_test(x, y, mode: OrderMode | None = None) -> DiscriminationResult:
    """Test whether two adjacent segments come from the same AR process.

    Each segment is mean-corrected here, so callers may pass raw segments.
    Returns the statistic, its chi-square degrees of freedom and upper-tail
    p-value, plus the three underlying fits; accept/reject is left to the
    caller.  Symmetric in (x, y) and invariant to rescaling both segments.

    Raises SegmentTooShortError when a segment cannot support the resolved
    order and DegenerateFitError when a fit breaks down (zero or non-finite
    residual variance, as when the pooled autocovariance overflows).
    """
    if mode is None:
        mode = OrderMode.fixed()
    xc = mean_correct(x)
    yc = mean_correct(y)
    n1, n2 = len(xc), len(yc)
    if min(n1, n2) < 3:
        raise SegmentTooShortError(
            f"segments of lengths ({n1}, {n2}) are too short to compare"
        )
    # Both order policies keep each order at most its segment length - 2.
    p1, p2, warnings = _segment_orders(xc, yc, mode)
    # The pooled BIC search stops at the larger segment order, and at the
    # shorter segment's length - 2 (the rule the segment orders follow), so
    # both segments supply every pooled lag.  One autocovariance pass per
    # segment, to the largest lag any fit needs.
    p0_max = min(max(p1, p2), min(n1, n2) - 2)
    acov_x = sample_autocov(xc, max(p1, p0_max))
    acov_y = sample_autocov(yc, max(p2, p0_max))
    pooled = pooled_autocov(acov_x, acov_y, p0_max)
    p0 = p1 if mode.kind == "fixed" else _bic_order_from_autocov(pooled, p0_max)

    fit_x = levinson_durbin(acov_x, p1)
    fit_y = levinson_durbin(acov_y, p2)
    fit_pooled = levinson_durbin(pooled, p0)
    for label, fit in (("first", fit_x), ("second", fit_y), ("pooled", fit_pooled)):
        # An overflowing autocovariance gives sigma2 = inf, not a usable fit.
        if not (fit.sigma2 > 0.0 and math.isfinite(fit.sigma2)):
            what = "zero" if math.isfinite(fit.sigma2) else "non-finite"
            raise DegenerateFitError(f"{label} segment fit has {what} residual variance")

    stat = n1 * math.log(fit_pooled.sigma2 / fit_x.sigma2) + n2 * math.log(
        fit_pooled.sigma2 / fit_y.sigma2
    )
    if stat < 0.0:
        # Exact nonnegativity only holds when the pooled order is nested in
        # both per-segment orders (always true in fixed mode); flag anything
        # beyond rounding.
        if stat < -1e-8:
            warnings.append(f"statistic {stat:.3e} below zero; clamped")
        stat_for_tail = 0.0
    else:
        stat_for_tail = stat

    if mode.kind == "fixed":
        df = p1 + 1
    else:
        df = p1 + p2 - p0 + 1
        if df < 1:
            warnings.append(
                f"degrees of freedom {df} floored to 1 (pooled order {p0} "
                f"exceeds segment orders {p1}, {p2})"
            )
            df = 1
    return DiscriminationResult(
        statistic=float(stat),
        df=df,
        p_value=chi_sq_upper_tail(stat_for_tail, df),
        fit_x=fit_x,
        fit_y=fit_y,
        fit_pooled=fit_pooled,
        orders=(p1, p2, p0),
        warnings=tuple(warnings),
    )


def chi_sq_upper_tail(stat: float, df: int) -> float:
    """P(X > stat) for X chi-square with df degrees of freedom.

    Computed via the regularized incomplete gamma function: a power series
    for the lower tail when stat is small and a Lentz continued fraction
    for the upper tail otherwise.  Absolute accuracy is well inside 1e-10.
    """
    if df < 1:
        raise ValueError("df must be a positive integer")
    if not stat >= 0.0:
        raise ValueError(f"statistic must be nonnegative, got {stat}")
    if not math.isfinite(stat):
        return 0.0
    return _regularized_upper_gamma(0.5 * df, 0.5 * stat)


def _regularized_upper_gamma(a: float, x: float) -> float:
    if x <= 0.0:
        return 1.0
    if x < a + 1.0:
        return min(1.0, max(0.0, 1.0 - _lower_gamma_series(a, x)))
    return min(1.0, max(0.0, _upper_gamma_cont_frac(a, x)))


def _log_gamma_prefactor(a: float, x: float) -> float:
    return a * math.log(x) - x - math.lgamma(a)


def _lower_gamma_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(1000):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total * math.exp(_log_gamma_prefactor(a, x))


def _upper_gamma_cont_frac(a: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    frac = d
    for i in range(1, 1000):
        coef = -i * (i - a)
        b += 2.0
        d = coef * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    log_pref = _log_gamma_prefactor(a, x)
    if log_pref < -745.0:  # exp underflow
        return 0.0
    return frac * math.exp(log_pref)
