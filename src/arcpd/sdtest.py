"""Likelihood-ratio test for whether two segments share one AR structure.

Both segments are mean-corrected individually, so a pure level shift is
not evidence of a change; only second-order structure is compared.  Under
the null the segments share an autocovariance structure (equivalently, a
spectral density), and the statistic

    stat = T1 * log(s0 / s1) + T2 * log(s0 / s2)

is asymptotically chi-square, where s1, s2 are the innovation variances of
separate Yule-Walker fits and s0 comes from a fit to the pooled
autocovariances, the sample-size-weighted average

    c[j] = (T1 * gx[j] + T2 * gy[j]) / (T1 + T2)

of the per-segment autocovariances gx, gy.  Every variance is read off one
:func:`arcpd.ar.levinson_path` per autocovariance sequence (x, y, pooled).
Two order policies are supported:

* fixed: both segments and the pooled fit use
  ``floor((ln T_min) ** exponent)`` with ``exponent > 1`` (autoregressive
  approximation; degrees of freedom = order + 1).  This stays valid when
  the data are not truly autoregressive, at some cost in power when they
  are, and is the pipeline default.
* bic: per-segment BIC orders plus a BIC order for the pooled fit, searched
  up to min(max(p1, p2), T_min - 2) (degrees of freedom = p1 + p2 - p0 + 1,
  at least min(p1, p2) + 1).  All three orders come from the one BIC scorer,
  :func:`arcpd.ar.bic_order`.  Preferable only when an AR model is trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ar import (
    DegenerateFitError,
    bic_order,
    bic_select_order,
    levinson_path,
    mean_correct,
    sample_autocov,
)

__all__ = [
    "OrderMode",
    "DiscriminationResult",
    "SegmentTooShortError",
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
    orders: tuple[int, int, int]  # (segment x, segment y, pooled)
    sigma2: tuple[float, float, float]  # innovation variances, same order
    warnings: tuple[str, ...] = ()


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
    p-value, plus the orders and innovation variances of the three fits;
    accept/reject is left to the caller.  Symmetric in (x, y) and invariant
    to rescaling both segments.

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
    # both segments supply every pooled lag.  One autocovariance pass and one
    # Levinson path per sequence, to the largest order any fit needs.
    p0_max = min(max(p1, p2), min(n1, n2) - 2)
    gx = sample_autocov(xc, max(p1, p0_max))
    gy = sample_autocov(yc, max(p2, p0_max))
    lags = slice(0, p0_max + 1)
    pooled = (n1 * gx[lags] + n2 * gy[lags]) / (n1 + n2)
    _, path_x = levinson_path(gx, p1)
    _, path_y = levinson_path(gy, p2)
    _, path_0 = levinson_path(pooled, p0_max)
    p0 = p1 if mode.kind == "fixed" else bic_order(path_0, n1 + n2)

    fits = ((path_x, p1), (path_y, p2), (path_0, p0))
    for path, p in fits:
        if len(path) <= p:
            raise DegenerateFitError(
                f"Levinson-Durbin broke down entering order {len(path)}: "
                f"residual variance {float(path[-1])!r} at order {len(path) - 1}"
            )
    s1, s2, s0 = (float(path[p]) for path, p in fits)
    for label, s in (("first", s1), ("second", s2), ("pooled", s0)):
        # An overflowing autocovariance gives sigma2 = inf, not a usable fit.
        if not (s > 0.0 and math.isfinite(s)):
            what = "zero" if math.isfinite(s) else "non-finite"
            raise DegenerateFitError(f"{label} segment fit has {what} residual variance")

    stat = n1 * math.log(s0 / s1) + n2 * math.log(s0 / s2)
    if stat < 0.0:
        # Exact nonnegativity only holds when the pooled order is nested in
        # both per-segment orders (always true in fixed mode); flag anything
        # beyond rounding.
        if stat < -1e-8:
            warnings.append(f"statistic {stat:.3e} below zero; clamped")
        stat_for_tail = 0.0
    else:
        stat_for_tail = stat

    # p0 <= max(p1, p2), so the BIC-mode df is at least min(p1, p2) + 1.
    df = p1 + 1 if mode.kind == "fixed" else p1 + p2 - p0 + 1
    return DiscriminationResult(
        statistic=float(stat),
        df=df,
        p_value=chi_sq_upper_tail(stat_for_tail, df),
        orders=(p1, p2, p0),
        sigma2=(s1, s2, s0),
        warnings=tuple(warnings),
    )


def chi_sq_upper_tail(stat: float, df: int) -> float:
    """P(X > stat) for X chi-square with integer df degrees of freedom.

    Closed form by the recurrence Q(1) = erfc(sqrt(x/2)), Q(2) = exp(-x/2),
    Q(k+2) = Q(k) + (x/2)^(k/2) exp(-x/2) / Gamma(k/2 + 1).  Every term is
    positive, so there is no cancellation, in the far tail either.
    """
    if df < 1 or df % 1:
        raise ValueError("df must be a positive integer")
    if not stat >= 0.0:
        raise ValueError(f"statistic must be nonnegative, got {stat}")
    if not math.isfinite(stat):
        return 0.0
    if stat == 0.0:
        return 1.0
    half = 0.5 * stat
    k = 2 - df % 2
    tail = math.erfc(math.sqrt(half)) if k == 1 else math.exp(-half)
    log_half = math.log(half)
    while k < df:
        tail += math.exp(0.5 * k * log_half - half - math.lgamma(0.5 * k + 1.0))
        k += 2
    return min(1.0, tail)
