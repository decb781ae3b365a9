"""Multiple-testing corrections for the per-boundary p-values.

Two procedures: Benjamini-Hochberg step-up FDR control and Bonferroni
adjusted p-values.  Both take p-values in hypothesis order and report
rejection flags in the same order.

At most ``FLOAT_COUNT`` p-values (:data:`arcpd.ar.FLOAT_COUNT`, which the
chi-square tail follows too) are checked and corrected in Python floats;
more are checked through numpy, and BH corrects them through numpy too.
Bonferroni corrects every size in floats: one product and one comparison
per p-value, the same IEEE operations as numpy's, so its outcome is bit
for bit the array form's.  BH's two paths make the same comparisons and
roundings, so their outcomes and the messages of both checks are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ar import FLOAT_COUNT

__all__ = ["MultipleTestOutcome", "bh_procedure", "bonferroni_procedure"]


@dataclass(frozen=True)
class MultipleTestOutcome:
    """Rejection flags plus per-hypothesis adjusted p-values, in input order."""

    method: str
    alpha: float
    rejected: tuple[bool, ...]
    adjusted: tuple[float, ...]


def _validated(pvals, alpha: float) -> np.ndarray | list[float]:
    """The p-values: a list of floats if at most FLOAT_COUNT, else a 1-D array."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    p = np.asarray(pvals, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"p-values must be 1-D, got an array of shape {p.shape}")
    if len(p) <= FLOAT_COUNT:
        p = p.tolist()
        bad = [i for i, v in enumerate(p) if not 0.0 <= v <= 1.0]
    else:
        bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0))).tolist()
    if bad:
        raise ValueError(f"p-value at index {bad[0]} outside [0, 1]: {float(p[bad[0]])!r}")
    return p


def _min(a: float, b: float) -> float:
    """np.minimum of two floats: b on a tie, so min(-0.0, 0.0) is 0.0."""
    return a if a < b else b


def bh_procedure(pvals, alpha: float = 0.05) -> MultipleTestOutcome:
    """Benjamini-Hochberg step-up: reject the i* smallest p-values, where i*
    is the largest i with p_(i) <= i * alpha / q.

    The adjusted values are the usual monotonized q * p_(i) / i, so
    ``adjusted[k] <= alpha`` exactly reproduces the rejection flags.  Ties
    in p-values rise or fall together.
    """
    p = _validated(pvals, alpha)
    q = len(p)
    if isinstance(p, list):
        order = sorted(range(q), key=p.__getitem__)  # stable, as argsort's
        ranked = [p[k] for k in order]
        low, adjusted_sorted = math.inf, [0.0] * q
        for i in range(q - 1, -1, -1):  # the running minimum from the largest
            low = _min(low, ranked[i] * q / (i + 1))
            adjusted_sorted[i] = _min(1.0, low)
        a = float(alpha)
        cutoff = max((i + 1 for i, v in enumerate(ranked) if v <= (i + 1) * a / q), default=0)
        rejected, adjusted = [False] * q, [0.0] * q
        for i, k in enumerate(order):
            rejected[k], adjusted[k] = i < cutoff, adjusted_sorted[i]
        return MultipleTestOutcome("bh", alpha, tuple(rejected), tuple(adjusted))
    order = np.argsort(p, kind="stable")
    ranked = p[order]
    scaled = ranked * q / np.arange(1, q + 1)
    adjusted_sorted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    qualifying = np.flatnonzero(ranked <= np.arange(1, q + 1) * alpha / q)
    cutoff = qualifying[-1] + 1 if qualifying.size else 0
    rejected_sorted = np.arange(q) < cutoff
    rejected = np.empty(q, dtype=bool)
    adjusted = np.empty(q)
    rejected[order] = rejected_sorted
    adjusted[order] = adjusted_sorted
    return MultipleTestOutcome("bh", alpha, tuple(rejected.tolist()), tuple(adjusted.tolist()))


def bonferroni_procedure(pvals, alpha: float = 0.05) -> MultipleTestOutcome:
    """Reject hypothesis i when q * p_i <= alpha; adjusted value min(1, q * p_i)."""
    p = _validated(pvals, alpha)
    q, a = len(p), float(alpha)
    scaled = [q * v for v in (p if isinstance(p, list) else p.tolist())]
    return MultipleTestOutcome(
        "bonferroni", alpha, tuple(v <= a for v in scaled), tuple(_min(1.0, v) for v in scaled)
    )
