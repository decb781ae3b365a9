"""Multiple-testing corrections for the per-boundary p-values.

Two procedures: Benjamini-Hochberg step-up FDR control and Bonferroni
adjusted p-values.  Both take p-values in hypothesis order and report
rejection flags in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MultipleTestOutcome", "bh_procedure", "bonferroni_procedure"]


@dataclass(frozen=True)
class MultipleTestOutcome:
    """Rejection flags plus per-hypothesis adjusted p-values, in input order."""

    method: str
    alpha: float
    rejected: tuple[bool, ...]
    adjusted: tuple[float, ...]


def _validated(pvals, alpha: float) -> np.ndarray:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    p = np.asarray(pvals, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"p-values must be 1-D, got an array of shape {p.shape}")
    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if bad.size:
        raise ValueError(
            f"p-value at index {bad[0]} outside [0, 1]: {float(p[bad[0]])!r}"
        )
    return p


def bh_procedure(pvals, alpha: float = 0.05) -> MultipleTestOutcome:
    """Benjamini-Hochberg step-up: reject the i* smallest p-values, where i*
    is the largest i with p_(i) <= i * alpha / q.

    The adjusted values are the usual monotonized q * p_(i) / i, so
    ``adjusted[k] <= alpha`` exactly reproduces the rejection flags.  Ties
    in p-values rise or fall together.
    """
    p = _validated(pvals, alpha)
    q = len(p)
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
    q = len(p)
    scaled = q * p
    rejected = scaled <= alpha
    adjusted = np.minimum(1.0, scaled)
    return MultipleTestOutcome(
        "bonferroni", alpha, tuple(rejected.tolist()), tuple(adjusted.tolist())
    )
