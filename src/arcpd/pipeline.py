"""End-to-end change point detection.

The detector runs three stages on a series of length T:

1. mean-correct, scan with radius h, and keep the local maximizers of the
   scan profile as candidates k_1 < ... < k_q (deliberately over-complete);
2. for each candidate k_i, test whether the data-defined segments
   (k_{i-1}+1 .. k_i) and (k_i+1 .. k_{i+1}) share one AR structure
   (k_0 = 0, k_{q+1} = T);
3. push the q p-values through one multiple-testing pass (BH or
   Bonferroni); the candidates whose hypotheses are rejected are the final
   change points.

A boundary whose test cannot run (segment too short for the resolved
order, degenerate fit) enters the correction with p-value 1, is never
rejected, and is reported with a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ar import DegenerateFitError, as_series, mean_correct
from .multtest import MultipleTestOutcome, bh_procedure, bonferroni_procedure
from .scan import (
    DEFAULT_RADIUS,
    CandidateSet,
    ScanProfile,
    SeriesTooShortError,
    extract_candidates,
    scan_statistics,
)
from .sdtest import (
    DiscriminationResult,
    OrderMode,
    SegmentTooShortError,
    discrimination_test,
)

__all__ = ["DetectConfig", "BoundaryTest", "ChangePointReport", "detect_changepoints"]

CORRECTIONS = {"bh": bh_procedure, "bonferroni": bonferroni_procedure}


@dataclass(frozen=True)
class DetectConfig:
    """Pipeline settings, checked on construction."""

    window_radius: int = DEFAULT_RADIUS
    scan_order: int | None = None  # None: BIC on the full series, capped at min(10, (h-1)//2)
    order_mode: OrderMode = field(default_factory=OrderMode.fixed)
    correction: str = "bh"
    alpha: float = 0.05
    iterate: bool = False

    def __post_init__(self):
        if self.window_radius < 1:
            raise ValueError("window_radius must be positive")
        if self.scan_order is not None:
            if self.scan_order < 0:
                raise ValueError("scan order must be nonnegative")
            # A half window has h - p targets for p coefficients.
            if self.window_radius < 2 * self.scan_order + 1:
                raise ValueError(
                    "window_radius must be at least 2 * scan order + 1 "
                    f"(got h={self.window_radius}, order={self.scan_order})"
                )
        if self.correction not in CORRECTIONS:
            raise ValueError(
                f"correction must be one of {sorted(CORRECTIONS)}, got {self.correction!r}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class BoundaryTest:
    """One candidate's test, with 1-based inclusive segment ranges."""

    position: int
    left_range: tuple[int, int]
    right_range: tuple[int, int]
    p_value: float
    result: DiscriminationResult | None
    warning: str | None = None


@dataclass(frozen=True)
class ChangePointReport:
    series_length: int
    config: DetectConfig
    profile: ScanProfile
    candidates: CandidateSet
    boundary_tests: tuple[BoundaryTest, ...]
    outcome: MultipleTestOutcome
    final_cps: tuple[int, ...]
    diagnostics: tuple[str, ...]

    def to_dict(self) -> dict:
        """JSON-ready dictionary; tests/test_pipeline.py::TestDetect::test_to_dict_schema
        pins its keys."""
        cfg = self.config
        return {
            "schema": 1,
            "series_length": self.series_length,
            "config": {
                "window_radius": self.profile.radius,
                "scan_order": self.profile.order,
                "order_mode": cfg.order_mode.kind,
                "fixed_order_exponent": cfg.order_mode.exponent,
                "bic_max_order": cfg.order_mode.max_order,
                "correction": cfg.correction,
                "alpha": cfg.alpha,
                "iterate": cfg.iterate,
            },
            "candidates": [
                {"position": pos, "scan_value": val}
                for pos, val in zip(self.candidates.positions, self.candidates.scan_values)
            ],
            "boundary_tests": [
                {
                    "position": bt.position,
                    "left": list(bt.left_range),
                    "right": list(bt.right_range),
                    "p_value": bt.p_value,
                    "statistic": bt.result.statistic if bt.result else None,
                    "df": bt.result.df if bt.result else None,
                    "orders": list(bt.result.orders) if bt.result else None,
                    "warning": bt.warning,
                }
                for bt in self.boundary_tests
            ],
            "correction": {
                "method": self.outcome.method,
                "alpha": self.outcome.alpha,
                "rejected": list(self.outcome.rejected),
                "adjusted_p": list(self.outcome.adjusted),
            },
            "final_cps": list(self.final_cps),
            "diagnostics": list(self.diagnostics),
        }


def _test_boundaries(
    xc: np.ndarray, positions: tuple[int, ...], mode: OrderMode
) -> tuple[list[BoundaryTest], list[float]]:
    """Run the adjacent-segment test at every position of the partition."""
    n = len(xc)
    bounds = (0, *positions, n)
    tests: list[BoundaryTest] = []
    pvals: list[float] = []
    for i, pos in enumerate(positions):
        left = xc[bounds[i] : pos]
        right = xc[pos : bounds[i + 2]]
        ranges = ((bounds[i] + 1, pos), (pos + 1, bounds[i + 2]))
        try:
            res = discrimination_test(left, right, mode)
        except (SegmentTooShortError, DegenerateFitError) as exc:
            tests.append(
                BoundaryTest(pos, *ranges, p_value=1.0, result=None, warning=str(exc))
            )
            pvals.append(1.0)
            continue
        warning = "; ".join(res.warnings) if res.warnings else None
        tests.append(
            BoundaryTest(pos, *ranges, p_value=res.p_value, result=res, warning=warning)
        )
        pvals.append(res.p_value)
    return tests, pvals


def detect_changepoints(series, cfg: DetectConfig | None = None) -> ChangePointReport:
    """Run the full detector on a raw series.

    Deterministic for identical inputs.  Raises SeriesTooShortError when
    the series cannot hold one scanning window (T < 2h), and ValueError
    when it is constant or its mean-corrected sum of squares is 0 or
    overflows (|x| beyond about 1e150).  With
    ``cfg.iterate`` the surviving candidates are re-tested on their merged
    partition until the set is stable; the reported boundary tests and
    correction outcome always describe the first pass over the complete
    candidate set.
    """
    if cfg is None:
        cfg = DetectConfig()
    x = as_series(series)
    n = len(x)
    if n < 2 * cfg.window_radius:
        raise SeriesTooShortError(
            f"series too short: length {n} < 2h = {2 * cfg.window_radius}"
        )
    if (x == x[0]).all():
        raise ValueError(
            f"series is constant (every value is {float(x[0])!r}): "
            "it has no autoregressive structure to test"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        xc = mean_correct(x)
        energy = float(np.dot(xc, xc))
    if not 0.0 < energy < math.inf:
        raise ValueError(
            f"series is out of range: its mean-corrected sum of squares is {energy!r}; "
            "rescale it"
        )
    profile = scan_statistics(xc, cfg.window_radius, cfg.scan_order)
    candidates = extract_candidates(profile)

    correct = CORRECTIONS[cfg.correction]
    diagnostics: list[str] = []
    if profile.degenerate:
        diagnostics.append(
            f"{profile.degenerate} scan window(s) had degenerate fits (scored 0)"
        )

    # Test, correct, keep; with cfg.iterate the kept set goes round again
    # until it is stable.  The report holds the first pass.
    positions = candidates.positions
    passes = 0
    while True:
        tests, pvals = _test_boundaries(xc, positions, cfg.order_mode)
        outcome = correct(pvals, cfg.alpha)
        kept = tuple(pos for pos, rej in zip(positions, outcome.rejected) if rej)
        passes += 1
        if passes == 1:
            first_tests, first_outcome, first_kept = tests, outcome, kept
        if not cfg.iterate or kept == positions:
            break
        positions = kept
    for bt in first_tests:
        if bt.warning:
            diagnostics.append(f"boundary {bt.position}: {bt.warning}")
    if kept != first_kept:
        # The rounds are the passes after the first; the last kept all it tested.
        diagnostics.append(
            f"iterative re-testing removed {len(first_kept) - len(kept)} more "
            f"candidate(s) in {passes - 1} round(s)"
        )

    return ChangePointReport(
        series_length=n,
        config=cfg,
        profile=profile,
        candidates=candidates,
        boundary_tests=tuple(first_tests),
        outcome=first_outcome,
        final_cps=kept,
        diagnostics=tuple(diagnostics),
    )
