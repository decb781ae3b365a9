"""End-to-end change point detection.

The detector runs three stages on a series of length T:

1. mean-correct, scan with radius h, and keep the local maximizers of the
   scan profile as candidates k_1 < ... < k_q (deliberately over-complete);
2. for each candidate k_i, test whether the data-defined segments
   (k_{i-1}+1 .. k_i) and (k_i+1 .. k_{i+1}) share one AR structure
   (k_0 = 0, k_{q+1} = T);
3. push the q p-values through one multiple-testing pass (BH or
   Bonferroni); the candidates whose hypotheses are rejected are the final
   change points: :func:`keep_changepoints`, which :mod:`arcpd.bench` calls too.

Stage 2 gives the report's :class:`arcpd.sdtest.BoundaryTests`, one column
per field over the candidates.  Stage 3, the diagnostics, the bench and
:meth:`ChangePointReport.to_dict` (through
:meth:`arcpd.sdtest.BoundaryTests.dicts`) read the columns; the
:class:`arcpd.sdtest.BoundaryTest` records are the benchmark's iteration
view only, and detect builds none.  A boundary whose test cannot run (a
segment too short or constant, a fit that breaks down) enters the
correction with p-value 1, is never rejected, and is reported with a
warning.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .ar import as_series, mean_correct
from .multtest import MultipleTestOutcome, bh_procedure, bonferroni_procedure
from .scan import (
    DEFAULT_RADIUS,
    CandidateSet,
    ScanProfile,
    SeriesTooShortError,
    check_order,
    check_radius,
    extract_candidates,
    scan_statistics,
)
from .sdtest import BoundaryTests, OrderMode, discrimination_test

__all__ = ["DetectConfig", "ChangePointReport", "detect_changepoints"]

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
        check_radius(self.window_radius)
        if not isinstance(self.scan_order, (numbers.Integral, type(None))):
            raise ValueError(f"scan_order must be an integer or None, got {self.scan_order!r}")
        if self.scan_order is not None:
            check_order(self.window_radius, self.scan_order)
        if not isinstance(self.order_mode, OrderMode):
            raise ValueError(f"order_mode must be an OrderMode, got {self.order_mode!r}")
        if not isinstance(self.iterate, (bool, np.bool_)):
            raise ValueError(f"iterate must be a bool, got {self.iterate!r}")
        object.__setattr__(self, "iterate", bool(self.iterate))  # JSON-ready
        if not isinstance(self.correction, str) or self.correction not in CORRECTIONS:
            raise ValueError(
                f"correction must be one of {sorted(CORRECTIONS)}, got {self.correction!r}"
            )
        if not isinstance(self.alpha, numbers.Real):
            raise ValueError(f"alpha must be a real number, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))  # JSON-ready, as in OrderMode
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class ChangePointReport:
    """One detect run: its scan profile, candidates, boundary tests, stage-3
    outcome, final change points and diagnostics."""

    series_length: int
    config: DetectConfig
    profile: ScanProfile
    candidates: CandidateSet
    boundary_tests: BoundaryTests  # columns; records only as the benchmark iterates them
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
            "boundary_tests": self.boundary_tests.dicts(),
            "correction": {
                "method": self.outcome.method,
                "alpha": self.outcome.alpha,
                "rejected": list(self.outcome.rejected),
                "adjusted_p": list(self.outcome.adjusted),
            },
            "final_cps": list(self.final_cps),
            "diagnostics": list(self.diagnostics),
        }


def detect_changepoints(series, cfg: DetectConfig | None = None) -> ChangePointReport:
    """Run the full detector on a raw series.

    Deterministic for identical inputs.  Raises SeriesTooShortError when
    the series cannot hold one scanning window (T < 2h), and ValueError
    when it is constant or out of range: its mean-corrected sum of squares
    overflows (|x| beyond about 1e150), or that sum divided by T is 0.  With
    ``cfg.iterate`` :func:`keep_changepoints` re-tests the surviving
    candidates on their merged partition until the set is stable; the
    reported boundary tests and correction outcome always describe the first
    pass over the complete candidate set.
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
    if not 0.0 < energy / n < math.inf:
        raise ValueError(
            f"series is out of range: its mean-corrected sum of squares is {energy!r}; "
            "rescale it"
        )
    profile = scan_statistics(xc, cfg.window_radius, cfg.scan_order)
    candidates = extract_candidates(profile)

    diagnostics: list[str] = []
    if profile.degenerate:
        diagnostics.append(
            f"{profile.degenerate} scan window(s) had degenerate fits (scored 0)"
        )
    tests = discrimination_test(xc, candidates.positions, cfg.order_mode)
    for i, warning in tests.warnings.items():
        diagnostics.append(f"boundary {int(tests.positions[i])}: {warning}")
    outcome, kept, rounds = keep_changepoints(xc, tests, cfg, CORRECTIONS[cfg.correction])
    removed = sum(outcome.rejected) - len(kept)
    if removed:
        diagnostics.append(
            f"iterative re-testing removed {removed} more candidate(s) in {rounds} round(s)"
        )

    return ChangePointReport(
        series_length=n,
        config=cfg,
        profile=profile,
        candidates=candidates,
        boundary_tests=tests,
        outcome=outcome,
        final_cps=kept,
        diagnostics=tuple(diagnostics),
    )


def keep_changepoints(xc, tests, cfg: DetectConfig, correct):
    """Stage 3: correct the p-values of `tests`, the first BoundaryTests of
    the mean-corrected series `xc`, with `correct` (a CORRECTIONS procedure)
    and keep the rejected positions; with ``cfg.iterate``, re-test and correct
    the kept set until a round keeps all it tested (xc is read only then).
    Returns the first outcome, the kept positions and the number of
    re-testing rounds."""
    rounds = 0
    while True:
        positions = tuple(tests.positions.tolist())
        outcome = correct(tests.p_values, cfg.alpha)
        if rounds == 0:
            first = outcome
        kept = tuple(pos for pos, rej in zip(positions, outcome.rejected) if rej)
        if not cfg.iterate or kept == positions:
            return first, kept, rounds
        tests = discrimination_test(xc, kept, cfg.order_mode)
        rounds += 1
