"""Independent output checks for arcpd detection reports.

Each check recomputes a property of a `ChangePointReport` from its
definition, with no code from arcpd, so a later change to the statistics
trips a check only when the report stops agreeing with its own definition:

- scan values: direct least-squares AR fits per window (`numpy.linalg.lstsq`);
- candidates: the strict-left / weak-right local maxima of the profile;
- p-values: `scipy.stats.chi2.sf` of the reported statistic and df;
- final change points: BH or Bonferroni rejections of the reported p-values.

Every check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import math

import numpy as np

SCAN_TOL = 1e-10
P_TOL = 1e-10
LOG_2PI = math.log(2.0 * math.pi)


def _piece_loglik(xc: np.ndarray, first: int, last: int, order: int) -> float:
    """Max Gaussian loglik of an AR(order) regression of xc[first..last] on its lags."""
    y = xc[first : last + 1]
    count = len(y)
    if order == 0:
        sse = float(y @ y)
    else:
        design = np.column_stack(
            [xc[first - j : last + 1 - j] for j in range(1, order + 1)]
        )
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < order:
            return math.nan
        resid = y - design @ coef
        sse = float(resid @ resid)
    if not sse > 0.0:
        return math.nan
    return -0.5 * count * (LOG_2PI + math.log(sse / count) + 1.0)


def window_scan(xc: np.ndarray, t: int, radius: int, order: int) -> float:
    """Scan value at 1-based position t: (L_left + L_right - L_pooled) / h.

    The window is xc[t-h .. t+h-1] (0-based); the first `order` points of
    the window only serve as lags.  A degenerate fit scores 0.
    """
    first = t - radius + order
    left = _piece_loglik(xc, first, t - 1, order)
    right = _piece_loglik(xc, t, t + radius - 1, order)
    pooled = _piece_loglik(xc, first, t + radius - 1, order)
    value = (left + right - pooled) / radius
    return 0.0 if math.isnan(value) else value


def check_scan(xc: np.ndarray, profile, positions) -> tuple[list[str], float]:
    """Compare profile values at the given 1-based positions; returns (failures, max |diff|)."""
    failures = []
    worst = 0.0
    for t in positions:
        got = float(profile.values[t - profile.offset])
        want = window_scan(xc, t, profile.radius, profile.order)
        diff = abs(got - want)
        worst = max(worst, diff)
        if not diff <= SCAN_TOL:
            failures.append(f"scan value at {t}: {got!r} != least squares {want!r}")
    return failures, worst


def local_maxima(values, radius: int, offset: int) -> list[int]:
    """Positions whose value beats every value up to `radius` before it
    strictly and is not beaten by any value up to `radius` after it."""
    vals = [float(v) for v in values]
    out = []
    for i, v in enumerate(vals):
        before = vals[max(0, i - radius) : i]
        after = vals[i + 1 : i + 1 + radius]
        if (not before or v > max(before)) and (not after or v >= max(after)):
            out.append(offset + i)
    return out


def check_candidates(profile, candidates) -> list[str]:
    want = local_maxima(profile.values, profile.radius, profile.offset)
    got = list(candidates.positions)
    if got != want:
        extra = sorted(set(got) - set(want))[:5]
        missing = sorted(set(want) - set(got))[:5]
        return [f"candidates differ from local maxima: extra {extra}, missing {missing}"]
    return []


def check_pvalues(boundary_tests) -> tuple[list[str], float]:
    """Each p-value against chi2.sf(max(stat, 0), df); untestable boundaries need p = 1."""
    from scipy.stats import chi2

    failures = []
    worst = 0.0
    for bt in boundary_tests:
        if bt.result is None:
            if bt.p_value != 1.0:
                failures.append(f"untestable boundary {bt.position} has p {bt.p_value!r}")
            continue
        want = float(chi2.sf(max(bt.result.statistic, 0.0), bt.result.df))
        diff = abs(bt.p_value - want)
        worst = max(worst, diff)
        if not diff <= P_TOL:
            failures.append(f"p-value at {bt.position}: {bt.p_value!r} != chi2.sf {want!r}")
    return failures, worst


def rejections(pvals, method: str, alpha: float) -> list[bool]:
    """BH step-up or Bonferroni rejection flags, in input order."""
    q = len(pvals)
    if method == "bonferroni":
        return [q * p <= alpha for p in pvals]
    ranked = sorted(pvals)
    passing = [p for i, p in enumerate(ranked, start=1) if p <= i * alpha / q]
    if not passing:
        return [False] * q
    cutoff = max(passing)
    return [p <= cutoff for p in pvals]


def kept_positions(positions, pvals, method: str, alpha: float) -> tuple[int, ...]:
    return tuple(pos for pos, rej in zip(positions, rejections(pvals, method, alpha)) if rej)


def check_final(report) -> list[str]:
    """Boundary tests sit at the candidates; final change points are the rejections."""
    positions = tuple(bt.position for bt in report.boundary_tests)
    if positions != tuple(report.candidates.positions):
        return ["boundary tests are not at the candidate positions"]
    pvals = [bt.p_value for bt in report.boundary_tests]
    want = kept_positions(positions, pvals, report.config.correction, report.config.alpha)
    if tuple(report.final_cps) != want:
        return [f"final change points {report.final_cps} != rejections {want}"]
    return []


def check_report(x: np.ndarray, report, rng: np.random.Generator, n_positions: int = 8) -> dict:
    """Run every check on one report.

    Scan values are compared at `n_positions` random positions plus the first
    and last ones, where prefix-sum drift would be largest.
    """
    xc = np.asarray(x, dtype=float)
    xc = xc - xc.mean()
    prof = report.profile
    first, last = prof.offset, prof.offset + len(prof.values) - 1
    picks = rng.integers(first, last + 1, size=n_positions)
    positions = sorted({first, last, *(int(t) for t in picks)})
    scan_fail, scan_diff = check_scan(xc, prof, positions)
    p_fail, p_diff = check_pvalues(report.boundary_tests)
    failures = scan_fail + check_candidates(prof, report.candidates) + p_fail + check_final(report)
    return {
        "failures": failures,
        "scan_positions": len(positions),
        "scan_max_diff": scan_diff,
        "pvalues": sum(bt.result is not None for bt in report.boundary_tests),
        "p_max_diff": p_diff,
    }
