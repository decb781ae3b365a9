"""Likelihood-ratio test for whether adjacent segments share one AR structure.

Each segment is mean-corrected individually, so a pure level shift is not
evidence of a change; only second-order structure is compared.  Under the
null two adjacent segments share an autocovariance structure
(equivalently, a spectral density), and the statistic

    stat = T1 * log(s0 / s1) + T2 * log(s0 / s2)

is asymptotically chi-square, where s1, s2 are the innovation variances of
separate Yule-Walker fits and s0 comes from a fit to the pooled
autocovariances, the sample-size-weighted average

    c[j] = (T1 * gx[j] + T2 * gy[j]) / (T1 + T2)

of the per-segment autocovariances gx, gy.

:func:`discrimination_test` tests every boundary of a partition in one
vectorised pass; a pair test is the one-boundary partition.  Each segment
gets one row of lag sums from :func:`segment_table`, which holds the padded
layout and the constant-segment rule, so an inner segment is fitted once
for both of its boundaries.  A segment's autocovariance row is its sums
over its length, and each pooled row, c[j] above, is its two segments'
sums over T1 + T2.  One stacked :func:`arcpd.ar.levinson_path` runs every
segment row and every pooled row at once; each fit reads its variance at
its own order, exact because the path is prefix-consistent.  The chi-square
tail (:func:`chi_sq_upper_tail`) costs a few numpy calls per step of its
recurrence, or, for at most :data:`arcpd.ar.FLOAT_COUNT` boundaries, the
same terms added in Python floats.  Each boundary's values are bit for bit
those of a pass over its two segments alone.  Two order policies are supported:

* fixed: both segments and the pooled fit use
  ``floor((ln T_min) ** exponent)`` with ``exponent > 1`` (autoregressive
  approximation), at least 1 and at most T_min // 3, which keeps the
  Yule-Walker system comfortably overdetermined for short segments; a
  binding cap adds a note to the boundary's warning.  This stays valid
  when the data are not truly autoregressive, at some cost in power when
  they are, and is the pipeline default.
* bic: per-segment BIC orders, searched up to min(max_order, T_i - 2),
  plus a BIC order for the pooled fit, searched up to
  min(max(p1, p2), T_min - 2).  All three come from the one BIC scorer,
  :func:`arcpd.ar.bic_order`, over the same paths.  Preferable only when an
  AR model is trusted.

The degrees of freedom are p1 + p2 - p0 + 1 under both policies: order + 1
in fixed mode, at least min(p1, p2) + 1 in bic mode.

A boundary is tested only when its first, second and pooled fits are all
usable: the variance of each at its order is positive and finite.  A
Levinson path is NaN past its first variance that is not, so that is the
same as each path stopping above its fit's order (a constant segment's
zero row stops at order 0: :func:`segment_table`).  Otherwise its warning
names the first fit that is not usable, its stop k (the order of its path's
first variance that is not positive and finite) and the variance v there:
"{first|second|pooled} segment fit breaks down at order k: residual
variance v".

The pass returns one :class:`BoundaryTests` of columns, which detect, stage
3, the bench and the report's JSON read.  Its :class:`BoundaryTest` records
are the benchmark's iteration view (perfbench/oracle.py,
perfbench/workloads.py), which nothing in the package reads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .ar import FLOAT_COUNT, as_series, bic_order, check_integer, levinson_path

# Not called here: kept as a module attribute so that perfbench/spans.py TARGETS can wrap it.
from .ar import bic_select_order  # noqa: F401

# Constant-segment rule (segment_table): S0 at most this times the energy.
CONSTANT_RTOL = (8 * np.finfo(float).eps) ** 2

__all__ = [
    "OrderMode",
    "DiscriminationResult",
    "BoundaryTest",
    "BoundaryTests",
    "discrimination_test",
    "segment_table",
    "chi_sq_upper_tail",
]


@dataclass(frozen=True)
class OrderMode:
    """Order policy: ``OrderMode.fixed(exponent)`` or ``OrderMode.bic(max_order)``."""

    kind: str
    exponent: float = 1.5
    max_order: int = 10

    def __post_init__(self):
        if self.kind not in ("fixed", "bic"):
            raise ValueError(f"unknown order mode {self.kind!r}")
        # A bool is a numbers.Integral: True would run as exponent 1.0 or max_order 1.
        if isinstance(self.exponent, bool) or not isinstance(self.exponent, numbers.Real):
            raise ValueError(f"exponent must be a real number, got {self.exponent!r}")
        # Plain Python numbers, so the report's to_dict is JSON-ready.
        object.__setattr__(self, "exponent", float(self.exponent))
        object.__setattr__(self, "max_order", check_integer("max_order", self.max_order))
        if self.kind == "fixed" and not self.exponent > 1.0:
            raise ValueError("fixed-order exponent must be > 1")
        if not math.isfinite(self.exponent):  # the report's JSON holds no inf
            raise ValueError(f"fixed-order exponent must be finite, got {self.exponent}")
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
    """One tested boundary's statistic and df, in the benchmark's iteration
    view (module docstring)."""

    statistic: float
    df: int


@dataclass(frozen=True)
class BoundaryTest:
    """One boundary as the benchmark iterates it (module docstring)."""

    position: int
    p_value: float
    result: DiscriminationResult | None  # None: untestable, p_value 1


class BoundaryTests:
    """The boundary tests of one pass as read-only columns.

    Per boundary: ``p_values``, ``statistics``, ``df``, ``tested``, and
    ``orders`` and ``sigma2`` of shape (3, B) (first, second and pooled fit);
    a boundary not tested has p-value 1, and its other columns mean nothing.
    ``bounds`` are the partition's, 0 and len(x) included: boundary i is
    bounds[i + 1].  ``warnings`` maps the index of each flagged boundary
    (untestable, capped or clamped) to its note.  :meth:`dicts` reads the
    columns as the report's JSON dicts; iterating builds the benchmark's
    BoundaryTest records as it goes.
    """

    def __init__(self, bounds, p_values, statistics, df, orders, sigma2, tested, warnings):
        self.bounds, self.p_values, self.statistics, self.df = bounds, p_values, statistics, df
        self.orders, self.sigma2, self.tested = orders, sigma2, tested
        for column in (bounds, p_values, statistics, df, orders, sigma2, tested):
            column.flags.writeable = False
        self.warnings = warnings

    @property
    def positions(self) -> np.ndarray:
        return self.bounds[1:-1]

    def dicts(self) -> list[dict]:
        """One JSON-ready dict per boundary, read off the columns: statistic,
        df and orders are None where it was not tested."""
        b = self.bounds.tolist()
        columns = (self.tested, self.p_values, self.statistics, self.df, *self.orders)
        rows = zip(b, b[1:], b[2:], *(c.tolist() for c in columns))
        return [
            {
                "position": pos,
                "left": [lo + 1, pos],
                "right": [pos + 1, hi],
                "p_value": pv,
                "statistic": st if ok else None,
                "df": d if ok else None,
                "orders": [q1, q2, q0] if ok else None,
                "warning": self.warnings.get(i),
            }
            for i, (lo, pos, hi, ok, pv, st, d, q1, q2, q0) in enumerate(rows)
        ]

    def __len__(self) -> int:
        return len(self.p_values)

    def __iter__(self):
        columns = (self.positions, self.p_values, self.tested, self.statistics, self.df)
        for pos, pv, ok, st, d in zip(*(c.tolist() for c in columns)):
            yield BoundaryTest(pos, pv, DiscriminationResult(st, d) if ok else None)


def discrimination_test(x, positions, mode: OrderMode | None = None) -> BoundaryTests:
    """Test every boundary of the partition of x at `positions` in one pass.

    Boundary i splits x[positions[i-1]:positions[i]] from
    x[positions[i]:positions[i+1]] (with x's ends as outer bounds);
    positions must increase strictly inside (0, len(x)).  Each segment is
    mean-corrected here, so callers may pass a raw series.  Returns the
    boundaries' :class:`BoundaryTests`; accept/reject is left to the caller.
    A boundary that cannot be tested (a segment shorter than 3, or a fit
    that breaks down at or below its order: module docstring) has p-value 1
    and a warning that says why; nothing is raised per boundary.  Each
    boundary's test is symmetric in its two segments and invariant to
    rescaling x.  Positions are integers, numpy's of any width too.
    """
    if mode is None:
        mode = OrderMode.fixed()
    x = as_series(x)
    positions = np.asarray(positions)
    if positions.ndim != 1:
        raise ValueError(f"positions must be 1-D, got an array of shape {positions.shape}")
    if positions.size and positions.dtype.kind not in "iu":
        raise ValueError(f"positions must be integers, got {positions.dtype} values")
    bounds = np.concatenate([[0], positions.astype(int), [len(x)]])
    n = bounds[1:] - bounds[:-1]
    if (n < 1).any():
        raise ValueError("positions must increase strictly inside (0, len(x))")
    count = len(n)
    if count == 1:  # no boundary
        none = np.empty((3, 0))
        return BoundaryTests(
            bounds, none[0], none[0], none[0].astype(int), none.astype(int), none, none[0] > 0, {}
        )
    n1, n2 = n[:-1], n[1:]
    t_min = np.minimum(n1, n2)
    testable = t_min >= 3

    if mode.kind == "fixed":
        # One order per distinct length.  Past the cap an order is the cap,
        # however large: it is an int or inf, so as a float it saturates.
        shortest = t_min.tolist()
        order_of = {t: _fixed_order(t, mode.exponent) for t in set(shortest)}
        raw = [order_of[t] for t in shortest]
        raw_order = np.array(raw, dtype=float)
        capped = np.minimum(raw_order, t_min // 3).astype(int)
        binds = raw_order > capped  # the cap binds: a note
        p1 = p2 = np.where(testable, np.maximum(capped, 1), 0)
        width = int(p1.max())
    else:
        binds = np.zeros(count - 1, dtype=bool)
        lags = np.minimum(mode.max_order, n - 2)  # per segment: its search cap
        width = max(int(lags.max()), 0)

    sums = segment_table(x, bounds, width)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN row breaks down
        pooled = (sums[:-1] + sums[1:]) / (n1 + n2)[:, None]
    _, paths = levinson_path(np.concatenate([sums / n[:, None], pooled]), width)
    orders = np.arange(width + 1)
    if mode.kind == "bic":
        seg_order = bic_order(np.where(orders <= lags[:, None], paths[:count], np.nan), n)
        p1, p2 = seg_order[:-1], seg_order[1:]
        # The pooled search stops at the larger segment order, and at the
        # shorter segment's length - 2 (the cap on the segment lags).
        p0_max = np.minimum(np.maximum(p1, p2), t_min - 2)
        p0 = bic_order(np.where(orders <= p0_max[:, None], paths[count:], np.nan), n1 + n2)
    else:
        p0 = p1
    # Per boundary, the first, second and pooled fits: their rows of paths,
    # their orders and their variances there.  A path is NaN past its first
    # variance that is not positive and finite, so a fit is usable when its
    # variance at its order is.
    fit_rows = np.arange(count - 1) + np.array([[0], [1], [count]])
    fit_orders = np.array([p1, p2, p0])
    sigma2 = paths[fit_rows, fit_orders]
    usable = (0.0 < sigma2) & (sigma2 < math.inf)
    fitted = testable & usable.all(axis=0)
    s1, s2, s0 = sigma2
    with np.errstate(divide="ignore", invalid="ignore"):  # boundaries not fitted
        stat = np.where(fitted, n1 * np.log(s0 / s1) + n2 * np.log(s0 / s2), 0.0)
    # p0 <= max(p1, p2), so df >= min(p1, p2) + 1; in fixed mode it is p + 1.
    df = np.where(fitted, p1 + p2 - p0 + 1, 1)
    p_value = chi_sq_upper_tail(np.maximum(stat, 0.0), df)

    # Notes for the flagged boundaries only.  Exact nonnegativity of the
    # statistic only holds when the pooled order is nested in both
    # per-segment orders (always true in fixed mode); flag anything beyond
    # rounding.
    clamped = fitted & (stat < -1e-8)
    warnings = {}
    for i in np.flatnonzero(~fitted | binds | clamped).tolist():
        lengths = (int(n1[i]), int(n2[i]))
        if not testable[i]:
            warnings[i] = f"segments of lengths {lengths} are too short to compare"
        elif not fitted[i]:  # name the first unusable fit and where its path stops
            f = int((~usable[:, i]).argmax())
            path = paths[fit_rows[f, i]]
            k = int(((0.0 < path) & (path < math.inf)).sum())  # its count of usable variances
            label, v = ("first", "second", "pooled")[f], float(path[k])
            warnings[i] = f"{label} segment fit breaks down at order {k}: residual variance {v!r}"
        else:
            notes = []
            if binds[i]:
                notes.append(
                    f"fixed order {raw[i]} capped to {int(p1[i])} for segment lengths {lengths}"
                )
            if clamped[i]:
                notes.append(f"statistic {float(stat[i]):.3e} below zero; clamped")
            warnings[i] = "; ".join(notes)
    return BoundaryTests(bounds, p_value, stat, df, fit_orders, sigma2, fitted, warnings)


def segment_table(x, bounds, width: int) -> np.ndarray:
    """Lag sums 0..width of each segment of x about its own mean, shape
    (count, width + 1): row s is segment x[bounds[s]:bounds[s + 1]], for an
    integer array of bounds that increases strictly from 0 to len(x).

    One buffer holds each centred segment behind max(width, 1) zeros, so a
    lag product that would cross a segment bound is a product with a zero,
    and one multiply and one per-segment sum give each lag's column.  A row
    is bit for bit that of its segment alone, at the same width.  The sums
    are not divided by the lengths, so rows can be pooled first.

    A segment whose centred lag-0 sum S0 is at most ``CONSTANT_RTOL`` =
    (8 eps)**2 times its raw energy S0 + T * mean**2 (sd / level at most
    about 8 eps) is constant up to rounding, whether or not its mean rounds
    exactly (a constant segment's rounding residue measured below 6 eps**2
    of its energy, at levels from 1e-200 to 1e200 and T up to 2**20): its
    row is 0.  A product or sum that overflows leaves an inf or NaN in its
    row, and an overflowing energy decides nothing.
    """
    n = bounds[1:] - bounds[:-1]
    count = len(n)
    pad = max(width, 1)
    layout = np.empty(2 * count, dtype=int)  # pad, n[0], pad, n[1], ...
    layout[::2] = pad
    layout[1::2] = n
    edges = np.cumsum(layout)[:-1]  # segment s is buf[edges[2 s]:edges[2 s + 1]]
    is_sample = np.zeros(2 * count, dtype=bool)
    is_sample[1::2] = True
    is_sample = np.repeat(is_sample, layout)
    mean = np.add.reduceat(x, bounds[:-1]) / n
    buf = np.zeros(len(x) + pad * count)
    centred = np.repeat(mean, n)
    buf[is_sample] = np.subtract(x, centred, out=centred)
    del centred, is_sample  # sample-length, freed before the lag products
    sums = np.empty((count, width + 1))
    prod = np.empty_like(buf)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(width + 1):
            np.multiply(buf[j:], buf[: len(buf) - j], out=prod[j:])
            sums[:, j] = np.add.reduceat(prod, edges)[::2]
        energy = sums[:, 0] + n * mean * mean
        sums[(sums[:, 0] <= CONSTANT_RTOL * energy) & (energy < math.inf)] = 0.0
    return sums


def _fixed_order(t: int, exponent: float) -> float:
    """floor((ln t) ** exponent), inf where it overflows a float.  math's log:
    np.log may differ in the last bit, which moves floor at an integer."""
    try:
        return math.floor(math.log(t) ** exponent)
    except OverflowError:
        return math.inf


def chi_sq_upper_tail(stat, df):
    """P(X > stat) for X chi-square with integer df degrees of freedom.

    Closed form by the recurrence Q(1) = erfc(sqrt(x/2)), Q(2) = exp(-x/2),
    Q(k+2) = Q(k) + (x/2)^(k/2) exp(-x/2) / Gamma(k/2 + 1).  Every term is
    positive, so there is no cancellation, in the far tail either.  stat and
    df may be arrays (broadcast together).  The step loop runs k = 1 ..
    max(df) - 1 over all values at once, adding to each sum the term of step
    k where df > k and k has df's parity, else exp(-inf) = 0: each sum is
    the recurrence's, bit for bit, and the loop holds a few arrays of the
    values' length, whatever df.  A statistic of 0 goes through the loop
    too: its start term is 1 and each step term 0; only inf is left out,
    with tail 0.  At most ``FLOAT_COUNT`` values of one shape
    (:data:`arcpd.ar.FLOAT_COUNT`) skip the loop: each one's terms are
    added in step order in Python floats, bit for bit the loop's sums.
    Returns a float for scalar input, else an array.
    """
    df = np.asarray(df)
    # A non-finite df fails before % 1, which warns on inf; a bool is not a df.
    if df.dtype == bool or not (np.isfinite(df) & (df >= 1)).all() or (df % 1).any():
        raise ValueError("df must be a positive integer")
    stat = np.asarray(stat, dtype=float)
    if not (stat >= 0.0).all():
        raise ValueError(f"statistic must be nonnegative, got {stat[~(stat >= 0.0)].flat[0]}")
    if stat.shape == df.shape and stat.size <= FLOAT_COUNT:
        tail = _tail_floats(stat.ravel().tolist(), [int(d) for d in df.ravel().tolist()])
        return tail[0] if stat.ndim == 0 else np.array(tail).reshape(stat.shape)
    stat, df = np.broadcast_arrays(stat, df.astype(int))
    tail = np.zeros(stat.shape)  # at stat = inf
    live = stat < math.inf
    half, df = 0.5 * stat[live], df[live]
    parity = df % 2
    q = np.exp(-half)
    # numpy has no erfc: the odd-df start term is math.erfc, element by element.
    q[parity == 1] = [math.erfc(math.sqrt(v)) for v in half[parity == 1].tolist()]
    with np.errstate(divide="ignore"):  # half is 0 at stat = 0 and 5e-324: its terms are 0
        log_half = np.log(half)
    for k in range(1, int(df.max(initial=0))):
        step = (df > k) & (parity == k % 2)  # elsewhere exp(-inf) adds 0
        arg = 0.5 * k * log_half - half - math.lgamma(0.5 * k + 1.0)
        q = q + np.exp(np.where(step, arg, -math.inf))
    tail[live] = np.minimum(1.0, q)
    return float(tail) if tail.ndim == 0 else tail


def _tail_floats(stat: list, df: list) -> list:
    """chi_sq_upper_tail of a few values, the statistics as Python floats and
    df as ints: the step loop's terms, each value's added in step order in
    floats.  The logarithms and the exponentials come from numpy, as in the
    step loop (one call each here): math.exp can differ from numpy's exp in
    the last bit."""
    half = [0.5 * v for v in stat]
    # Each value's steps k < df of df's parity; none at half = 0 (each term is
    # exp(-inf) = 0 in the step loop) or at inf (tail 0).
    steps = [range(2 - d % 2, d, 2) if 0.0 < h < math.inf else () for h, d in zip(half, df)]
    log_half = iter(np.log([h for h, ks in zip(half, steps) if ks]).tolist())
    lgam = [math.lgamma(0.5 * k + 1.0) for k in range(max(df, default=0))]
    args = []  # per value: its start term's if df is even, then its steps'
    for h, d, ks in zip(half, df, steps):
        if d % 2 == 0 and h < math.inf:
            args.append(-h)
        if ks:
            lh = next(log_half)
            args += [0.5 * k * lh - h - lgam[k] for k in ks]
    terms = iter(np.exp(args).tolist())
    tail = []
    for h, d, ks in zip(half, df, steps):
        if h == math.inf:
            tail.append(0.0)
            continue
        q = math.erfc(math.sqrt(h)) if d % 2 else next(terms)
        for _ in ks:
            q += next(terms)
        tail.append(q if q < 1.0 else 1.0)
    return tail
