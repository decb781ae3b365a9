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
gets one row of one autocovariance table, so an inner segment is fitted
once for both of its boundaries.  The table is built lag by lag from one
buffer that holds each centred segment behind as many zeros as the highest
lag (at least one), written once through a boolean mask of its sample
slots: every product that would cross a segment bound is a product with a
padded zero, so one multiply and one per-segment sum give a whole column
of lag sums.  Each pooled row, c[j] above, is its two segments' rows of
sums over T1 + T2, and sits below the segments' rows in one array.  One
stacked :func:`arcpd.ar.levinson_path` runs every segment row and every
pooled row at once; each fit reads its variance at its own order, exact
because the path is prefix-consistent.  The pass costs a fixed few dozen
numpy calls plus a few per lag, and the chi-square tail is one table of
terms (:func:`chi_sq_upper_tail`), not a loop over its steps.  Each
boundary's record is bit for bit that of a pass over its two segments
alone.  Two order policies are supported:

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
same as each path stopping above its fit's order.  Otherwise its warning
names the first fit that is not usable, its stop k (the order of its path's
first variance that is not positive and finite) and the variance v there:
"{first|second|pooled} segment fit breaks down at order k: residual
variance v".

A segment whose centred lag-0 sum S0 is at most ``EXACT_FIT_RTOL`` (the
scan's exact-fit rule) times its raw energy S0 + T * mean**2 is constant up
to rounding, whether or not its mean rounds exactly: its row of the table
is set to 0, so its fit breaks down at order 0 and its boundaries are
untestable.

The pass returns one :class:`BoundaryTests`: a column per field, and notes
for the flagged boundaries only.  It reads as a sequence of
:class:`BoundaryTest` records, one per boundary, built when first read, so
a caller that needs only positions and p-values, like the pipeline's
stage 3, builds none; :meth:`BoundaryTests.dicts` gives the report's
JSON-ready dicts off the columns, without records either.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ar import EXACT_FIT_RTOL, as_series, bic_order, levinson_path

# Not called here: kept as a module attribute so that perfbench/spans.py TARGETS can wrap it.
from .ar import bic_select_order  # noqa: F401

# Terms per block of the chi-square tail's table (chi_sq_upper_tail), 1 MB of
# doubles: one call's peak is a few such blocks, whatever df and the number of
# boundaries.
TAIL_VALUES = 2**17

__all__ = [
    "OrderMode",
    "DiscriminationResult",
    "BoundaryTest",
    "BoundaryTests",
    "discrimination_test",
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
        if not isinstance(self.exponent, numbers.Real):
            raise ValueError(f"exponent must be a real number, got {self.exponent!r}")
        if not isinstance(self.max_order, numbers.Integral):
            raise ValueError(f"max_order must be an integer, got {self.max_order!r}")
        # Plain Python numbers, so the report's to_dict is JSON-ready.
        object.__setattr__(self, "exponent", float(self.exponent))
        object.__setattr__(self, "max_order", int(self.max_order))
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
    orders: tuple[int, int, int]  # (left segment, right segment, pooled)
    sigma2: tuple[float, float, float]  # innovation variances, same order


@dataclass(frozen=True)
class BoundaryTest:
    """One boundary's test, with 1-based inclusive segment ranges."""

    position: int
    left_range: tuple[int, int]
    right_range: tuple[int, int]
    p_value: float
    result: DiscriminationResult | None  # None: untestable, p_value 1
    warning: str | None = None


class BoundaryTests(Sequence):
    """The boundary tests of one pass as read-only columns, and a read-only
    sequence of their BoundaryTest records, built when first read.

    Per boundary: ``p_values``, ``statistics``, ``df``, ``tested``, and
    ``orders`` and ``sigma2`` of shape (3, B) (first, second and pooled fit);
    a boundary not tested has p-value 1, and its other columns mean nothing.
    ``bounds`` are the partition's, 0 and len(x) included: boundary i is
    bounds[i + 1].  ``warnings`` maps the index of each flagged boundary
    (untestable, capped or clamped) to its note.  :meth:`dicts` reads the
    columns as the report's JSON dicts.
    """

    def __init__(self, bounds, p_values, statistics, df, orders, sigma2, tested, warnings):
        self.bounds, self.p_values, self.statistics, self.df = bounds, p_values, statistics, df
        self.orders, self.sigma2, self.tested = orders, sigma2, tested
        for column in (bounds, p_values, statistics, df, orders, sigma2, tested):
            column.flags.writeable = False
        self.warnings = warnings
        self._records = None

    @property
    def positions(self) -> np.ndarray:
        return self.bounds[1:-1]

    def _rows(self):
        """Per boundary, as Python values: the outer bounds lo and hi of its
        two segments around its position, then tested, p-value, statistic,
        df, the three orders, the three variances and the warning (or None)."""
        b = self.bounds.tolist()
        warnings = [None] * len(self)
        for i, warning in self.warnings.items():
            warnings[i] = warning
        columns = (self.tested, self.p_values, self.statistics, self.df, *self.orders, *self.sigma2)
        return zip(b, b[1:], b[2:], *(c.tolist() for c in columns), warnings)

    def records(self) -> tuple[BoundaryTest, ...]:
        """The records, one per boundary, built on the first call and kept."""
        if self._records is None:
            self._records = tuple(
                BoundaryTest(
                    pos,
                    (lo + 1, pos),
                    (pos + 1, hi),
                    pv,
                    DiscriminationResult(st, d, (q1, q2, q0), (v1, v2, v0)) if ok else None,
                    warning,
                )
                for lo, pos, hi, ok, pv, st, d, q1, q2, q0, v1, v2, v0, warning in self._rows()
            )
        return self._records

    def dicts(self) -> list[dict]:
        """One JSON-ready dict per boundary, read off the columns (no record is
        built): statistic, df and orders are None where it was not tested."""
        return [
            {
                "position": pos,
                "left": [lo + 1, pos],
                "right": [pos + 1, hi],
                "p_value": pv,
                "statistic": st if ok else None,
                "df": d if ok else None,
                "orders": [q1, q2, q0] if ok else None,
                "warning": warning,
            }
            for lo, pos, hi, ok, pv, st, d, q1, q2, q0, *_, warning in self._rows()
        ]

    def __len__(self) -> int:
        return len(self.p_values)

    def __getitem__(self, index):
        return self.records()[index]

    def __iter__(self):
        return iter(self.records())

    def __eq__(self, other):
        if isinstance(other, (BoundaryTests, tuple)):
            return self.records() == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self.records())


def discrimination_test(x, positions, mode: OrderMode | None = None) -> BoundaryTests:
    """Test every boundary of the partition of x at `positions` in one pass.

    Boundary i splits x[positions[i-1]:positions[i]] from
    x[positions[i]:positions[i+1]] (with x's ends as outer bounds);
    positions must increase strictly inside (0, len(x)).  Each segment is
    mean-corrected here, so callers may pass a raw series.  Returns a
    BoundaryTests, columns that read as one BoundaryTest record per boundary,
    in order: the segment ranges, the chi-square upper-tail p-value, the
    DiscriminationResult (statistic, degrees of freedom, orders and
    innovation variances of the three fits; accept/reject is left to the
    caller) and notes on a capped fixed order or a clamped statistic.  The
    records are built when first read.  A boundary that cannot be tested (a
    segment shorter than 3, or a fit that breaks down at or below its order:
    module docstring) has no result, p-value 1 and a warning that says why;
    nothing is raised per boundary.  Each result is symmetric in its two
    segments and invariant to rescaling x.  Positions are integers, numpy's
    of any width too.
    """
    if mode is None:
        mode = OrderMode.fixed()
    x = as_series(x)
    positions = np.asarray(positions)
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

    # Each segment sits behind `pad` zeros in buf, so a lag product that
    # crosses a segment bound is a product with a zero.  Segment s is
    # buf[edges[2 s]:edges[2 s + 1]]; the last runs to the end.
    pad = max(width, 1)
    layout = np.empty(2 * count, dtype=int)  # pad, n[0], pad, n[1], ...
    layout[::2] = pad
    layout[1::2] = n
    edges = np.cumsum(layout)[:-1]
    is_sample = np.zeros(2 * count, dtype=bool)
    is_sample[1::2] = True
    is_sample = np.repeat(is_sample, layout)
    mean = np.add.reduceat(x, bounds[:-1]) / n
    buf = np.zeros(len(x) + pad * count)
    buf[is_sample] = x - np.repeat(mean, n)
    # One table of lag sums, then autocovariances: row s holds segment s's
    # lags 0..width, and the rows after the segments' hold the pooled fits'.
    rows = np.empty((2 * count - 1, width + 1))
    table, pooled = rows[:count], rows[count:]
    prod = np.empty_like(buf)
    # Products, energies and pooled sums may overflow: an inf or NaN row's fit
    # breaks down at order 0, and an overflowing energy decides nothing
    # (constant segments: module docstring).
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(width + 1):
            np.multiply(buf[j:], buf[: len(buf) - j], out=prod[j:])
            table[:, j] = np.add.reduceat(prod, edges)[::2]
        del buf, prod, is_sample  # sample-length; the rest of the pass is per segment
        energy = table[:, 0] + n * mean * mean
        table[(table[:, 0] <= EXACT_FIT_RTOL * energy) & (energy < math.inf)] = 0.0
        np.add(table[:-1], table[1:], out=pooled)
        pooled /= (n1 + n2)[:, None]
        table /= n[:, None]

    _, paths = levinson_path(rows, width)
    path_seg, path_0 = paths[:count], paths[count:]
    orders = np.arange(width + 1)
    if mode.kind == "bic":
        seg_order = bic_order(np.where(orders <= lags[:, None], path_seg, np.nan), n)
        p1, p2 = seg_order[:-1], seg_order[1:]
        # The pooled search stops at the larger segment order, and at the
        # shorter segment's length - 2 (the cap on the segment lags).
        p0_max = np.minimum(np.maximum(p1, p2), t_min - 2)
        p0 = bic_order(np.where(orders <= p0_max[:, None], path_0, np.nan), n1 + n2)
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
    df may be arrays (broadcast together).  The recurrence is one table: row
    0 holds each start term, and row k the term of step k where df > k and k
    has df's parity, else 0; the rows are added down the table in order, so
    each sum is the recurrence's, bit for bit.  A statistic of 0 goes
    through the table too: its start term is 1 and each step term exp(-inf)
    = 0; only inf is left out, with tail 0.  The table is built in blocks
    of at most ``TAIL_VALUES`` terms, each block's first row the sums so far;
    a block's terms, running sums, exponents, step gaps and masks peak at
    about six block-sized arrays.  Returns a float for scalar input, else an
    array.
    """
    df = np.asarray(df)
    if (df < 1).any() or (df % 1).any():
        raise ValueError("df must be a positive integer")
    stat = np.asarray(stat, dtype=float)
    if not (stat >= 0.0).all():
        raise ValueError(f"statistic must be nonnegative, got {stat[~(stat >= 0.0)].flat[0]}")
    stat, df = np.broadcast_arrays(stat, df.astype(int))
    tail = np.zeros(stat.shape)  # at stat = inf
    live = stat < math.inf
    half, df = 0.5 * stat[live], df[live]
    odd = df % 2 == 1
    q = np.exp(-half)
    # numpy has no erfc: the odd-df start term is math.erfc, element by element.
    q[odd] = [math.erfc(math.sqrt(v)) for v in half[odd].tolist()]
    with np.errstate(divide="ignore"):  # half is 0 at stat = 0 and 5e-324: its terms are 0
        log_half = np.log(half)
    top = int(df.max(initial=0))
    block = max(1, TAIL_VALUES // max(len(q), 1) - 1)  # steps per block
    for k0 in range(1, top, block):
        k = np.arange(k0, min(k0 + block, top))[:, None]
        lgam = np.array([math.lgamma(0.5 * v + 1.0) for v in k.ravel().tolist()])
        terms = np.empty((len(k) + 1, len(q)))
        terms[0] = q
        arg = 0.5 * k * log_half - half - lgam[:, None]
        gap = df - k
        arg[(gap <= 0) | (gap % 2 == 1)] = -math.inf  # exp gives 0: no step
        np.exp(arg, out=terms[1:])
        q = np.add.accumulate(terms)[-1]  # row after row, as the steps add
    tail[live] = np.minimum(1.0, q)
    return float(tail) if tail.ndim == 0 else tail
