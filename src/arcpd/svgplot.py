"""Minimal hand-emitted SVG plots (rect/line/polyline/circle/text primitives only).

Two plot kinds back the CLI:

* :func:`series_plot` - the observations as one polyline, with solid
  vertical lines at detected change points.  A vertex per observation,
  except in a pixel column of the plot area that holds more than
  ``COLUMN_VERTICES`` observations: there only its first, minimum, maximum
  and last ones, in time order, which draw the same column.
* :func:`locations_plot` - one panel per method; each replicate that found
  the correct number of change points gets a horizontal line with a circle
  per estimated location, and dashed vertical lines mark the true
  locations.

All coordinates are formatted to two decimals so output is byte-stable.
"""

from __future__ import annotations

import numpy as np

__all__ = ["series_plot", "locations_plot"]

MARGIN = {"left": 55.0, "right": 15.0, "top": 20.0, "bottom": 35.0}
WIDTH = 900.0  # both plots
HEIGHT = 300.0  # series_plot
ROW_HEIGHT = 6.0  # locations_plot, per replicate

# Observations per pixel column above which series_plot keeps only the
# column's first, minimum, maximum and last (module docstring).
COLUMN_VERTICES = 4


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _svg(height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _line(x1, y1, x2, y2, stroke, width="1", dash=None) -> str:
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"{d} />'
    )


def _text(x, y, s, size=11, anchor="middle") -> str:
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")  # a CSV path, say
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
        f'font-size="{size}" text-anchor="{anchor}">{s}</text>'
    )


def _frame(x0, y0, x1, y1) -> list[str]:
    return [
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
        f'height="{_fmt(y1 - y0)}" fill="none" stroke="black" stroke-width="1" />'
    ]


def series_plot(values, changepoints=(), title="") -> str:
    """Series as one polyline, change points as vertical lines."""
    y = np.asarray(values, dtype=float)
    n = len(y)
    x0, x1 = MARGIN["left"], WIDTH - MARGIN["right"]
    y0, y1 = MARGIN["top"], HEIGHT - MARGIN["bottom"]
    lo, hi = float(y.min()), float(y.max())
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo

    def px(t):  # 1-based observation index -> x pixel
        return x0 + (t - 1) * (x1 - x0) / max(n - 1, 1)

    def py(v):
        return y1 - (v - lo) * (y1 - y0) / span

    body = _frame(x0, y0, x1, y1)
    if title:
        body.append(_text((x0 + x1) / 2, y0 - 7, title))
    t = _drawn(y, int(x1 - x0))
    vertices = zip(px(t + 1).tolist(), py(y[t]).tolist())
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in vertices)  # _fmt, inlined
    body.append(f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1" />')
    for cp in changepoints:
        body.append(_line(px(cp), y0, px(cp), y1, "crimson", width="1.5"))
        body.append(_text(px(cp), y1 + 14, str(cp), size=10))
    body.append(_text(x0 - 6, py(lo) + 4, _fmt(lo), anchor="end"))
    body.append(_text(x0 - 6, py(hi) + 4, _fmt(hi), anchor="end"))
    body.append(_text(x0, y1 + 14, "1", size=10))
    body.append(_text(x1, y1 + 14, str(n), size=10))
    return _svg(HEIGHT, body)


def _drawn(y: np.ndarray, columns: int) -> np.ndarray:
    """Indices of the observations series_plot draws, in time order.

    Observation t lies in pixel column t * columns // (n - 1) of the plot
    area, the last one folded into column columns - 1.  A column of more
    than COLUMN_VERTICES observations keeps its first, minimum, maximum and
    last (the first of equal extremes); every other column keeps all of its
    own.
    """
    n = len(y)
    t = np.arange(n)
    if n <= COLUMN_VERTICES * columns:  # no column can be crowded
        return t
    col = np.minimum(t * columns // (n - 1), columns - 1)
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    ends = np.append(starts[1:], n)
    keep = np.ones(n, dtype=bool)
    for a, b in zip(starts.tolist(), ends.tolist()):
        if b - a > COLUMN_VERTICES:
            part = y[a:b]
            keep[a + 1 : b - 1] = False
            keep[a + int(part.argmin())] = keep[a + int(part.argmax())] = True
    return t[keep]


def locations_plot(
    model_label: str,
    series_length: int,
    true_cps,
    method_locations: dict[str, list[tuple[int, list[int]]]],
) -> str:
    """Estimated-location panels, one per method.

    `method_locations` maps a method label to a list of
    (replicate_index, estimated positions) pairs -- only the replicates
    whose estimated count matched the truth.  Replicates are stacked as
    horizontal lines in index order; circles mark the estimates; dashed
    vertical lines mark the true locations.
    """
    x0, x1 = MARGIN["left"], WIDTH - MARGIN["right"]
    panel_gap = 30.0
    body: list[str] = []
    top = MARGIN["top"]

    def px(t):
        return x0 + t * (x1 - x0) / max(series_length, 1)

    for method, rows in method_locations.items():
        n_rows = max(len(rows), 1)
        y_lo = top + 14.0
        y_hi = y_lo + n_rows * ROW_HEIGHT
        body.append(_text((x0 + x1) / 2, top + 4, f"{model_label} — {method}"))
        body.extend(_frame(x0, y_lo, x1, y_hi))
        for cp in true_cps:
            body.append(_line(px(cp), y_lo, px(cp), y_hi, "black", dash="4 3"))
        for i, (_, locs) in enumerate(rows):
            yy = y_lo + (i + 0.5) * ROW_HEIGHT
            body.append(_line(x0, yy, x1, yy, "#cccccc", width="0.5"))
            for loc in locs:
                body.append(
                    f'<circle cx="{_fmt(px(loc))}" cy="{_fmt(yy)}" r="2" '
                    f'fill="darkorange" />'
                )
        body.append(_text(x0, y_hi + 14, "1", size=10))
        body.append(_text(x1, y_hi + 14, str(series_length), size=10))
        top = y_hi + panel_gap
    return _svg(top, body)
