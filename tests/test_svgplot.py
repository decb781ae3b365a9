import hashlib
from xml.etree import ElementTree

import numpy as np

from arcpd.simulate import builtin_model, simulate_piecewise
from arcpd.svgplot import series_plot


def test_constant_series_with_one_change_point():
    # A constant series is drawn on the range [value, value + 1].
    lines = series_plot([1.0] * 5, [2]).splitlines()
    crimson = [line for line in lines if 'stroke="crimson"' in line]
    assert len(crimson) == 1 and 'x1="262.50"' in crimson[0]
    labels = [line.split(">")[1].split("<")[0] for line in lines if line.startswith("<text")]
    assert labels == ["2", "1.00", "2.00", "1", "5"]


def test_title_is_escaped():
    # arcpd detect --plot passes the CSV path as the title.
    for title in ("a&b<c.csv", "x>y.csv"):
        svg = ElementTree.fromstring(series_plot([1.0, 2.0, 1.5, 3.0], [2], title=title))
        assert next(svg.iter("{http://www.w3.org/2000/svg}text")).text == title


def polyline_points(svg):
    line = next(line for line in svg.splitlines() if line.startswith("<polyline"))
    return line.split('points="')[1].split('"')[0].split()


def test_at_most_four_samples_per_column_keep_the_svg():
    # At T = 1024 no 830 px column holds more than 4 samples: every sample
    # is a vertex, and the SVG is byte for byte the one written before
    # crowded columns were thinned.
    x = simulate_piecewise(builtin_model("B"), 0)
    svg = series_plot(x.tolist(), (512,), title="b.csv")
    assert len(polyline_points(svg)) == 1024
    digest = hashlib.sha256(svg.encode()).hexdigest()
    assert digest == "9dc2739f57f8417a6d1c3eb3c88dc13784f9248f0b3e2b48e30bb351f8b2440b"


def test_crowded_columns_keep_first_min_max_last():
    # At T = 65536 each 830 px column holds about 79 samples; it is drawn
    # from its first, minimum, maximum and last, in time order.
    y = np.random.default_rng(3).standard_normal(65536)
    n, lo, hi = len(y), y.min(), y.max()
    points = polyline_points(series_plot(y, (30000,)))
    assert len(points) <= 4 * 830
    xs = [float(p.split(",")[0]) for p in points]
    assert xs == sorted(xs)

    def point(t):  # sample t (0-based) as series_plot places and formats it
        return f"{55.0 + t * 830.0 / (n - 1):.2f},{265.0 - (y[t] - lo) * 245.0 / (hi - lo):.2f}"

    drawn = set(points)
    # Sample t lies in pixel column t * 830 // (n - 1), the last folded into 829.
    col = np.minimum(np.arange(n) * 830 // (n - 1), 829)
    columns = np.split(np.arange(n), np.flatnonzero(np.diff(col)) + 1)
    assert len(columns) == 830
    for t in columns:
        for s in (t[0], t[y[t].argmin()], t[y[t].argmax()], t[-1]):
            assert point(s) in drawn
