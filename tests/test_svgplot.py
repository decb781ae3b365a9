from xml.etree import ElementTree

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
