from arcpd.svgplot import series_plot


def test_constant_series_with_one_change_point():
    # A constant series is drawn on the range [value, value + 1].
    lines = series_plot([1.0] * 5, [2]).splitlines()
    crimson = [line for line in lines if 'stroke="crimson"' in line]
    assert len(crimson) == 1 and 'x1="262.50"' in crimson[0]
    labels = [line.split(">")[1].split("<")[0] for line in lines if line.startswith("<text")]
    assert labels == ["2", "1.00", "2.00", "1", "5"]
