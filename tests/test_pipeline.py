import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from arcpd import DetectConfig, OrderMode, detect_changepoints, multtest, scan, sdtest
from arcpd.ar import mean_correct
from arcpd.bench import run_model
from arcpd.multtest import bonferroni_procedure
from arcpd.scan import SeriesTooShortError, scan_statistics
from arcpd.simulate import (
    ArmaSpec,
    PiecewiseSpec,
    builtin_model,
    replicate_seed,
    simulate_piecewise,
)

from pairs import assert_same_tests, fit_orders


def white_noise(seed, n=1024):
    return simulate_piecewise(PiecewiseSpec(((ArmaSpec(), n),)), seed)


class TestDetect:
    def test_white_noise_finds_nothing(self):
        report = detect_changepoints(white_noise(0))
        assert report.final_cps == ()

    def test_model_c_finds_both(self):
        x = simulate_piecewise(builtin_model("C"), 0)
        report = detect_changepoints(x)
        assert len(report.final_cps) == 2
        assert min(abs(report.final_cps[0] - 400), abs(report.final_cps[0] - 612)) <= 40
        assert min(abs(report.final_cps[1] - 400), abs(report.final_cps[1] - 612)) <= 40

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShortError):
            detect_changepoints(np.zeros(99))  # default h = 50 needs T >= 100
        with pytest.raises(SeriesTooShortError):
            detect_changepoints(white_noise(1, n=39), DetectConfig(window_radius=20))

    def test_deterministic(self):
        x = simulate_piecewise(builtin_model("B"), 5)
        a = detect_changepoints(x)
        b = detect_changepoints(x)
        assert a.final_cps == b.final_cps
        assert np.array_equal(a.profile.values, b.profile.values)
        assert a.boundary_tests.p_values.tolist() == b.boundary_tests.p_values.tolist()

    def test_report_arithmetic(self):
        x = simulate_piecewise(builtin_model("G"), 2)
        report = detect_changepoints(x)
        n = report.series_length
        tests = report.boundary_tests.dicts()
        assert len(tests) == len(report.candidates)
        assert set(report.final_cps) <= set(report.candidates.positions)
        # segment ranges tile [1, T]
        assert tests[0]["left"][0] == 1
        assert tests[-1]["right"][1] == n
        for prev, cur in zip(tests, tests[1:]):
            assert prev["right"] == [prev["left"][1] + 1, cur["left"][1]]
            assert cur["left"][0] == prev["left"][1] + 1

    def test_bonferroni_subset_of_bh(self):
        for seed in range(5):
            x = simulate_piecewise(builtin_model("B"), seed)
            bh = detect_changepoints(x, DetectConfig(correction="bh"))
            bf = detect_changepoints(x, DetectConfig(correction="bonferroni"))
            assert set(bf.final_cps) <= set(bh.final_cps)
            assert bf.candidates.positions == bh.candidates.positions

    def test_window_override_honored(self):
        x = simulate_piecewise(builtin_model("C"), 3)
        report = detect_changepoints(x, DetectConfig(window_radius=80))
        assert report.profile.radius == 80
        assert len(report.profile.values) == 1024 - 160 + 1

    def test_global_level_is_irrelevant(self):
        x = simulate_piecewise(builtin_model("C"), 4)
        base = detect_changepoints(x)
        shifted = detect_changepoints(x + 1000.0)
        assert shifted.final_cps == base.final_cps
        assert shifted.candidates.positions == base.candidates.positions

    def test_iterate_only_removes(self):
        x = simulate_piecewise(builtin_model("B"), 7)
        plain = detect_changepoints(x, DetectConfig())
        iterated = detect_changepoints(x, DetectConfig(iterate=True))
        assert set(iterated.final_cps) <= set(plain.final_cps)
        assert iterated.candidates.positions == plain.candidates.positions

    def test_iterate_diagnostic(self):
        # the first pass keeps 3 change points; re-testing drops 746 and then
        # 199, and the third round keeps 889 alone.  The report's boundary
        # tests and correction stay those of the first pass.
        x = simulate_piecewise(builtin_model("E"), 21)
        plain = detect_changepoints(x, DetectConfig())
        iterated = detect_changepoints(x, DetectConfig(iterate=True))
        assert plain.final_cps == (199, 746, 889)
        assert iterated.final_cps == (889,)
        assert iterated.diagnostics == (
            "iterative re-testing removed 2 more candidate(s) in 3 round(s)",
        )
        assert_same_tests(iterated.boundary_tests, plain.boundary_tests)
        assert iterated.outcome == plain.outcome

    def test_to_dict_schema(self):
        x = simulate_piecewise(builtin_model("I"), 0)
        d = detect_changepoints(x).to_dict()
        assert d["schema"] == 1
        assert set(d) >= {
            "series_length",
            "config",
            "candidates",
            "boundary_tests",
            "correction",
            "final_cps",
            "diagnostics",
        }
        assert len(d["boundary_tests"]) == len(d["candidates"])
        assert d["config"]["window_radius"] == 50

    def test_failed_boundary_becomes_warning_not_rejection(self):
        # h small enough that a candidate can sit right next to the series
        # edge, where the segment cannot support the resolved order
        rng = np.random.default_rng(3)
        x = rng.standard_normal(60)
        x[28:] *= 6.0
        report = detect_changepoints(
            x, DetectConfig(window_radius=4, scan_order=0, order_mode=OrderMode.fixed(1.5))
        )
        tests = report.boundary_tests
        for i in np.flatnonzero(~tests.tested).tolist():
            assert tests.p_values[i] == 1.0
            assert tests.warnings.get(i)

    def test_unexpected_test_error_propagates(self, monkeypatch):
        # only an untestable boundary becomes p = 1; any other error is a bug
        def broken(*args):
            raise ValueError("bug in the segment test")

        monkeypatch.setattr("arcpd.pipeline.discrimination_test", broken)
        with pytest.raises(ValueError, match="bug in the segment test"):
            detect_changepoints(simulate_piecewise(builtin_model("C"), 0))

    @pytest.mark.parametrize("scan_order", [None, 1], ids=["bic", "order1"])
    @pytest.mark.parametrize("value", [1.5, 0.1, 0.0])
    def test_constant_series_is_a_value_error(self, value, scan_order):
        # 0.1 leaves mean-correction residues of about 1e-17, not exact zeros
        with pytest.raises(ValueError, match=r"series is constant \(every value is "):
            detect_changepoints(np.full(300, value), DetectConfig(scan_order=scan_order))

    @pytest.mark.parametrize("scan_order", [None, 1], ids=["bic", "order1"])
    @pytest.mark.parametrize(
        "x,energy",
        [
            (1e160 * np.random.default_rng(0).standard_normal(300), "inf"),
            (np.r_[np.full(150, 1.7e308), np.full(150, -1.7e308)], "nan"),
            (np.r_[np.zeros(150), np.full(150, 5e-324)], "0.0"),
            # a positive sum of squares whose mean square is 0: the scan's
            # BIC order would divide by T and find no fit
            (np.r_[np.zeros(1022), 3e-162, -3e-162], "2e-323"),
        ],
        ids=["squares-overflow", "mean-overflows", "squares-underflow", "mean-square-underflows"],
    )
    def test_out_of_range_series_is_a_value_error(self, x, energy, scan_order):
        with pytest.raises(
            ValueError,
            match=rf"series is out of range: its mean-corrected sum of squares is {energy};",
        ):
            detect_changepoints(x, DetectConfig(scan_order=scan_order))

    def test_flat_run_scan_windows_are_reported_degenerate(self):
        # The zero run is constant after mean correction, so at order 1 a half
        # window inside it fits exactly: the 200 scan windows at positions
        # 301-500 (h = 50) are degenerate and scored 0, which the report
        # names first.  Both ends of the run are still found.
        r = np.random.default_rng(0)
        x = np.r_[r.standard_normal(300), np.zeros(200), r.standard_normal(300)]
        report = detect_changepoints(x, DetectConfig(scan_order=1))
        assert report.profile.degenerate == 200
        assert report.diagnostics[0] == "200 scan window(s) had degenerate fits (scored 0)"
        assert report.final_cps == (300, 502)

    def test_model_f_bic_mode(self):
        # Model F is near a unit root with the smallest variance ratios: in
        # BIC mode every tested boundary has df = p1 + p2 - p0 + 1 and a
        # p-value in [0, 1].
        x = simulate_piecewise(builtin_model("F"), 0)
        report = detect_changepoints(x, DetectConfig(order_mode=OrderMode.bic()))
        assert report.final_cps == (74, 245, 375, 732, 833)
        tested = [d for d in report.to_dict()["boundary_tests"] if d["df"] is not None]
        assert tested
        for d in tested:
            p1, p2, p0 = d["orders"]
            assert d["df"] == p1 + p2 - p0 + 1 and 0.0 <= d["p_value"] <= 1.0

    def test_config_validation(self):
        assert DetectConfig().window_radius == 50
        with pytest.raises(ValueError):
            DetectConfig(correction="holm")
        with pytest.raises(ValueError):
            DetectConfig(alpha=1.0)
        with pytest.raises(ValueError):
            DetectConfig(window_radius=0)
        with pytest.raises(ValueError, match="scan order must be nonnegative"):
            DetectConfig(scan_order=-1)
        for bad in ({"window_radius": 2.5}, {"window_radius": 50.0}, {"scan_order": 2.5}):
            with pytest.raises(ValueError, match="must be an integer"):
                DetectConfig(**bad)
        # numpy integers are integers
        assert DetectConfig(window_radius=np.int64(20), scan_order=np.int32(2)).scan_order == 2

    @pytest.mark.parametrize("flag", [False, True])
    def test_bool_radius_or_order_rejected(self, flag):
        # A bool is a numbers.Integral: as an order numpy read it as a mask,
        # and as a radius True ran as h = 1.
        with pytest.raises(ValueError, match=f"^window_radius must be an integer, got {flag}$"):
            DetectConfig(window_radius=flag)
        with pytest.raises(ValueError, match=f"^scan order must be an integer, got {flag}$"):
            DetectConfig(scan_order=flag)

    def test_numpy_integer_config_report_is_json_ready(self):
        x = simulate_piecewise(builtin_model("B"), 0)
        cfg = DetectConfig(window_radius=np.int64(50), scan_order=np.int32(2))
        d = json.loads(json.dumps(detect_changepoints(x, cfg).to_dict()))
        assert d["config"]["window_radius"] == 50
        assert d["config"]["scan_order"] == 2
        assert d == detect_changepoints(x, DetectConfig(scan_order=2)).to_dict()

    @pytest.mark.parametrize("kind", [np.int8, np.int16, np.uint8])
    def test_narrow_numpy_integers_run_as_python_ints(self, kind):
        # Each checked integer is a Python int from its check on: kept as a
        # narrow numpy integer, the radius and the scan order overflowed in
        # the scan's arithmetic, and the replicate count in the bench's groups.
        x = simulate_piecewise(builtin_model("B"), 3)
        for h, order in ((50, None), (100, None), (50, 3)):
            cfg = DetectConfig(window_radius=kind(h), scan_order=order and kind(order))
            assert type(cfg.window_radius) is int and type(cfg.scan_order) is type(order)
            got = detect_changepoints(x, cfg)
            want = detect_changepoints(x, DetectConfig(window_radius=h, scan_order=order))
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
            assert got.profile.values.tobytes() == want.profile.values.tobytes()
        xc = mean_correct(x)
        got = scan_statistics(xc, kind(50), kind(3))
        assert got.values.tobytes() == scan_statistics(xc, 50, 3).values.tobytes()
        got, want = run_model("A:0.4", kind(100), 0), run_model("A:0.4", 100, 0)
        assert got == want and type(got["bh"].replicates) is int

    def test_numpy_order_mode_report_is_json_ready(self):
        x = simulate_piecewise(builtin_model("B"), 0)
        for mode, plain in [
            (OrderMode.fixed(np.float32(1.5)), OrderMode.fixed(1.5)),
            (OrderMode.bic(np.int64(10)), OrderMode.bic(10)),
        ]:
            d = json.loads(json.dumps(detect_changepoints(x, DetectConfig(order_mode=mode)).to_dict()))
            assert d == detect_changepoints(x, DetectConfig(order_mode=plain)).to_dict()
            assert type(mode.exponent) is float and type(mode.max_order) is int

    def test_order_mode_rejects_non_numbers(self):
        with pytest.raises(ValueError, match=r"max_order must be an integer, got 10\.5"):
            OrderMode.bic(10.5)
        with pytest.raises(ValueError, match="exponent must be a real number"):
            OrderMode.fixed("1.5")

    def test_order_mode_rejects_unknown_kind_and_zero_max_order(self):
        with pytest.raises(ValueError, match=r"^unknown order mode 'x'$"):
            OrderMode("x")
        with pytest.raises(ValueError, match=r"^max_order must be >= 1$"):
            OrderMode.bic(0)

    def test_numpy_alpha_report_is_json_ready(self):
        x = simulate_piecewise(builtin_model("B"), 0)
        cfg = DetectConfig(alpha=np.float32(0.05))
        d = json.loads(json.dumps(detect_changepoints(x, cfg).to_dict()))
        assert type(cfg.alpha) is float
        assert d["config"]["alpha"] == d["correction"]["alpha"] == float(np.float32(0.05))

    def test_alpha_must_be_a_real_number(self):
        with pytest.raises(ValueError, match="alpha must be a real number, got '0.05'"):
            DetectConfig(alpha="0.05")

    def test_iterate_must_be_a_bool(self):
        for bad in ("no", 1, None):
            with pytest.raises(ValueError, match=rf"^iterate must be a bool, got {bad!r}$"):
                DetectConfig(iterate=bad)

    def test_numpy_iterate_report_is_json_ready(self):
        x = simulate_piecewise(builtin_model("B"), 0)
        cfg = DetectConfig(iterate=np.bool_(True))
        assert type(cfg.iterate) is bool
        d = json.loads(json.dumps(detect_changepoints(x, cfg).to_dict()))
        assert d == detect_changepoints(x, DetectConfig(iterate=True)).to_dict()
        assert d["config"]["iterate"] is True

    def test_correction_must_be_a_string(self):
        for bad in (["bh"], ("bh",), None):
            with pytest.raises(ValueError, match=r"^correction must be one of \['bh', 'bonferroni'\]"):
                DetectConfig(correction=bad)

    def test_order_mode_must_be_an_order_mode(self):
        with pytest.raises(ValueError, match=r"^order_mode must be an OrderMode, got 'bic'$"):
            DetectConfig(order_mode="bic")

    def test_multidimensional_series_rejected(self):
        # two columns used to be interleaved into one series of length 2048
        b = simulate_piecewise(builtin_model("B"), 0)
        c = simulate_piecewise(builtin_model("C"), 0)
        with pytest.raises(ValueError, match=r"shape \(1024, 2\)"):
            detect_changepoints(np.column_stack([b, c]))


def test_long_series_peak_memory_is_a_few_copies_of_the_series():
    # At 2**18 points the scan reads the series in place, extraction runs in
    # blocks and the segment test centres through one buffer: the peak is
    # about 4.7 copies of the series, and 6.0 when each of the three took
    # a series-length copy of its own.
    regimes = [(ArmaSpec(ar=(0.5 - k % 2,)), 2**15 * (k + 1)) for k in range(8)]
    x = simulate_piecewise(PiecewiseSpec(tuple(regimes)), 101)
    tracemalloc.start()
    try:
        report = detect_changepoints(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.final_cps) >= 7
    assert peak < 5.25 * x.nbytes


@pytest.mark.parametrize("mode", [OrderMode.fixed(), OrderMode.bic()], ids=["fixed", "bic"])
@pytest.mark.parametrize("model,replicate", [("B", 0), ("E", 1), ("G", 2), ("H", 0)])
def test_scale_does_not_change_detection(model, replicate, mode):
    # scan order, candidates, segment orders and final change points are the
    # same whatever the scale of the series
    x = simulate_piecewise(builtin_model(model), replicate_seed(0, replicate))
    cfg = DetectConfig(order_mode=mode)

    def summary(report):
        tests = report.boundary_tests
        return (
            report.profile.order,
            report.candidates.positions,
            [fit_orders(tests, i) if ok else None for i, ok in enumerate(tests.tested.tolist())],
            report.final_cps,
        )

    want = summary(detect_changepoints(x, cfg))
    for c in (1e-100, 1e-10, 1e10, 1e100):
        assert summary(detect_changepoints(c * x, cfg)) == want, c


@pytest.mark.parametrize("mode", [OrderMode.fixed(), OrderMode.bic()], ids=["fixed", "bic"])
@pytest.mark.parametrize("model", ["B", "F"])
def test_level_shift_does_not_change_detection(model, mode):
    # Each segment is mean-corrected, so a level shift is no evidence of a
    # change: adding 1e6 to every value keeps the final change points.
    x = simulate_piecewise(builtin_model(model), 0)
    cfg = DetectConfig(order_mode=mode)
    assert detect_changepoints(x + 1e6, cfg).final_cps == detect_changepoints(x, cfg).final_cps


def test_no_size_constant_changes_a_detect_output(monkeypatch):
    # The chunk, block and float-path sizes tune speed and memory
    # only: under small ones every report is the same, byte for byte.  The
    # T = 65536 series scans in 14 chunks at the default size.  The chunks of
    # models E and F fail the scan's chunk-wide bound; the F series has
    # fallback windows, in residual passes of 5 windows at the small size.
    series = [eight_regime_series()]
    series += [simulate_piecewise(builtin_model(m), seed) for m, seed in (("E", 0), ("F", 2))]
    configs = [DetectConfig(), DetectConfig(order_mode=OrderMode.bic()), DetectConfig(iterate=True)]

    def reports():
        return [detect_changepoints(x, cfg) for x in series for cfg in configs]

    want = reports()
    assert want[-1].profile.fallback > 0
    monkeypatch.setattr(scan, "CHUNK_VALUES", 2**10)
    monkeypatch.setattr(scan, "BLOCK_VALUES", 2**9)
    # The one float-path size, ar.FLOAT_COUNT, as each stage's module binds it.
    monkeypatch.setattr(sdtest, "FLOAT_COUNT", 0)
    monkeypatch.setattr(multtest, "FLOAT_COUNT", 0)
    for got, report in zip(reports(), want):
        # Line by line, so that a failure shows the first line that differs.
        lines = [json.dumps(r.to_dict(), indent=1).splitlines() for r in (got, report)]
        assert lines[0] == lines[1]


class TestAgainstManualComposition:
    def test_final_cps_match_manual_correction(self):
        x = simulate_piecewise(builtin_model("C"), 11)
        report = detect_changepoints(x, DetectConfig(correction="bonferroni"))
        pvals = report.boundary_tests.p_values.tolist()
        outcome = bonferroni_procedure(pvals, 0.05)
        manual = tuple(
            pos
            for pos, rej in zip(report.candidates.positions, outcome.rejected)
            if rej
        )
        assert report.final_cps == manual


def dicts_from_columns(tests):
    """A report's boundary-test dicts, rebuilt here from its columns one
    boundary at a time."""
    b = tests.bounds.tolist()
    return [
        {
            "position": b[i + 1],
            "left": [b[i] + 1, b[i + 1]],
            "right": [b[i + 1] + 1, b[i + 2]],
            "p_value": tests.p_values[i].item(),
            "statistic": tests.statistics[i].item() if tests.tested[i] else None,
            "df": tests.df[i].item() if tests.tested[i] else None,
            "orders": list(fit_orders(tests, i)) if tests.tested[i] else None,
            "warning": tests.warnings.get(i),
        }
        for i in range(len(tests))
    ]


def mid_constant_series():
    # A constant middle stretch whose mean does not round exactly (0.1).
    r = np.random.default_rng(0)
    return np.r_[r.standard_normal(300), np.full(300, 0.1), r.standard_normal(300)]


def two_regime_series():
    # 20,000 points of AR(0.5), then AR(-0.5) from the 10,001st, started at 0
    # with no burn-in.  At h = 200 each scan chunk sums lag products over 2h
    # columns beyond its windows, and the series spans 5 chunks.
    e = np.random.default_rng(1).standard_normal(20000)
    x = np.empty(20000)
    prev = 0.0
    for t in range(20000):
        prev = (0.5 if t < 10000 else -0.5) * prev + e[t]
        x[t] = prev
    return x


def eight_regime_series():
    spec = PiecewiseSpec(tuple(
        (ArmaSpec(ar=(0.5 if k % 2 == 0 else -0.5,)), 8192 * (k + 1)) for k in range(8)
    ))
    return simulate_piecewise(spec, replicate_seed(0, 0))


class TestColumns:
    """Stage 3, the diagnostics and to_dict read the boundary tests' columns;
    the records are built only when something iterates them, and to_dict
    agrees with the columns read one boundary at a time.  The reports of a
    range of series and settings stay within their bounds."""

    CONFIGS = (DetectConfig(), DetectConfig(order_mode=OrderMode.bic()), DetectConfig(iterate=True))

    def test_detect_builds_no_records(self, monkeypatch):
        x = simulate_piecewise(builtin_model("B"), 0)
        want = []
        for cfg in self.CONFIGS:
            report = detect_changepoints(x, cfg)
            want.append((report.final_cps, report.diagnostics, dicts_from_columns(report.boundary_tests)))

        def refuse(*args, **kwargs):
            raise AssertionError("a record was built")

        monkeypatch.setattr(sdtest, "BoundaryTest", refuse)
        monkeypatch.setattr(sdtest, "DiscriminationResult", refuse)
        for cfg, (final_cps, diagnostics, dicts) in zip(self.CONFIGS, want):
            report = detect_changepoints(x, cfg)
            assert report.final_cps == final_cps and final_cps
            assert report.diagnostics == diagnostics
            assert json.dumps(report.to_dict()["boundary_tests"]) == json.dumps(dicts)
            with pytest.raises(AssertionError, match="a record was built"):
                next(iter(report.boundary_tests))

    @pytest.mark.parametrize(
        "series,cfg,flag",
        [
            ("B", DetectConfig(), None),
            ("B", DetectConfig(order_mode=OrderMode.bic()), None),
            ("B", DetectConfig(iterate=True), None),
            ("B", DetectConfig(order_mode=OrderMode.fixed(2.5)), "capped to"),
            # floor((ln T_min) ** 30) passes int64: an order past the cap is the cap.
            ("B", DetectConfig(order_mode=OrderMode.fixed(30)), "capped to"),
            # Each range sum of the scan is of h - p = 2 lag products: one doubling step.
            ("B", DetectConfig(window_radius=3, scan_order=1), None),
            ("mid", DetectConfig(window_radius=20), "breaks down at order 0"),
            ("two", DetectConfig(window_radius=200, scan_order=2), None),
            # Fixed orders run past a hundred, so the chi-square tail adds
            # terms over many steps of its table.
            ("two", DetectConfig(window_radius=200, scan_order=2, order_mode=OrderMode.fixed(3)), None),
            ("8regime", DetectConfig(), None),
        ],
        ids=["B-fixed", "B-bic", "B-iterate", "B-v2.5", "B-v30", "B-h3-order1", "mid-constant",
             "two-h200", "two-h200-v3", "8regime"],
    )
    def test_to_dict_from_columns_equals_the_records(self, series, cfg, flag):
        x = {
            "B": lambda: simulate_piecewise(builtin_model("B"), 0),
            "mid": mid_constant_series,
            "two": two_regime_series,
            "8regime": eight_regime_series,
        }[series]()
        report = detect_changepoints(x, cfg)
        got = report.to_dict()
        tests = report.boundary_tests
        assert json.dumps(got["boundary_tests"]) == json.dumps(dicts_from_columns(tests))
        notes = [
            f"boundary {pos}: {tests.warnings[i]}"
            for i, pos in enumerate(tests.positions.tolist())
            if tests.warnings.get(i)
        ]
        assert [d for d in report.diagnostics if d.startswith("boundary ")] == notes
        if flag:
            assert any(flag in w for w in tests.warnings.values())
        # Every case has candidates, p-values in [0, 1] and fixed orders of at
        # most T_min // 3.
        assert got["candidates"]
        for d in got["boundary_tests"]:
            assert 0.0 <= d["p_value"] <= 1.0
            if d["orders"] and cfg.order_mode.kind == "fixed":
                t_min = min(d["left"][1] - d["left"][0], d["right"][1] - d["right"][0]) + 1
                assert max(d["orders"]) <= t_min // 3

    def test_reports_compare_and_hash_without_raising(self):
        # A profile holds an array, so it compares and hashes by identity:
        # two detects of one series are unequal reports, not a ValueError.
        x = simulate_piecewise(builtin_model("B"), 0)
        a, b = detect_changepoints(x), detect_changepoints(x)
        assert a != b and a == a and dataclasses.replace(a) == a
        assert hash(a.profile) == hash(a.profile) and len({a, b, a}) == 2

    def test_report_replace_keeps_its_boundary_tests(self):
        report = detect_changepoints(simulate_piecewise(builtin_model("B"), 0))
        moved = dataclasses.replace(report, final_cps=report.final_cps[1:])
        assert moved.final_cps == report.final_cps[1:]
        assert moved.boundary_tests is report.boundary_tests
        assert moved.to_dict()["boundary_tests"] == report.to_dict()["boundary_tests"]
        assert moved.to_dict()["final_cps"] == list(report.final_cps[1:])
