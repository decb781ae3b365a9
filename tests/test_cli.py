import csv
import filecmp
import json
import runpy
import sys
import tracemalloc
import types
from xml.etree import ElementTree

import numpy as np
import pytest

from arcpd import bench, pipeline
from arcpd.cli import InputError, main, read_series_csv
from arcpd.pipeline import DetectConfig, detect_changepoints
from arcpd.sdtest import OrderMode
from arcpd.simulate import (
    BURN_IN,
    builtin_model,
    builtin_model_names,
    replicate_seed,
    simulate_piecewise,
)


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        for row in rows:
            w.writerow(row)


@pytest.fixture
def noise_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "series.csv"
    # repr(float(v)), not repr(v): under numpy 2 the repr of an np.float64
    # is "np.float64(...)", which is not a number the reader accepts.
    write_csv(path, [["x"]] + [[repr(float(v))] for v in rng.standard_normal(1024)])
    return str(path)


class TestReadSeriesCsv:
    def test_headerless_single_column(self, tmp_path):
        path = tmp_path / "plain.csv"
        write_csv(path, [[1.5], [2.5], [-3.0]])
        assert read_series_csv(str(path)) == [1.5, 2.5, -3.0]

    def test_header_detected(self, tmp_path):
        path = tmp_path / "h.csv"
        write_csv(path, [["x"], [1.0], [2.0]])
        assert read_series_csv(str(path)) == [1.0, 2.0]

    def test_column_by_name(self, tmp_path):
        path = tmp_path / "two.csv"
        write_csv(path, [["t", "value"], [0, 1.5], [1, 2.5]])
        assert read_series_csv(str(path), "value") == [1.5, 2.5]

    def test_column_by_index(self, tmp_path):
        path = tmp_path / "two.csv"
        write_csv(path, [[0, 1.5], [1, 2.5]])
        assert read_series_csv(str(path), "1") == [1.5, 2.5]

    def test_multicolumn_needs_column(self, tmp_path):
        path = tmp_path / "two.csv"
        write_csv(path, [[0, 1.5], [1, 2.5]])
        with pytest.raises(InputError, match="--column"):
            read_series_csv(str(path))

    def test_non_numeric_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, [["x"], [1.0], ["oops"], [2.0]])
        with pytest.raises(InputError, match="line 3"):
            read_series_csv(str(path))

    def test_missing_file(self):
        with pytest.raises(InputError):
            read_series_csv("/nonexistent/nope.csv")

    def test_numpy_scalar_repr_rejected(self, tmp_path, capsys):
        # numpy 2 scalar reprs are not decimal numbers: rejected, not parsed
        path = tmp_path / "np.csv"
        write_csv(path, [["x"], [1.0], ["np.float64(0.5)"], [2.0]])
        with pytest.raises(InputError, match=r"line 3: not a number: 'np\.float64\(0\.5\)'"):
            read_series_csv(str(path))
        assert main(["detect", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,column,message",
        [
            ("", None, "no data rows"),
            ("\n\n\n", None, "no data rows"),
            ("a,b\n1,2\n3\n", "0", "line 3: inconsistent number of columns"),
            ("a,b\n1,2\n", "c", "no column named 'c' in header ['a', 'b']"),
            ("a,b\n1,2\n", "5", "column index 5 out of range (width 2)"),
            ("x\n", None, "no numeric rows"),
        ],
    )
    def test_bad_file_names_its_fault_and_exits_2(self, tmp_path, capsys, text, column, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputError) as exc:
            read_series_csv(str(path), column)
        assert str(exc.value) == f"{path}: {message}"
        flags = [] if column is None else ["--column", column]
        assert main(["detect", str(path), *flags]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark.  It is
        # not part of the first cell: a headerless first value stays data,
        # and the first header name matches --column.
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
        assert read_series_csv(str(plain)) == [1.5, 2.5, 3.5]
        named = tmp_path / "named.csv"
        named.write_bytes(b"\xef\xbb\xbfx,y\n1.0,2.0\n3.0,4.0\n")
        assert read_series_csv(str(named), "x") == [1.0, 3.0]

    @pytest.mark.parametrize(
        "data,line,byte",
        [
            (b"x\n1.0\n0.5\xff\n2.0\n", 3, "0xff"),
            (b"\xef\xbb\xbfx\r\n1.0\r\n2.0\r\n\xc3(\r\n", 4, "0xc3"),
            (b"\xe9\n1.0\n", 1, "0xe9"),
            (b"1.0\n2.0\n3.0\xe2\x82", 3, "0xe2"),  # cut off at the end
        ],
    )
    def test_bytes_that_are_not_utf8_name_their_line_and_exit_2(
        self, tmp_path, capsys, data, line, byte
    ):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        message = f"{path}: line {line}: not UTF-8 text (byte {byte})"
        with pytest.raises(InputError) as exc:
            read_series_csv(str(path))
        assert str(exc.value) == message
        assert main(["detect", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_noise_fixture_round_trips_exactly(self, noise_csv):
        expected = np.random.default_rng(0).standard_normal(1024)
        got = np.array(read_series_csv(noise_csv))
        assert got.dtype == expected.dtype
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestDetectCommand:
    def test_detect_json_contract(self, noise_csv, capsys):
        assert main(["detect", noise_csv]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert {"candidates", "boundary_tests", "final_cps"} <= set(report)

    def test_detect_out_and_plot(self, tmp_path):
        # The series is one polyline, with a crimson line per final change
        # point.  The title is the CSV path, escaped: markup in the file name
        # leaves the SVG well-formed.
        series = tmp_path / "a&b<c.csv"
        assert main(["simulate", "--model", "B", "--seed", "0", "-o", str(series)]) == 0
        out, plot = tmp_path / "report.json", tmp_path / "series.svg"
        assert main(["detect", str(series), "--out", str(out), "--plot", str(plot)]) == 0
        report = json.loads(out.read_text())
        assert report["series_length"] == 1024
        svg = plot.read_text()
        assert svg.startswith("<svg") and "</svg>" in svg
        assert svg.count("<polyline") == 1
        assert svg.count("crimson") == len(report["final_cps"]) > 0
        title = next(ElementTree.parse(plot).iter("{http://www.w3.org/2000/svg}text"))
        assert title.text == str(series)

    def test_too_short_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        write_csv(path, [["x"]] + [[float(i)] for i in range(20)])
        assert main(["detect", str(path)]) == 1
        assert "series too short" in capsys.readouterr().err

    def test_three_points_is_exit_1_with_one_prefix(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        write_csv(path, [["x"], [0.1], [-0.4], [0.3]])
        assert main(["detect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("series too short") == 1
        assert "length 3 < 2h = 100" in err

    def test_malformed_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        write_csv(path, [["x"], [1.0], ["zzz"]])
        assert main(["detect", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_underdetermined_scan_window_is_exit_2(self, noise_csv, capsys):
        # h = 15 leaves a half window 5 targets for 10 coefficients
        assert main(["detect", noise_csv, "--window", "15", "--scan-order", "10"]) == 2
        assert "window_radius must be at least 2 * scan order + 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--scan-order", "1"]], ids=["bic", "order1"])
    def test_constant_series_is_exit_2(self, tmp_path, capsys, flags):
        path = tmp_path / "flat.csv"
        write_csv(path, [["x"]] + [[1.5]] * 300)
        assert main(["detect", str(path), *flags]) == 2
        assert "error: series is constant (every value is 1.5)" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--scan-order", "1"]], ids=["bic", "order1"])
    def test_overflowing_series_is_exit_2(self, tmp_path, capsys, flags):
        path = tmp_path / "huge.csv"
        values = 1e160 * np.random.default_rng(0).standard_normal(300)
        write_csv(path, [["x"]] + [[repr(float(v))] for v in values])
        assert main(["detect", str(path), *flags]) == 2
        assert "mean-corrected sum of squares is inf" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--scan-order", "1"]], ids=["bic", "order1"])
    def test_underflowing_mean_square_is_exit_2(self, tmp_path, capsys, flags):
        path = tmp_path / "tiny.csv"
        values = [0.0] * 1022 + [3e-162, -3e-162]
        write_csv(path, [["x"]] + [[repr(v)] for v in values])
        assert main(["detect", str(path), *flags]) == 2
        assert "error: series is out of range" in capsys.readouterr().err

    def test_infinite_exponent_is_exit_2_without_out(self, noise_csv, tmp_path, capsys):
        # The report would hold "fixed_order_exponent": Infinity, which is not JSON.
        out = tmp_path / "r.json"
        assert main(["detect", noise_csv, "--v", "inf", "--out", str(out)]) == 2
        assert "error: fixed-order exponent must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_are_wired_through(self, noise_csv, capsys):
        code = main(
            ["detect", noise_csv, "-w", "60", "--order-mode", "bic",
             "--max-order", "4", "--correction", "bonferroni", "--alpha", "0.01"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["window_radius"] == 60
        assert report["config"]["order_mode"] == "bic"
        assert report["config"]["correction"] == "bonferroni"
        assert report["config"]["alpha"] == 0.01


@pytest.fixture
def blocked_dir(tmp_path):
    """A regular file: any path below it cannot be written, even by root."""
    path = tmp_path / "blocker"
    path.write_text("")
    return path


class TestUnwritableOutput:
    """An output path that cannot be written is exit code 2, not a traceback."""

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    def test_detect(self, noise_csv, blocked_dir, capsys, flag):
        target = str(blocked_dir / "report")
        assert main(["detect", noise_csv, flag, target]) == 2
        assert f"error: cannot write {target}: " in capsys.readouterr().err

    def test_simulate(self, blocked_dir, capsys):
        target = str(blocked_dir / "b.csv")
        assert main(["simulate", "--model", "B", "-o", target]) == 2
        assert f"error: cannot write {target}: " in capsys.readouterr().err

    def test_bench(self, blocked_dir, capsys, monkeypatch):
        # the output directory is checked before any replicate runs
        def no_run(*args):
            raise AssertionError("run_bench called before --out was checked")

        monkeypatch.setattr("arcpd.cli.run_bench", no_run)
        target = str(blocked_dir / "bench")
        code = main(["bench", "--model", "I", "--replicates", "2", "--out", target])
        assert code == 2
        assert f"error: cannot write {target}: " in capsys.readouterr().err


def test_module_runs_as_a_script(monkeypatch, capsys):
    # python -m arcpd.cli exits with the code of main().  arcpd.cli leaves
    # sys.modules first, or runpy warns that it was imported already.
    monkeypatch.delitem(sys.modules, "arcpd.cli")
    monkeypatch.setattr(sys, "argv", ["arcpd", "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("arcpd.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: arcpd")


class TestSimulateCommand:
    def test_simulate_b(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["simulate", "--model", "B", "--seed", "3", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x"
        assert len(lines) == 1 + 1024
        sidecar = json.loads((tmp_path / "b.csv.json").read_text())
        assert sidecar["true_cps"] == [512, 768]

    def test_simulate_negative_seed_exit_2_without_out(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = main(["simulate", "--model", "B", "--seed", "-1", "-o", str(out)])
        assert code == 2
        assert "--seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "b.csv.json").exists()

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--model", "G", "--seed", "9", "-o", str(a)])
        main(["simulate", "--model", "G", "--seed", "9", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_model_is_exit_2(self, tmp_path, capsys):
        code = main(["simulate", "--model", "Z", "-o", str(tmp_path / "z.csv")])
        assert code == 2
        assert "unknown model" in capsys.readouterr().err

    def test_round_trip_every_model(self, tmp_path):
        for i, name in enumerate(builtin_model_names()):
            out = tmp_path / f"m{i}.csv"
            assert main(["simulate", "--model", name, "--seed", "1", "-o", str(out)]) == 0
            assert main(["detect", str(out), "--out", str(tmp_path / f"m{i}.json")]) == 0


class TestBenchCommand:
    def test_bench_smoke(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(
            ["bench", "--model", "I", "--replicates", "5", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        rates = (out / "rates.csv").read_text().splitlines()
        assert rates[0] == "model,method,replicates,exact_detection_rate"
        assert len(rates) == 3  # header + BH + BONF
        assert (out / "locations.csv").exists()
        assert (out / "locations_I.svg").exists()

    def test_bench_locations_bookkeeping(self, tmp_path):
        out = tmp_path / "bench"
        main(["bench", "--model", "D", "--replicates", "4", "--seed", "2",
              "--out", str(out)])
        with open(out / "locations.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # one row per estimated change point per (method, replicate)
        for method in ("MCP2-BH", "MCP2-BONF"):
            per_rep = {}
            for row in rows:
                if row["method"] == method:
                    per_rep.setdefault(int(row["replicate"]), []).append(row["position"])
            assert set(per_rep) <= set(range(4))

    def test_bench_unknown_model_is_exit_2(self, tmp_path, capsys):
        code = main(["bench", "--model", "Q", "--replicates", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_bench_bad_settings_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_run(*args):
            raise AssertionError("run_bench called with invalid settings")

        monkeypatch.setattr("arcpd.cli.run_bench", no_run)
        out = tmp_path / "d"
        code = main(["bench", "--model", "B", "--replicates", "1", "--window", "15",
                     "--scan-order", "10", "--out", str(out)])
        assert code == 2
        assert "window_radius must be at least 2 * scan order + 1" in capsys.readouterr().err
        assert not out.exists()

    def test_run_model_needs_a_replicate(self):
        with pytest.raises(ValueError, match=r"^replicates must be >= 1$"):
            bench.run_model("B", 0, 0)

    @pytest.mark.parametrize("replicates", [True, 2.0])
    def test_run_model_replicates_must_be_an_integer(self, replicates):
        # True ran as one replicate and reached rates.csv as "True"; 2.0
        # failed inside range().
        with pytest.raises(ValueError, match=f"^replicates must be an integer, got {replicates}$"):
            bench.run_model("B", replicates, 0)

    def test_bench_infinite_exponent_exit_2_without_out(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(["bench", "--model", "B", "--replicates", "2", "--v", "inf", "--out", str(out)])
        assert code == 2
        assert "fixed-order exponent must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_zero_replicates_exit_2_without_out(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(["bench", "--model", "B", "--replicates", "0", "--out", str(out)])
        assert code == 2
        assert "replicates must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("names", [[","], ["  "], [" , ", ","]], ids=["comma", "blank", "two"])
    def test_bench_without_a_model_name_exit_2_without_out(self, tmp_path, capsys, names):
        out = tmp_path / "d"
        flags = [arg for name in names for arg in ("--model", name)]
        code = main(["bench", *flags, "--replicates", "1", "--out", str(out)])
        assert code == 2
        assert "--model must name at least one model" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "names,message",
        [
            (["B,B"], "'B' twice"),
            (["B", "C", "B"], "'B' twice"),
            (["B,b"], "'B' twice (again as 'b')"),
            (["A:0.4", "A:0.40"], "'A:0.4' twice (again as 'A:0.40')"),
        ],
        ids=["comma", "flags", "case", "model-a"],
    )
    def test_bench_repeated_model_exit_2_without_out(self, tmp_path, capsys, names, message):
        # Two names of one model would write its rows twice and its SVG over itself.
        out = tmp_path / "d"
        flags = [arg for name in names for arg in ("--model", name)]
        code = main(["bench", *flags, "--replicates", "1", "--out", str(out)])
        assert code == 2
        assert f"--model selects model {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_negative_seed_exit_2_without_out(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(["bench", "--model", "B", "--replicates", "1", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "--seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["bench", "--model", "I", "--replicates", "8", "--seed", "4"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("rates.csv", "locations.csv", "locations_I.svg"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False)

    def test_model_a_comma_list(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--model", "A:0.4,A:0.7", "--replicates", "2",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        text = (out / "rates.csv").read_text()
        assert "A:0.4" in text and "A:0.7" in text

    def test_bench_iterate_keeps_the_detect_change_points(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "--model", "G", "--replicates", "2", "--seed", "0",
                     "--iterate", "--out", str(out)]) == 0
        with open(out / "locations.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for correction, method in (("bh", "MCP2-BH"), ("bonferroni", "MCP2-BONF")):
            cfg = DetectConfig(correction=correction, iterate=True)
            for rep in range(2):
                x = simulate_piecewise(builtin_model("G"), replicate_seed(0, rep))
                got = tuple(int(r["position"]) for r in rows
                            if r["method"] == method and r["replicate"] == str(rep))
                assert got == detect_changepoints(x, cfg).final_cps
        # One pass keeps 214 too (133, 214, 532, 703); re-testing drops it.
        assert [r["position"] for r in rows if r["method"] == "MCP2-BH"
                and r["replicate"] == "0"] == ["133", "532", "703"]

    @pytest.mark.parametrize("iterate", [False, True], ids=["one_pass", "iterate"])
    @pytest.mark.parametrize("correction", ["bh", "bonferroni"])
    def test_bench_reuses_the_detect_correction(self, monkeypatch, correction, iterate):
        # Detect has kept cfg.correction's change points; bench runs only the
        # other correction, through pipeline.CORRECTIONS.  Bench reads that
        # very dict, whose entries perfbench/spans.py wraps in place.
        assert bench.CORRECTIONS is pipeline.CORRECTIONS
        calls = {"bh": 0, "bonferroni": 0}
        counted_corrections = {}
        for method in calls:
            real = bench.CORRECTIONS[method]

            def counted(pvals, alpha, real=real, method=method):
                calls[method] += 1
                return real(pvals, alpha)

            counted_corrections[method] = counted
        # Bench's name only: detect keeps calling the real corrections.
        monkeypatch.setattr(bench, "CORRECTIONS", counted_corrections)
        cfg = DetectConfig(correction=correction, iterate=iterate)
        results = bench.run_model("G", 3, 0, cfg)
        other = "bonferroni" if correction == "bh" else "bh"
        assert calls[correction] == 0
        assert calls[other] >= 3 if iterate else calls[other] == 3
        for method in calls:
            for rep in range(3):
                x = simulate_piecewise(builtin_model("G"), replicate_seed(0, rep))
                want = detect_changepoints(x, DetectConfig(correction=method, iterate=iterate))
                assert results[method].locations[rep] == want.final_cps

    @pytest.mark.parametrize(
        "cfg",
        [DetectConfig(), DetectConfig(order_mode=OrderMode.bic()), DetectConfig(iterate=True)],
        ids=["fixed", "bic", "iterate"],
    )
    def test_bench_results_do_not_depend_on_the_grouping(self, monkeypatch, cfg):
        # Model G pads to BURN_IN + 1024 samples, so a budget of k such series
        # caps a group at k replicates; groups are then as even as k allows.
        padded = BURN_IN + builtin_model("G").total_length
        sizes = []

        def counted(spec, seeds):
            sizes.append(len(seeds))
            return simulate_piecewise(spec, seeds)

        monkeypatch.setattr(bench, "simulate_piecewise", counted)
        results = {}
        for cap, want in ((1, [1] * 7), (2, [1, 2, 2, 2]), (3, [2, 2, 3]), (None, [7])):
            sizes.clear()
            with monkeypatch.context() as m:
                if cap is not None:
                    m.setattr(bench, "GROUP_VALUES", cap * padded)
                results[cap] = bench.run_model("G", 7, 0, cfg)
            assert sizes == want
        assert results[1] == results[2] == results[3] == results[None]
        for rep in (0, 6):
            x = simulate_piecewise(builtin_model("G"), replicate_seed(0, rep))
            want = detect_changepoints(x, cfg).final_cps
            assert results[None][cfg.correction].locations[rep] == want

    def test_bench_simulation_memory_is_bounded_by_the_group_budget(self, monkeypatch):
        # With detection stubbed out, 400 replicates of model B run as 5 groups
        # of 80, and the peak stays within a few copies of one group: about
        # 3.1 GROUP_VALUES doubles, against 13.2 for 400 in one group.
        report = types.SimpleNamespace(final_cps=(), boundary_tests=())
        monkeypatch.setattr(bench, "detect_changepoints", lambda x, cfg: report)
        monkeypatch.setattr(bench, "keep_changepoints", lambda *args: (None, ()))
        bench.run_model("B", 1, 0)  # one-time allocations stay out of the peak
        tracemalloc.start()
        try:
            results = bench.run_model("B", 400, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert results["bh"].locations == ((),) * 400
        assert peak < 4 * bench.GROUP_VALUES * 8

    def test_bench_has_no_correction_flag(self, tmp_path, capsys):
        out = tmp_path / "d"
        # argparse exits with code 2 itself.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--model", "B", "--replicates", "1", "--correction", "bh",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --correction bh" in capsys.readouterr().err
        assert not out.exists()
