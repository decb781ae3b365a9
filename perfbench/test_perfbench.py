"""Tests of the benchmark's own parts: output oracle, span wrappers, metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from arcpd import pipeline, simulate  # noqa: E402


def _arcpd_modules() -> dict:
    return {name: importlib.import_module(f"arcpd.{name}") for name in run.LAYERS}


@pytest.fixture(scope="module")
def model_b():
    x = simulate.simulate_piecewise(simulate.builtin_model("B"), 3)
    return x, pipeline.detect_changepoints(x)


@pytest.fixture
def keep_arcpd_modules():
    """run.run re-imports arcpd; put the original module objects back afterwards."""
    saved = {k: m for k, m in sys.modules.items() if k == "arcpd" or k.startswith("arcpd.")}
    yield
    for k in [k for k in sys.modules if k == "arcpd" or k.startswith("arcpd.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def test_oracle_accepts_a_real_report(model_b):
    x, report = model_b
    result = oracle.check_report(x, report, np.random.default_rng(0), n_positions=20)
    assert result["failures"] == []
    assert result["scan_max_diff"] <= oracle.SCAN_TOL
    assert result["pvalues"] == len(report.boundary_tests)


def test_oracle_rejects_a_perturbed_scan_value(model_b):
    x, report = model_b
    xc = x - x.mean()
    prof = report.profile
    t = prof.offset + 300
    values = prof.values.copy()
    values[t - prof.offset] += 1e-8
    bad = dataclasses.replace(prof, values=values)
    assert oracle.check_scan(xc, prof, [t])[0] == []
    failures, diff = oracle.check_scan(xc, bad, [t])
    assert len(failures) == 1 and diff > oracle.SCAN_TOL


def test_oracle_rejects_a_perturbed_p_value(model_b):
    _, report = model_b
    tests = list(report.boundary_tests)
    tests[0] = dataclasses.replace(tests[0], p_value=tests[0].p_value + 1e-8)
    failures, _ = oracle.check_pvalues(tests)
    assert len(failures) == 1 and str(tests[0].position) in failures[0]


def test_oracle_rejects_wrong_candidates_and_final_points(model_b):
    _, report = model_b
    cands = report.candidates
    extra = dataclasses.replace(cands, positions=tuple(sorted({*cands.positions, cands.positions[0] + 1})))
    assert oracle.check_candidates(report.profile, cands) == []
    assert oracle.check_candidates(report.profile, extra)
    assert report.final_cps, "model B has change points to drop"
    dropped = dataclasses.replace(report, final_cps=report.final_cps[1:])
    assert oracle.check_final(report) == []
    assert oracle.check_final(dropped)


def test_rejections_match_multtest():
    from arcpd.multtest import bh_procedure, bonferroni_procedure

    rng = np.random.default_rng(1)
    for q in (1, 3, 17, 60):
        p = list(rng.uniform(0, 0.02, q) ** rng.uniform(0.5, 2, q))
        assert oracle.rejections(p, "bh", 0.05) == list(bh_procedure(p, 0.05).rejected)
        assert oracle.rejections(p, "bonferroni", 0.05) == list(bonferroni_procedure(p, 0.05).rejected)


def _snapshot(mods) -> dict:
    snap = {(name, attr): id(val) for name, mod in mods.items() for attr, val in vars(mod).items()}
    snap.update({("CORRECTIONS", k): id(v) for k, v in mods["pipeline"].CORRECTIONS.items()})
    return snap


def test_wrappers_record_spans_and_restore_attributes(tmp_path):
    mods = _arcpd_modules()
    before = _snapshot(mods)
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        assert pipeline.scan_statistics is not mods["scan"].scan_statistics
        item = workloads.PaperMc(replicates=2).items(mods, 0)[4]
        workloads.PaperMc(replicates=2).call(mods, item, tracer, str(tmp_path))
    finally:
        tracer.uninstall()
    assert _snapshot(mods) == before
    assert tracer.not_found == []
    names = {sp.name for sp in tracer.spans}
    assert {"bench.run_bench", "bench.run_model", "simulate.simulate_piecewise",
            "pipeline.detect_changepoints", "scan.scan_statistics", "ar.bic_select_order",
            "sdtest.discrimination_test", "multtest.bh_procedure"} <= names
    by_id = {sp.id: sp for sp in tracer.spans}
    for sp in tracer.spans:
        if sp.name == "simulate.simulate_piecewise":
            assert by_id[sp.parent].name == "bench.run_model"
    total = sum(spans.self_times(tracer.spans).values())
    roots = sum(sp.end - sp.start for sp in tracer.spans if sp.parent is None)
    assert total == pytest.approx(roots, rel=1e-9)


def test_paper_mc_writes_one_table_per_pass_and_checks_it(tmp_path):
    mods = _arcpd_modules()
    workload = workloads.PaperMc(replicates=1)
    items = workload.items(mods, 0)
    calls, writes = run.timed_loop(workload, mods, items, 0.0, str(tmp_path))
    assert len(calls) == len(items) and len(writes) == 1
    assert all(c.error is None and c.ref > 0 for c in calls + writes)
    outputs, paths = writes[0].output
    assert workload.check_written(outputs, paths) == []
    rates = Path(paths[0])
    lines = rates.read_text().splitlines()
    rates.write_text("\n".join(lines[:-1]) + "\n")
    assert workload.check_written(outputs, paths)


def test_missing_targets_are_reported_not_fatal():
    mods = _arcpd_modules()
    before = _snapshot(mods)
    tracer = spans.Tracer()
    tracer.install(mods, targets=spans.TARGETS + (
        ("pipeline", "no_such_function", None, "x"),
        ("pipeline", "CORRECTIONS", "no_such_key", "y"),
        ("no_such_module", "f", None, "z"),
    ))
    tracer.uninstall()
    assert tracer.not_found == ["pipeline.no_such_function", "pipeline.CORRECTIONS['no_such_key']",
                                "no_such_module.f"]
    assert _snapshot(mods) == before


def test_self_times_split_overlapping_threads():
    tree = [
        spans.Span(0, None, "root", 1, 0, 0, 100),
        spans.Span(1, 0, "a", 1, 0, 10, 40),
        spans.Span(2, 0, "b", 2, 0, 20, 60),
        spans.Span(3, 1, "c", 1, 0, 15, 25),
    ]
    assert spans.self_times(tree) == {0: 50.0, 1: 12.5, 2: 30.0, 3: 7.5}


def test_metric_names_match_benchmark_json(tmp_path, keep_arcpd_modules):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        result = run.run(workloads.PaperBic(replicates=1), 0, 0.0, trace, tmp_path)
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_bic", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
