"""Detection-rate benchmark over the built-in models.

For each model, R seeded replicates are simulated and detected once; the
two corrections (BH and Bonferroni) are then applied to the same
per-boundary p-values, giving one BenchResult per (model, correction).
The exact detection rate is the fraction of replicates whose estimated
change-point count equals the truth.  Estimated locations are recorded
for every replicate regardless of correctness.

Replicates use independent derived streams (master seed, replicate index)
and run one after the other, so outputs are byte-identical for identical
inputs.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

from .multtest import bh_procedure, bonferroni_procedure
from .pipeline import DetectConfig, detect_changepoints
from .simulate import PiecewiseSpec, builtin_model, replicate_seed, simulate_piecewise
from .svgplot import locations_plot

__all__ = ["BenchResult", "run_model", "run_bench", "write_bench_outputs", "METHOD_LABELS"]

METHOD_LABELS = {"bh": "MCP2-BH", "bonferroni": "MCP2-BONF"}


@dataclass(frozen=True)
class BenchResult:
    model: str
    method: str
    replicates: int
    exact_detection_rate: float
    locations: tuple[tuple[int, ...], ...]  # per replicate, estimated positions
    true_cps: tuple[int, ...]
    series_length: int

    @property
    def correct_flags(self) -> tuple[bool, ...]:
        want = len(self.true_cps)
        return tuple(len(locs) == want for locs in self.locations)


def _one_replicate(spec: PiecewiseSpec, seed: int, rep: int, cfg: DetectConfig):
    x = simulate_piecewise(spec, replicate_seed(seed, rep))
    report = detect_changepoints(x, cfg)
    pvals = [bt.p_value for bt in report.boundary_tests]
    out = {}
    for method, proc in (("bh", bh_procedure), ("bonferroni", bonferroni_procedure)):
        outcome = proc(pvals, cfg.alpha)
        out[method] = tuple(
            pos
            for pos, rej in zip(report.candidates.positions, outcome.rejected)
            if rej
        )
    return out


def run_model(
    model: str, replicates: int, seed: int, cfg: DetectConfig | None = None
) -> dict[str, BenchResult]:
    """Benchmark one model; returns {'bh': BenchResult, 'bonferroni': BenchResult}."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if cfg is None:
        cfg = DetectConfig()
    spec = builtin_model(model)
    per_rep = [_one_replicate(spec, seed, rep, cfg) for rep in range(replicates)]
    results = {}
    want = len(spec.true_cps)
    for method in ("bh", "bonferroni"):
        locations = tuple(r[method] for r in per_rep)
        correct = sum(len(locs) == want for locs in locations)
        results[method] = BenchResult(
            model=model,
            method=METHOD_LABELS[method],
            replicates=replicates,
            exact_detection_rate=correct / replicates,
            locations=locations,
            true_cps=spec.true_cps,
            series_length=spec.total_length,
        )
    return results


def run_bench(
    models: list[str], replicates: int, seed: int, cfg: DetectConfig | None = None
) -> list[BenchResult]:
    """Benchmark several models; rows ordered (model, then BH before Bonferroni)."""
    rows: list[BenchResult] = []
    for model in models:
        per_method = run_model(model, replicates, seed, cfg)
        rows.append(per_method["bh"])
        rows.append(per_method["bonferroni"])
    return rows


def rates_csv(rows: list[BenchResult]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["model", "method", "replicates", "exact_detection_rate"])
    for r in rows:
        w.writerow([r.model, r.method, r.replicates, f"{r.exact_detection_rate:.4f}"])
    return buf.getvalue()


def locations_csv(rows: list[BenchResult]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["model", "method", "replicate", "position"])
    for r in rows:
        for rep, locs in enumerate(r.locations):
            for pos in locs:
                w.writerow([r.model, r.method, rep, pos])
    return buf.getvalue()


def _safe_name(model: str) -> str:
    return model.replace(":", "_")


def write_bench_outputs(rows: list[BenchResult], out_dir: str) -> list[str]:
    """Write rates.csv, locations.csv and per-model location SVGs; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, text in (("rates.csv", rates_csv(rows)), ("locations.csv", locations_csv(rows))):
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        paths.append(path)
    by_model: dict[str, list[BenchResult]] = {}
    for r in rows:
        by_model.setdefault(r.model, []).append(r)
    for model, model_rows in by_model.items():
        panels = {}
        for r in model_rows:
            want = len(r.true_cps)
            panels[r.method] = [
                (rep, list(locs))
                for rep, locs in enumerate(r.locations)
                if len(locs) == want
            ]
        svg = locations_plot(
            model_label=f"model {model}",
            series_length=model_rows[0].series_length,
            true_cps=model_rows[0].true_cps,
            method_locations=panels,
        )
        path = os.path.join(out_dir, f"locations_{_safe_name(model)}.svg")
        with open(path, "w", newline="") as fh:
            fh.write(svg)
        paths.append(path)
    return paths
