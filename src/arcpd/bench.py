"""Detection-rate benchmark over the built-in models.

For each model, R seeded replicates are simulated and detected once, which
keeps the change points of ``cfg.correction``; the report's boundary test
columns then go through the pipeline's stage 3,
:func:`arcpd.pipeline.keep_changepoints` (``cfg.iterate`` honoured), with
the other correction of :data:`arcpd.pipeline.CORRECTIONS`, giving one
BenchResult per (model, correction).
The exact detection rate is the fraction of replicates whose estimated
change-point count equals the truth.  Estimated locations are recorded
for every replicate regardless of correctness.

Replicates use independent derived streams (master seed, replicate index).
They are simulated in groups of at most ``GROUP_VALUES`` padded samples, one
:func:`arcpd.simulate.simulate_piecewise` call per group (each row is its
seed's series alone), then detected one by one in replicate order, so
outputs are byte-identical for identical inputs whatever the grouping.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

from .ar import check_integer, mean_correct

# Not called here: kept as module attributes so that perfbench/spans.py TARGETS can wrap them.
from .multtest import bh_procedure, bonferroni_procedure  # noqa: F401
from .pipeline import CORRECTIONS, DetectConfig, detect_changepoints, keep_changepoints
from .simulate import BURN_IN, builtin_model, replicate_seed, simulate_piecewise
from .svgplot import locations_plot

__all__ = ["BenchResult", "run_model", "run_bench", "write_bench_outputs", "METHOD_LABELS"]

METHOD_LABELS = {"bh": "MCP2-BH", "bonferroni": "MCP2-BONF"}

# Samples (burn-in included) simulated per group: 85 replicates at T = 1024,
# so R = 40 is one group and --replicates 10000 stays within a few MB.
GROUP_VALUES = 2**17


@dataclass(frozen=True)
class BenchResult:
    """One method's change point locations over a model's replicates."""

    model: str
    method: str
    replicates: int
    locations: tuple[tuple[int, ...], ...]  # per replicate, estimated positions
    true_cps: tuple[int, ...]
    series_length: int

    @property
    def correct_flags(self) -> tuple[bool, ...]:
        want = len(self.true_cps)
        return tuple(len(locs) == want for locs in self.locations)

    @property
    def exact_detection_rate(self) -> float:
        return sum(self.correct_flags) / self.replicates


def _replicate_groups(replicates: int, padded_length: int) -> list[range]:
    """Replicate indices in groups of at most GROUP_VALUES // padded_length
    (at least one), as even as that allows."""
    count = -(-replicates // max(1, GROUP_VALUES // padded_length))
    return [range(g * replicates // count, (g + 1) * replicates // count) for g in range(count)]


def _kept_changepoints(x, cfg: DetectConfig):
    report = detect_changepoints(x, cfg)
    # Stage 3 reads the mean-corrected series only to re-test (cfg.iterate).
    xc = mean_correct(x) if cfg.iterate else None
    # Detect has already kept the change points of cfg.correction.
    return {
        method: report.final_cps
        if method == cfg.correction
        else keep_changepoints(xc, report.boundary_tests, cfg, correct)[1]
        for method, correct in CORRECTIONS.items()
    }


def run_model(
    model: str, replicates: int, seed: int, cfg: DetectConfig | None = None
) -> dict[str, BenchResult]:
    """Benchmark one model; returns {'bh': BenchResult, 'bonferroni': BenchResult},
    one per correction of pipeline.CORRECTIONS."""
    replicates = check_integer("replicates", replicates)
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if cfg is None:
        cfg = DetectConfig()
    spec = builtin_model(model)
    per_rep = []
    for group in _replicate_groups(replicates, BURN_IN + spec.total_length):
        seeds = [replicate_seed(seed, rep) for rep in group]
        per_rep.extend(_kept_changepoints(x, cfg) for x in simulate_piecewise(spec, seeds))
    return {
        method: BenchResult(
            model=model,
            method=METHOD_LABELS[method],
            replicates=replicates,
            locations=tuple(r[method] for r in per_rep),
            true_cps=spec.true_cps,
            series_length=spec.total_length,
        )
        for method in CORRECTIONS
    }


def run_bench(
    models: list[str], replicates: int, seed: int, cfg: DetectConfig | None = None
) -> list[BenchResult]:
    """Benchmark several models; rows ordered (model, then BH before Bonferroni)."""
    rows: list[BenchResult] = []
    for model in models:
        rows.extend(run_model(model, replicates, seed, cfg).values())
    return rows


def _safe_name(model: str) -> str:
    return model.replace(":", "_")


def write_bench_outputs(rows: list[BenchResult], out_dir: str) -> list[str]:
    """Write rates.csv, locations.csv and per-model location SVGs; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    tables = {
        "rates.csv": (
            ["model", "method", "replicates", "exact_detection_rate"],
            ([r.model, r.method, r.replicates, f"{r.exact_detection_rate:.4f}"] for r in rows),
        ),
        "locations.csv": (
            ["model", "method", "replicate", "position"],
            ([r.model, r.method, rep, pos]
             for r in rows for rep, locs in enumerate(r.locations) for pos in locs),
        ),
    }
    paths = []
    for name, (header, body) in tables.items():
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(body)
        paths.append(path)
    by_model: dict[str, list[BenchResult]] = {}
    for r in rows:
        by_model.setdefault(r.model, []).append(r)
    for model, model_rows in by_model.items():
        panels = {
            r.method: [
                (rep, list(locs))
                for rep, (locs, ok) in enumerate(zip(r.locations, r.correct_flags))
                if ok
            ]
            for r in model_rows
        }
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
