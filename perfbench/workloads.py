"""The benchmark's workloads: seeded inputs, the timed call, counters and checks.

Every workload turns `--seed` into a fixed pool of items during set-up.  The
timed loop calls the items in order, one at a time (a closed loop from one
client), makes at least one whole pass and goes round the pool again until
the run time is used up.  A workload with a `write` step runs it after every
whole pass.  The first pass over the pool gives the counters and detection
rates; later passes must reproduce the first pass exactly.

`mods` is a dict of the imported arcpd modules by short name.
"""

from __future__ import annotations

import csv
import hashlib
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

import oracle

# The default model set of `arcpd bench`.
PAPER_MODELS = ("A:-0.7", "A:-0.1", "A:0.4", "A:0.7", "B", "C", "D", "E", "F", "G", "H", "I")


@dataclass(frozen=True)
class Item:
    label: str
    true_cps: tuple[int, ...]
    x: np.ndarray | None = None  # the series, for workloads that call detect directly
    seed: int | None = None  # master seed of a run_bench call


def _derived_seeds(seed: int, tag: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(count)]


def _report_digest(report) -> str:
    h = hashlib.sha256()
    h.update(repr(report.candidates.positions).encode())
    h.update(np.asarray(report.profile.values).tobytes())
    h.update(repr([bt.p_value for bt in report.boundary_tests]).encode())
    h.update(repr(report.final_cps).encode())
    return h.hexdigest()


class DetectWorkload:
    """Series simulated in set-up; each call is one `detect_changepoints`."""

    name = ""
    series_per_call = 1
    ref_workers = 1  # threads of the reference kernel, as many as the workload runs on
    write = None  # no per-pass output step

    def config(self, mods):
        return mods["pipeline"].DetectConfig()

    def items(self, mods, seed: int) -> list[Item]:
        raise NotImplementedError

    def warm_up(self, mods, items, out_dir: str):
        self.call(mods, items[0], None, out_dir)

    def call(self, mods, item: Item, tracer, out_dir: str):
        detect = mods["pipeline"].detect_changepoints
        cfg = self.config(mods)
        if tracer is None:
            return detect(item.x, cfg)
        return tracer.call("pipeline.detect_changepoints", detect, item.x, cfg, root=True)

    def summary(self, item: Item, report) -> dict:
        want = len(item.true_cps)
        pvals = [bt.p_value for bt in report.boundary_tests]
        n_bonf = sum(oracle.rejections(pvals, "bonferroni", report.config.alpha))
        return {
            "digest": _report_digest(report),
            "windows": len(report.profile.values),
            "degenerate": report.profile.degenerate,
            "candidates": len(report.candidates),
            "untestable": sum(bt.result is None for bt in report.boundary_tests),
            "final_cps": len(report.final_cps),
            "exact_bh": int(len(report.final_cps) == want),
            "exact_bonf": int(n_bonf == want),
        }

    def check(self, mods, item: Item, report, rng) -> dict:
        return oracle.check_report(item.x, report, rng)


class PaperBic(DetectWorkload):
    """The paper's 12 models, detected with BIC-selected segment-test orders."""

    name = "paper_bic"

    def __init__(self, replicates: int = 9):  # 108 series: >= 10 beyond the p90
        self.replicates = replicates

    def config(self, mods):
        return mods["pipeline"].DetectConfig(order_mode=mods["sdtest"].OrderMode.bic())

    def items(self, mods, seed):
        sim = mods["simulate"]
        (master,) = _derived_seeds(seed, 1, 1)
        out = []
        for rep in range(self.replicates):
            for model in PAPER_MODELS:
                spec = sim.builtin_model(model)
                x = sim.simulate_piecewise(spec, sim.replicate_seed(master, rep))
                out.append(Item(f"{model}#{rep}", spec.true_cps, x=x))
        return out


class Long8Regime(DetectWorkload):
    """8 regimes of AR(+0.5) / AR(-0.5), 8192 points each (T = 65536), default config."""

    name = "long_8regime"
    series = 3  # ~6 s per pass over the pool, so a run repeats each series

    def items(self, mods, seed):
        sim = mods["simulate"]
        segments = tuple(
            (sim.ArmaSpec(ar=(0.5 if k % 2 == 0 else -0.5,)), 8192 * (k + 1)) for k in range(8)
        )
        spec = sim.PiecewiseSpec(segments)
        (master,) = _derived_seeds(seed, 2, 1)
        return [
            Item(f"8regime#{j}", spec.true_cps, x=sim.simulate_piecewise(spec, sim.replicate_seed(master, j)))
            for j in range(self.series)
        ]


class PaperMc:
    """`arcpd bench` on its 12 default models at R = 40 replicates: one table per pass.

    `run_bench` runs its models one after the other, so the table is made as
    12 `run_bench([model], R, seed)` calls, with the reference kernel timed in
    between, and then one `write_bench_outputs` of all 24 rows, as the CLI
    writes once per table.  R = 40 is the replicate count of the ROADMAP's
    bench baseline; the CLI's default of 100 would make one table longer than
    a run.
    """

    name = "paper_mc"
    ref_workers = min(4, os.cpu_count() or 1)  # the bench's default pool size

    def __init__(self, replicates: int = 40):
        self.series_per_call = replicates

    def items(self, mods, seed):
        sim = mods["simulate"]
        (master,) = _derived_seeds(seed, 3, 1)
        return [Item(model, sim.builtin_model(model).true_cps, seed=master) for model in PAPER_MODELS]

    def warm_up(self, mods, items, out_dir):
        bench = mods["bench"]
        rows = bench.run_bench([items[0].label], 2, items[0].seed)
        bench.write_bench_outputs(rows, os.path.join(out_dir, "bench_warm_up"))

    def call(self, mods, item, tracer, out_dir):
        bench = mods["bench"]
        args = ([item.label], self.series_per_call, item.seed)
        if tracer is None:
            return bench.run_bench(*args)
        return tracer.call("bench.run_bench", bench.run_bench, *args, root=True)

    def write(self, mods, outputs, tracer, out_dir, n):
        """Write the table of one whole pass; `outputs` are its calls' rows in model order."""
        bench = mods["bench"]
        rows = [row for out in outputs for row in out]
        # One directory per table, so the first table's files survive until the checks.
        target = os.path.join(out_dir, f"bench_table_{n}")
        if tracer is None:
            return bench.write_bench_outputs(rows, target)
        return tracer.call("bench.write_bench_outputs", bench.write_bench_outputs, rows, target,
                           root=True)

    def summary(self, item, rows):
        bh, bonf = rows
        locs = (bh.locations, bonf.locations)
        return {
            "digest": hashlib.sha256(repr(locs).encode()).hexdigest(),
            "final_cps": sum(len(loc) for loc in bh.locations),
            "exact_bh": sum(bh.correct_flags),
            "exact_bonf": sum(bonf.correct_flags),
        }

    def check(self, mods, item, rows, rng):
        """Re-run one replicate through detect_changepoints and compare locations;
        check the rates against the locations."""
        sim = mods["simulate"]
        failures = []
        rep = int(rng.integers(self.series_per_call))
        x = sim.simulate_piecewise(sim.builtin_model(item.label), sim.replicate_seed(item.seed, rep))
        report = mods["pipeline"].detect_changepoints(x, mods["pipeline"].DetectConfig())
        pvals = [bt.p_value for bt in report.boundary_tests]
        positions = report.candidates.positions
        want = len(item.true_cps)
        for row, method in zip(rows, ("bh", "bonferroni")):
            rerun = oracle.kept_positions(positions, pvals, method, report.config.alpha)
            if tuple(row.locations[rep]) != rerun:
                failures.append(f"replicate {rep} {method}: bench "
                                f"{row.locations[rep]} != re-run {rerun}")
            rate = sum(len(loc) == want for loc in row.locations) / len(row.locations)
            if row.exact_detection_rate != rate:
                failures.append(f"{method}: rate {row.exact_detection_rate} != {rate}")
        result = oracle.check_report(x, report, rng)
        result["failures"] = failures + result["failures"]
        return result

    def check_written(self, outputs, paths) -> list[str]:
        """rates.csv of a table holds every row's rate; locations.csv every location."""
        rows = [row for out in outputs for row in out]
        with open(paths[0], newline="") as fh:
            rates = {(r["model"], r["method"]): r["exact_detection_rate"] for r in csv.DictReader(fh)}
        with open(paths[1], newline="") as fh:
            located = Counter((r["model"], r["method"]) for r in csv.DictReader(fh))
        failures = []
        for row in rows:
            key = (row.model, row.method)
            if rates.get(key) != f"{row.exact_detection_rate:.4f}":
                failures.append(f"rates.csv {key}: {rates.get(key)} != {row.exact_detection_rate:.4f}")
            if located[key] != sum(len(loc) for loc in row.locations):
                failures.append(f"locations.csv {key}: {located[key]} rows")
        if len(rates) != len(rows):
            failures.append(f"rates.csv has {len(rates)} rows, the table {len(rows)}")
        return failures


WORKLOADS = {w.name: w for w in (PaperMc, PaperBic, Long8Regime)}
