"""Benchmark of arcpd, end to end (--trace 0) or layer by layer (--trace 1).

    python3 perfbench/run.py --workload paper_bic --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's own `src/`.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the lines
before it give the sample counts, raw times, counters, check results and
environment.  End-to-end times are scaled to a fixed host speed with a
reference kernel timed between the calls (see REF_S).  Spans of a traced run are written to `.bench_build/perfbench/`.  The exit
code is 0 when every output check passed, 1 when one failed and 2 when the
program cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("ar", "scan", "sdtest", "multtest", "pipeline", "simulate", "bench")

END_TO_END = {
    "setup_s": "s",
    "series_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# End-to-end times are scaled to a fixed host speed: the speed at which one rep
# of the reference kernel takes REF_S.  The kernel runs in the gap after every
# timed call, for about REF_SHARE of the call's time, and the call is scaled by
# the mean rep time of the gaps on either side of it.  The host's speed drifts
# by 20-100% within minutes, and it drifts alike for the kernel and the calls
# when the kernel runs on as many threads as the workload (`ref_workers`).
REF_S = 0.005
REF_SHARE = 0.15
_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((40, 3))
_REF_Y = _REF_RNG.standard_normal(40)

PER_LAYER = {
    "simulate.calls": "count",
    "simulate.self_ms": "ms/series",
    "bench.self_ms": "ms/series",
    "bench.write_ms": "ms/table",
    "bench.threads": "count",
    "ar.bic_select_order.calls": "count",
    "ar.bic_select_order.self_ms": "ms/series",
    "ar.mean_correct.self_ms": "ms/series",
    "scan.scan_statistics.self_ms": "ms/series",
    "scan.windows": "count",
    "scan.ns_per_window": "ns",
    "scan.degenerate": "count",
    "scan.extract_candidates.self_ms": "ms/series",
    "scan.candidates": "count",
    "sdtest.discrimination_test.calls": "count",
    "sdtest.discrimination_test.self_ms": "ms/series",
    "sdtest.untestable": "count",
    "multtest.calls": "count",
    "multtest.self_ms": "ms/series",
    "pipeline.self_ms": "ms/series",
    "pipeline.kept_ratio": "ratio",
    "pipeline.final_cps": "count",
    "pipeline.exact_rate_bh": "ratio",
    "pipeline.exact_rate_bonf": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}

# Span names whose self time makes up each *.self_ms metric.
SELF_SPANS = {
    "simulate.self_ms": ("simulate.simulate_piecewise",),
    "bench.self_ms": ("bench.run_bench", "bench.run_model"),
    "ar.bic_select_order.self_ms": ("ar.bic_select_order",),
    "ar.mean_correct.self_ms": ("ar.mean_correct",),
    "scan.scan_statistics.self_ms": ("scan.scan_statistics",),
    "scan.extract_candidates.self_ms": ("scan.extract_candidates",),
    "sdtest.discrimination_test.self_ms": ("sdtest.discrimination_test",),
    "multtest.self_ms": ("multtest.bh_procedure", "multtest.bonferroni_procedure"),
    "pipeline.self_ms": ("pipeline.detect_changepoints",),
}


@dataclass
class Call:
    serial: int
    index: int  # item index in the pool; -1 for a workload's per-pass write
    traced: bool
    wall: float
    summary: dict | None = None  # digest and counters of the output
    output: object = None  # kept for the first call of each item only, for the checks
    error: str | None = None
    ref: float = REF_S  # mean reference rep time around the call

    @property
    def scaled(self) -> float:
        """Wall time at the reference speed."""
        return self.wall * REF_S / self.ref


def _reference_kernel(_=None) -> float:
    acc = 0.0
    for _ in range(300):
        beta = np.linalg.lstsq(_REF_X, _REF_Y, rcond=None)[0]
        resid = _REF_Y - _REF_X @ beta
        acc += float(resid @ resid) + sum(range(50))
    return acc


def reference_rep(workers: int = 1) -> float:
    """Seconds per rep of the reference kernel: small least-squares fits and interpreter
    work, the mix the scan and the segment tests spend their time on.

    With workers > 1, 2 * workers reps run in a thread pool of that size, as the
    bench runs its replicates, and the time is divided by the reps.
    """
    start = time.perf_counter()
    if workers == 1:
        _reference_kernel()
        return time.perf_counter() - start
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(_reference_kernel, range(2 * workers)))
    return (time.perf_counter() - start) / (2 * workers)


def reference_gap(after: float, workers: int = 1) -> float:
    """Run the kernel for REF_SHARE of `after` seconds, one rep at least; mean rep time."""
    start = time.perf_counter()
    reps = [reference_rep(workers)]
    while time.perf_counter() - start < REF_SHARE * after:
        reps.append(reference_rep(workers))
    return statistics.fmean(reps)


def import_arcpd() -> dict:
    """(Re-)import arcpd from the checkout and return its layer modules by name."""
    for name in [m for m in sys.modules if m == "arcpd" or m.startswith("arcpd.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"arcpd.{name}") for name in LAYERS}
    where = Path(mods["pipeline"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"arcpd was imported from {where}, not from {SRC}")
    return mods


def environment() -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k, "unset") for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
        info["blas_config"] = blas.get("openblas configuration", "")
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    return info


def measure_setup(workload, items, out_dir) -> tuple[list[Call], dict]:
    """Time a fresh import of arcpd plus one warm-up call, several times."""
    setups: list[Call] = []
    gap = reference_gap(0.0, workload.ref_workers)
    while len(setups) < 3 or (len(setups) < 15 and sum(c.wall for c in setups) < 2.0):
        start = time.perf_counter()
        mods = import_arcpd()
        workload.warm_up(mods, items, out_dir)
        wall = time.perf_counter() - start
        before, gap = gap, reference_gap(wall, workload.ref_workers)
        setups.append(Call(len(setups), -1, False, wall, ref=(before + gap) / 2))
    return setups, mods


def _timed(fn, tracer, serial, mods) -> tuple[object, float, str | None]:
    if tracer is not None:
        tracer.item = serial
        tracer.install(mods)
    try:
        start = time.perf_counter()
        try:
            output, error = fn(), None
        except Exception:
            output, error = None, traceback.format_exc()
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return output, wall, error


def timed_loop(workload, mods, items, seconds, out_dir, tracer=None) -> tuple[list[Call], list[Call]]:
    """Closed loop over the pool: one whole pass at least, then on until `seconds` have passed.

    The reference kernel runs after every call.  With a tracer every item runs
    twice, untraced and traced, in alternating order.  Returns the calls and
    the workload's per-pass writes.
    """
    calls: list[Call] = []
    writes: list[Call] = []
    kept: set[int] = set()
    outputs: list[object] = [None] * len(items)  # of the current pass, for its write
    gap = reference_gap(0.0, workload.ref_workers)

    def record(call: Call) -> Call:
        nonlocal gap
        before, gap = gap, reference_gap(call.wall, workload.ref_workers)
        call.ref = (before + gap) / 2
        return call

    start = time.perf_counter()
    k = 0
    while k < len(items) or time.perf_counter() - start < seconds:
        index = k % len(items)
        modes = [None] if tracer is None else ([None, tracer] if k % 2 == 0 else [tracer, None])
        for tr in modes:
            serial = len(calls) + len(writes)
            output, wall, error = _timed(lambda: workload.call(mods, items[index], tr, out_dir),
                                         tr, serial, mods)
            summary = None if error else workload.summary(items[index], output)
            keep = index not in kept and error is None
            calls.append(record(Call(serial, index, tr is not None, wall, summary,
                                     output if keep else None, error)))
            if workload.write is not None:
                outputs[index] = output
            if keep:
                kept.add(index)
        k += 1
        if workload.write is not None and k % len(items) == 0 and None not in outputs:
            serial = len(calls) + len(writes)
            pass_outputs = list(outputs)
            paths, wall, error = _timed(
                lambda: workload.write(mods, pass_outputs, tracer, out_dir, len(writes)),
                tracer, serial, mods)
            writes.append(record(Call(serial, -1, tracer is not None, wall,
                                      output=(pass_outputs, paths), error=error)))
            outputs = [None] * len(items)
    return calls, writes


def span_counts(tracer) -> dict[int, Counter]:
    """Per call serial: calls per span name, errors, and counts read off results."""
    out: dict[int, Counter] = {}
    for sp in tracer.spans:
        c = out.setdefault(sp.item, Counter())
        c[sp.name] += 1
        if sp.error:
            c[sp.name + ":error"] += 1
        for key, val in sp.counts.items():
            c[f"{sp.name}:{key}"] += val
    return out


def verify(workload, mods, items, calls, writes, tracer, seed) -> dict:
    """Check outputs: oracle on each item's first output, exact repeats after it,
    and the first per-pass write against the rows it was given."""
    rng = np.random.default_rng([seed, 99])
    per_span = span_counts(tracer) if tracer is not None else {}
    first: dict[int, tuple[dict, Counter | None]] = {}
    bad_items: set[int] = set()
    bad_calls: set[int] = set()
    messages: list[str] = []
    checks = []
    for call in calls:
        if call.error is not None:
            bad_calls.add(call.serial)
            messages.append(f"{items[call.index].label}: raised\n{call.error}")
            continue
        got = (call.summary, per_span.get(call.serial) if call.traced else None)
        if call.index not in first:
            first[call.index] = got
            result = workload.check(mods, items[call.index], call.output, rng)
            checks.append(result)
            if result["failures"]:
                bad_items.add(call.index)
                messages.extend(f"{items[call.index].label}: {m}" for m in result["failures"])
            continue
        ref_summary, ref_spans = first[call.index]
        if got[0] != ref_summary:
            bad_calls.add(call.serial)
            messages.append(f"{items[call.index].label}: repeat differs: {got[0]} != {ref_summary}")
        if got[1] is not None:
            if ref_spans is None:
                first[call.index] = (ref_summary, got[1])
            elif got[1] != ref_spans:
                bad_calls.add(call.serial)
                messages.append(f"{items[call.index].label}: repeat span counts differ")
    missing = [items[i].label for i in range(len(items)) if i not in first]
    messages.extend(f"{label}: no successful call" for label in missing)
    for n, w in enumerate(writes):
        problems = ([f"raised\n{w.error}"] if w.error is not None
                    else workload.check_written(*w.output) if n == 0 else [])
        if problems:
            bad_items.update(range(len(items)))
            messages.extend(f"write {n}: {m}" for m in problems)
    failed = sum(workload.series_per_call for c in calls
                 if c.serial in bad_calls or c.index in bad_items)
    totals = Counter()
    span_totals = Counter()
    for summary, sc in first.values():
        totals.update({k: v for k, v in summary.items() if k != "digest"})
        span_totals.update(sc or {})
    return {
        "failed": failed + workload.series_per_call * len(missing),
        "messages": messages,
        "counters": totals,
        "span_counters": span_totals,
        "checks": checks,
        "series": workload.series_per_call * len(first),
    }


def end_to_end_metrics(workload, setups, calls, writes, peak_rss) -> tuple[dict, dict, list[str]]:
    """Times at the reference speed: each input's median over its calls, then over inputs.

    A pass is timed as the sum of the inputs' medians plus the median write.
    Returns the values, a sample note per metric and extra lines to print.
    """
    per_call = workload.series_per_call
    scaled: dict[int, list[float]] = {}
    for c in calls:
        if c.error is None:
            scaled.setdefault(c.index, []).append(c.scaled)
    med = [statistics.median(v) for v in scaled.values()]
    write_s = statistics.median([w.scaled for w in writes]) if writes else 0.0
    per_series_ms = [m * 1000.0 / per_call for m in med]
    ok = [c for c in calls if c.error is None]
    done = per_call * len(ok)
    raw_s = sum(c.wall for c in ok) + sum(w.wall for w in writes)
    refs = [c.ref for c in ok]
    values = {
        "setup_s": statistics.median([c.scaled for c in setups]),
        "series_per_s": per_call * len(med) / (sum(med) + write_s),
        "latency_p50_ms": statistics.median(per_series_ms),
        "peak_rss_mb": peak_rss / 1024.0,
    }
    inputs = (f"n={len(med)} inputs of {per_call} series, median of "
              f"{len(ok) / max(len(med), 1):.1f} calls each")
    samples = {
        "setup_s": f"n={len(setups)} set-ups; raw median {statistics.median(c.wall for c in setups):.4g} s",
        "series_per_s": f"{inputs}" + (f" + {len(writes)} writes" if writes else "")
        + f"; raw closed loop {done} series in {raw_s:.2f} s = {done / raw_s:.4g}/s",
        "latency_p50_ms": f"{inputs}; raw median of all calls "
        f"{statistics.median(c.wall for c in ok) * 1000.0 / per_call:.4g}",
        "peak_rss_mb": "ru_maxrss after the timed loop",
    }
    extra = [f"host speed: reference rep {statistics.median(refs) * 1000.0:.3f} ms median, "
             f"{min(refs) * 1000.0:.3f}-{max(refs) * 1000.0:.3f} ms; times above are scaled "
             f"to {REF_S * 1000.0:g} ms"]
    if len(med) >= 100:  # at least ten inputs lie beyond the 90th percentile
        p90 = statistics.quantiles(per_series_ms, n=10, method="inclusive")[-1]
        extra.append(f"  {'latency_p90_ms':<36} {p90:>14.6g} {'ms':<10} {inputs}; not gated")
    else:
        extra.append(f"  latency_p90_ms: not reported, {len(med)} inputs are fewer than 100")
    return values, samples, extra


def per_layer_metrics(workload, tracer, calls, writes, counters, span_counters,
                      series_first) -> tuple[dict, dict]:
    traced = [c for c in calls if c.traced and c.error is None]
    series_traced = workload.series_per_call * len(traced)
    selfs = spans.self_times(tracer.spans)
    self_ns = Counter()
    dur_ns = Counter()
    windows = 0
    threads: dict[int, set] = {}
    for sp in tracer.spans:
        self_ns[sp.name] += selfs[sp.id]
        dur_ns[sp.name] += sp.end - sp.start
        windows += sp.counts.get("windows", 0)
        threads.setdefault(sp.item, set()).add(sp.thread)
    n_writes = sum(1 for sp in tracer.spans if sp.name == "bench.write_bench_outputs")
    traced_wall = sum(c.wall for c in traced) + sum(w.wall for w in writes if w.error is None)
    untraced_wall = sum(c.wall for c in calls if not c.traced and c.error is None)
    # timed_loop appends each input's untraced and traced call as one adjacent pair.
    ratios = [
        (a.scaled / b.scaled if a.traced else b.scaled / a.scaled)
        for a, b in zip(calls[::2], calls[1::2])
        if a.error is None and b.error is None
    ]
    sc = span_counters
    candidates = sc["scan.extract_candidates:candidates"]
    final = sc["pipeline.detect_changepoints:final_cps"]
    values = {
        "simulate.calls": sc["simulate.simulate_piecewise"],
        "bench.write_ms": dur_ns["bench.write_bench_outputs"] / 1e6 / n_writes if n_writes else 0.0,
        "bench.threads": max((len(t) for t in threads.values()), default=0),
        "ar.bic_select_order.calls": sc["ar.bic_select_order"],
        "scan.windows": sc["scan.scan_statistics:windows"],
        "scan.ns_per_window": self_ns["scan.scan_statistics"] / windows if windows else 0.0,
        "scan.degenerate": sc["scan.scan_statistics:degenerate"],
        "scan.candidates": candidates,
        "sdtest.discrimination_test.calls": sc["sdtest.discrimination_test"],
        "sdtest.untestable": sc["sdtest.discrimination_test:error"],
        "multtest.calls": sc["multtest.bh_procedure"] + sc["multtest.bonferroni_procedure"],
        "pipeline.kept_ratio": final / candidates if candidates else 0.0,
        "pipeline.final_cps": final,
        "pipeline.exact_rate_bh": counters["exact_bh"] / series_first,
        "pipeline.exact_rate_bonf": counters["exact_bonf"] / series_first,
        "trace.overhead_frac": statistics.median(ratios) - 1.0,
        "trace.accounted_frac": sum(selfs.values()) / 1e9 / traced_wall,
    }
    for metric, names in SELF_SPANS.items():
        values[metric] = sum(self_ns[n] for n in names) / 1e6 / series_traced
    per_series = f"per series, over {len(traced)} traced calls ({series_traced} series)"
    exact = f"exact, over one pass of the pool ({series_first} series)"
    samples = {k: per_series if k in SELF_SPANS else exact for k in PER_LAYER}
    samples.update({
        "bench.write_ms": f"per table, n={n_writes} writes",
        "bench.threads": "most distinct thread ids in one traced call",
        "scan.ns_per_window": f"scan self time / windows, over {len(traced)} traced calls",
        "trace.overhead_frac": f"median over {len(ratios)} traced/untraced pairs of one input; "
        f"totals {traced_wall:.2f} s vs {untraced_wall:.2f} s",
        "trace.accounted_frac": "sum of span self times / traced wall time",
    })
    return {k: values[k] for k in PER_LAYER}, samples


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Set up, run the timed loop, check outputs; returns the result object."""
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    mods = import_arcpd()
    items = workload.items(mods, seed)
    setups, mods = measure_setup(workload, items, str(out_dir))
    tracer = spans.Tracer() if trace else None
    calls, writes = timed_loop(workload, mods, items, seconds, str(out_dir), tracer)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checked = verify(workload, mods, items, calls, writes, tracer, seed)
    series_first = checked["series"]
    if not series_first:
        for message in checked["messages"][:20]:
            print("FAILED: " + message, file=sys.stderr)
        raise SystemExit("error: no call succeeded, so there is nothing to measure")
    if trace:
        values, samples = per_layer_metrics(workload, tracer, calls, writes, checked["counters"],
                                            checked["span_counters"], series_first)
        units = PER_LAYER
        extra = []
        tracer.dump(out_dir / f"spans-{workload.name}-{seed}.json")
    else:
        values, samples, extra = end_to_end_metrics(workload, setups, calls, writes, peak_rss)
        units = END_TO_END
    attempted = workload.series_per_call * len(calls)

    print(f"perfbench workload={workload.name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env: " + json.dumps(env))
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]:<10} {samples[name]}")
    for line in extra:
        print(line)
    counters = checked["counters"]
    print(f"counters over one pass ({series_first} series): "
          + ", ".join(f"{k}={v}" for k, v in sorted(counters.items())))
    if trace:
        print("span counters over one pass: "
              + ", ".join(f"{k}={v}" for k, v in sorted(checked["span_counters"].items())))
        print("wrappers not found: " + (", ".join(tracer.not_found) or "none"))
    checks = checked["checks"]
    print(f"checks: {len(checks)} items; scan values at "
          f"{sum(c['scan_positions'] for c in checks)} positions, max |diff| "
          f"{max((c['scan_max_diff'] for c in checks), default=0.0):.3g}; "
          f"{sum(c['pvalues'] for c in checks)} p-values, max |diff| "
          f"{max((c['p_max_diff'] for c in checks), default=0.0):.3g}")
    print(f"quality: exact_rate_bh={counters['exact_bh'] / series_first:.4f} "
          f"exact_rate_bonf={counters['exact_bonf'] / series_first:.4f} "
          f"failed_frac={checked['failed'] / attempted:.4f} ({checked['failed']}/{attempted})")
    for message in checked["messages"][:20]:
        print("FAILED: " + message, file=sys.stderr)
    return {
        "correct": checked["failed"] == 0 and not checked["messages"],
        "attempted": attempted,
        "failed": checked["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "arcpd" / "__init__.py").is_file():
        print(f"error: no arcpd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import_arcpd()
    except ImportError as exc:
        print(f"error: cannot import arcpd: {exc}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace),
                 ROOT / ".bench_build" / "perfbench")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
