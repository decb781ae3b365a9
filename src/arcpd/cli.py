"""Command-line front end: detect on CSVs, simulate builtin models, run benchmarks.

Exit codes: 0 success, 1 series too short for the scanning window,
2 malformed input (including a constant series or one whose squares
overflow) / unknown model / bad arguments / unwritable output path.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import sys

from .bench import run_bench, write_bench_outputs
from .pipeline import CORRECTIONS, DetectConfig, detect_changepoints
from .scan import DEFAULT_RADIUS, SeriesTooShortError
from .sdtest import OrderMode
from .simulate import builtin_model, builtin_model_names, simulate_piecewise
from .svgplot import series_plot

__all__ = ["main"]


class InputError(Exception):
    """Malformed user input; maps to exit code 2."""


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError raised while writing `path` into an InputError (exit code 2)."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from None


def read_series_csv(path: str, column: str | None = None) -> list[float]:
    """Read one numeric column from a CSV file; blank lines are skipped.

    `column` is a 0-based index when ``int()`` accepts it, else a name
    matched against the first row's stripped cells; without it the file
    must have exactly one column.  The first row is a header when the
    column was chosen by name, or when its cell in that column is not a
    number.  Each data cell is a decimal number that Python's ``float()``
    accepts, as written by ``repr(float(x))`` or by ``arcpd simulate``;
    numpy 2 scalar reprs such as ``np.float64(0.5)`` are not numbers and
    are rejected (``arcpd detect`` exits 2).  Parse failures name the first
    offending line.  The file is UTF-8; a leading byte-order mark, as
    Excel's "CSV UTF-8" writes, is skipped, and a byte that is not UTF-8
    is an error that names its line.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is what the decoder saw: the file after any byte-order mark.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        bad = exc.object[exc.start]
        raise InputError(f"{path}: line {line}: not UTF-8 text (byte {bad:#04x})") from None
    lines = io.StringIO(text, newline="")
    rows = [(i, row) for i, row in enumerate(csv.reader(lines), start=1) if row]
    if not rows:
        raise InputError(f"{path}: no data rows")
    names = [cell.strip() for cell in rows[0][1]]
    width = len(names)
    for i, row in rows:
        if len(row) != width:
            raise InputError(f"{path}: line {i}: inconsistent number of columns")

    col, start = 0, 0
    if column is None:
        if width != 1:
            raise InputError(f"{path}: has {width} columns; select one with --column")
    else:
        try:
            col = int(column)
        except ValueError:
            if column not in names:
                raise InputError(f"{path}: no column named {column!r} in header {names}") from None
            col, start = names.index(column), 1  # chosen by name: the first row is a header
        if not 0 <= col < width:
            raise InputError(f"{path}: column index {col} out of range (width {width})")
    values = []
    for i, row in rows[start:]:
        try:
            values.append(float(row[col]))
        except ValueError:
            if i != rows[0][0]:  # a first row that is not a number is a header
                raise InputError(f"{path}: line {i}: not a number: {row[col].strip()!r}") from None
    if not values:
        raise InputError(f"{path}: no numeric rows")
    return values


def _detect_config(args) -> DetectConfig:
    if args.order_mode == "bic":
        mode = OrderMode.bic(args.max_order)
    else:
        mode = OrderMode.fixed(args.v)
    return DetectConfig(
        window_radius=args.window,
        scan_order=args.scan_order,
        order_mode=mode,
        correction=getattr(args, "correction", "bh"),  # bench runs both corrections
        alpha=args.alpha,
        iterate=args.iterate,
    )


def _cmd_detect(args) -> int:
    values = read_series_csv(args.input, args.column)
    try:
        report = detect_changepoints(values, _detect_config(args))
    except SeriesTooShortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(report.to_dict(), indent=2)
    if args.out:
        with _writing(args.out), open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.plot:
        with _writing(args.plot), open(args.plot, "w", newline="") as fh:
            fh.write(series_plot(values, report.final_cps, title=args.input))
    return 0


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {seed}")


def _cmd_simulate(args) -> int:
    spec = builtin_model(args.model)
    _check_seed(args.seed)
    x = simulate_piecewise(spec, args.seed)
    with _writing(args.out), open(args.out, "w", newline="") as fh:
        fh.writelines(["x\n", *(f"{v!r}\n" for v in x.tolist())])
    sidecar = {
        "schema": 1,
        "model": args.model,
        "seed": args.seed,
        "length": spec.total_length,
        "true_cps": list(spec.true_cps),
        "segments": [{**dataclasses.asdict(arma), "end": end} for arma, end in spec.segments],
    }
    with _writing(args.out + ".json"), open(args.out + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_bench(args) -> int:
    models: list[str] = []
    for item in args.model or builtin_model_names():
        models.extend(m.strip() for m in item.split(",") if m.strip())
    # No name, bad names or settings and an unwritable --out all exit before any work.
    if not models:
        raise ValueError("--model must name at least one model")
    chosen = {}  # spec -> the name that selected it first
    for m in models:
        spec = builtin_model(m)
        if spec in chosen:
            again = "" if chosen[spec] == m else f" (again as {m!r})"
            raise ValueError(f"--model selects model {chosen[spec]!r} twice{again}")
        chosen[spec] = m
    cfg = _detect_config(args)
    if args.replicates < 1:
        raise ValueError("replicates must be >= 1")
    _check_seed(args.seed)
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    rows = run_bench(models, args.replicates, args.seed, cfg)
    with _writing(args.out):
        paths = write_bench_outputs(rows, args.out)
    for r in rows:
        print(
            f"{r.model}\t{r.method}\tR={r.replicates}\t"
            f"rate={r.exact_detection_rate:.4f}"
        )
    for p in paths:
        print(f"wrote {p}")
    return 0


def _add_detect_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-w", "--window", type=int, default=DEFAULT_RADIUS,
                   help="scanning window radius h; the series needs at least 2h "
                        f"points (default: {DEFAULT_RADIUS})")
    p.add_argument("--scan-order", type=int, default=None,
                   help="AR order used by the scan, at most (h - 1) / 2 "
                        "(default: BIC, capped at min(10, (h - 1) // 2))")
    p.add_argument("--order-mode", choices=["fixed", "bic"], default="fixed",
                   help="order policy of the segment test (default: fixed)")
    p.add_argument("--v", type=float, default=1.5,
                   help="fixed-order exponent, > 1 (default: 1.5)")
    p.add_argument("--max-order", type=int, default=10,
                   help="max order in bic mode (default: 10)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="test level (default: 0.05)")
    p.add_argument("--iterate", action="store_true",
                   help="re-test merged segments until the set is stable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcpd",
        description="Change point detection for piecewise stationary AR time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("detect", help="detect change points in a CSV series")
    d.add_argument("input",
                   help="CSV file with one numeric column; each cell a decimal "
                        "number that float() accepts (as written by repr(float(x)) "
                        "or arcpd simulate); numpy scalar reprs such as "
                        "np.float64(...) are rejected with exit code 2")
    d.add_argument("--column", default=None,
                   help="column name or 0-based index (default: the only column)")
    d.add_argument("--out", default=None, help="write the JSON report here")
    d.add_argument("--plot", default=None, help="write an SVG of the series here")
    d.add_argument("--correction", choices=sorted(CORRECTIONS), default="bh",
                   help="multiple-testing correction (default: bh)")
    _add_detect_flags(d)
    d.set_defaults(func=_cmd_detect)

    s = sub.add_parser("simulate", help="simulate a builtin model to CSV")
    s.add_argument("--model", required=True,
                   help=f"one of {', '.join(builtin_model_names())}")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("-o", "--out", required=True, help="output CSV path")
    s.set_defaults(func=_cmd_simulate)

    b = sub.add_parser("bench", help="detection-rate benchmark over seeded replicates",
                       description="One row per model and correction (BH, Bonferroni); "
                                   "--iterate re-tests the kept set under each.")
    b.add_argument("--model", action="append", default=None,
                   help="model name, repeatable or comma-separated (default: all)")
    b.add_argument("--replicates", type=int, default=100)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default="bench_out", help="output directory")
    _add_detect_flags(b)
    b.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
