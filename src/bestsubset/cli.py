"""Command line interface.

Four subcommands:

* ``select``: read a CSV, run the exhaustive search, report the best
  subset per responder.
* ``verify``: run all four methods on the same instance and check they
  agree on winners and scores.
* ``bench``: time full enumerations on synthetic data and compare
  measured against predicted operation counts.
* ``count-ops``: just the measured-vs-predicted count table over a grid.

Reports are emitted on stdout as JSON (versioned schema), CSV or an
aligned text table. Given the same inputs and seed the emitted report is
byte-identical across runs, except for wall-time fields. Every
documented error class maps to its own exit code so shell pipelines can
tell failure modes apart; see EXIT_CODES.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
import warnings

import numpy as np

from .errors import (
    ArityMismatchError,
    BestSubsetError,
    InternalNumericError,
    InvalidSparsityError,
    LimitExceededError,
    NonFiniteValueError,
    NoValidSubsetError,
    ParseError,
    SingularMatrixError,
    UnknownMethodError,
    VerificationFailure,
    ZeroVarianceColumn,
)
from .opcount import count_table, format_count_table
from .search import METHODS, select_best
from .stats import ObservationMatrix, synthetic_observations
from .tolerances import DEFAULT_PAIR_LIMIT

SCHEMA_VERSION = 2

# Relative tolerance for cross-method MSE agreement in verify, plus an
# absolute floor in units of responder variance so that lossless fits
# (MSE at rounding-noise level) compare as equal.
VERIFY_REL = 1e-9
VERIFY_FLOOR = 1e-12

EXIT_CODES = {
    "ok": 0,
    "config": 2,
    "parse": 3,
    "arity": 4,
    "non-finite": 5,
    "zero-variance": 6,
    "invalid-sparsity": 7,
    "no-valid-subset": 8,
    "singular": 9,
    "verification": 10,
    "internal-numeric": 11,
    "unknown-method": 12,
    "limit": 13,
}

_ERROR_CODE_MAP = (
    (ArityMismatchError, "arity"),
    (NonFiniteValueError, "non-finite"),
    (ParseError, "parse"),
    (ZeroVarianceColumn, "zero-variance"),
    (InvalidSparsityError, "invalid-sparsity"),
    (NoValidSubsetError, "no-valid-subset"),
    (SingularMatrixError, "singular"),
    (VerificationFailure, "verification"),
    (InternalNumericError, "internal-numeric"),
    (UnknownMethodError, "unknown-method"),
    (LimitExceededError, "limit"),
)


def exit_code_for(exc: BaseException) -> int:
    for cls, name in _ERROR_CODE_MAP:
        if isinstance(exc, cls):
            return EXIT_CODES[name]
    return EXIT_CODES["config"]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def ingest_csv(path: str):
    """Read an RFC-4180-style CSV into an ObservationMatrix.

    Each cell is a number in Python ``float`` syntax, surrounding
    whitespace allowed; fully blank lines and a leading UTF-8 byte-order
    mark are ignored. The first non-blank record is a header supplying
    column names if any of its cells fails to parse as a number;
    otherwise every record is data (see :func:`_header`).
    Returns (matrix, names) with names None when there was no header.
    Row/column positions in errors are 1-based, count the header row and
    skip blank lines.

    The first record is read by ``csv.reader``, as the reference reads
    it, and the data rows by numpy's C parser (``np.loadtxt``), streamed
    from the file. Every cell it parses, ``float`` parses to the same
    double, so a file it accepts gets the reference parser's values. It
    hands the whole file to the per-cell reference parser,
    :func:`_ingest_reference`, whenever it cannot vouch for the result:
    the file holds fewer than 2 data rows or rows of the wrong width,
    numpy refuses a cell (``1_000``, non-ASCII digits, quotes, empty
    cells, ragged rows), or a value is non-finite. The reference parser
    then produces the result, or the error with its message, position and
    exit code, exactly as it would alone. One file reads only by the fast
    path: a data cell longer than ``csv.field_size_limit()`` characters,
    which ``csv.reader`` refuses (the reference raises ParseError there).
    """
    fast = _ingest_fast(path)
    return fast if fast is not None else _ingest_reference(path)


def _parse_cell(cell, rownum, colnum):
    """One cell as a finite float, or the ParseError that locates it."""
    text = cell.strip()
    if not text:
        raise ParseError("empty cell", row=rownum, column=colnum)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse {cell!r} as a number",
                         row=rownum, column=colnum) from None
    if not math.isfinite(value):
        raise NonFiniteValueError(f"non-finite value {cell!r}",
                                  row=rownum, column=colnum)
    return value


def _header(record):
    """The first record's names, or None when it is data.

    Cells are read left to right up to the first that is not a finite
    number: if it does not parse, the record is a header; if it is
    non-finite, its NonFiniteValueError is raised, header or not.
    """
    try:
        for j, cell in enumerate(record):
            _parse_cell(cell, 1, j + 1)
    except NonFiniteValueError:
        raise
    except ParseError:
        return [c.strip() for c in record]
    return None


def _ingest_fast(path: str):
    """``ingest_csv``'s result via ``np.loadtxt``, or None to hand over."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # the reference's first record; numpy reads on from the handle
            first = next(filter(None, csv.reader(fh)), None)
            if first is None:
                return None
            try:
                names = _header(first)
            except NonFiniteValueError:
                return None
            if names is None:
                fh.seek(0)  # the first record is data: numpy reads it too
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows
                values = np.loadtxt(fh, dtype=np.float64, delimiter=",",
                                    comments=None, ndmin=2)
    except (ValueError, csv.Error):  # a cell numpy refuses, undecodable text
        return None
    if (values.shape[0] < 2 or values.shape[1] != len(first)
            or not np.isfinite(values).all()):
        return None
    return ObservationMatrix(values), names


def _ingest_reference(path: str):
    """``ingest_csv`` one cell at a time through ``float``: the reference."""
    raw = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            for row in filter(None, csv.reader(fh)):  # skip fully blank lines
                raw.append(row)
        except csv.Error as exc:  # e.g. a cell beyond csv.field_size_limit()
            raise ParseError(f"{path}: {exc}", row=len(raw) + 1) from None
    if not raw:
        raise ParseError(f"{path}: file contains no data")

    names = _header(raw[0])
    start = 0 if names is None else 1
    width = len(raw[start]) if start < len(raw) else len(raw[0])
    rows = []
    for i in range(start, len(raw)):
        row = raw[i]
        if len(row) != width:
            raise ArityMismatchError(
                f"expected {width} cells, found {len(row)}", row=i + 1)
        rows.append([_parse_cell(c, i + 1, j + 1) for j, c in enumerate(row)])
    if names is not None and len(names) != width:
        raise ArityMismatchError(
            f"header has {len(names)} names but rows have {width} cells", row=1)
    if len(rows) < 2:
        raise ParseError(f"{path}: need at least 2 data rows, found {len(rows)}")
    try:
        return ObservationMatrix(rows), names
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def parse_column_spec(spec: str, names, p: int, what: str):
    """Resolve a comma list of names, 0-based indices or a-b index ranges.
    A name that labels several columns is an error, as the report could
    not tell them apart."""
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if names is not None and token in names:
            hits = [i for i, name in enumerate(names) if name == token]
            if len(hits) > 1:
                raise ValueError(f"{what}: name {token!r} labels columns {hits}")
            out.append(hits[0])
            continue
        if token.isdigit():
            out.append(int(token))
            continue
        lo, dash, hi = token.partition("-")
        if dash and lo.isdigit() and hi.isdigit():
            if int(lo) > int(hi):
                raise ValueError(f"{what}: range {token!r} runs backwards")
            out.extend(range(int(lo), int(hi) + 1))
            continue
        raise ValueError(
            f"{what}: cannot resolve {token!r} "
            + ("(no header row, so only indices work)" if names is None else "")
        )
    if not out:
        raise ValueError(f"{what}: no columns given")
    for c in out:
        if not 0 <= c < p:
            raise ValueError(f"{what}: column index {c} out of range 0..{p - 1}")
    if len(set(out)) != len(out):
        raise ValueError(f"{what}: duplicate columns in {spec!r}")
    return out


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _col_label(names, c):
    return names[c] if names is not None else str(c)


def render_json(report) -> str:
    return json.dumps(report, indent=2) + "\n"


def _record_fields():
    return ["k", "responder", "subset", "omega_sq_cond", "mse", "r_squared",
            "beta0", "betas", "skipped_singular", "subsets_evaluated"]


def _csv_text(rows) -> str:
    """Rows as RFC-4180 CSV, quoting only cells that need it.

    The writer quotes a cell only for the characters of its own line
    terminator, so rows are written with CRLF (a cell holding a bare CR
    is quoted too) and each row's terminator is then cut to LF.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    lines = []
    for row in rows:
        writer.writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
        buf.seek(0)
        buf.truncate()
    return "".join(lines)


def render_select_csv(report) -> str:
    fields = _record_fields()
    rows = [fields]
    for rec in report["records"]:
        row = []
        for f in fields:
            v = rec[f]
            if f in ("subset", "betas"):
                v = ";".join(str(x) for x in v)
            row.append(str(v))
        rows.append(row)
    return _csv_text(rows)


def render_select_text(report) -> str:
    out = [
        f"method={report['method']} k={report['k']} d={report['d']} "
        f"n={report['n']} m={report['m']}",
    ]
    for rec in report["records"]:
        out.append(
            f"  responder {rec['responder']}: subset [{', '.join(map(str, rec['subset']))}]"
            f"  mse={rec['mse']:.6g}  r2={rec['r_squared']:.6g}"
            f"  omega2={rec['omega_sq_cond']:.6g}"
            f"  (skipped {rec['skipped_singular']} singular)"
        )
    out.append(f"wall_time_s={report['wall_time_s']:.3f}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_instance(args):
    """Data plus resolved predictor/responder indices, from file or seed."""
    if args.input:
        data, names = ingest_csv(args.input)
        if not args.predictors or not args.responders:
            raise ValueError("--predictors and --responders are required with --input")
        pred = parse_column_spec(args.predictors, names, data.p, "--predictors")
        resp = parse_column_spec(args.responders, names, data.p, "--responders")
        return data, names, pred, resp
    if args.d is None or args.n is None or args.m is None:
        raise ValueError("either --input or all of --d/--n/--m are required")
    data = synthetic_observations(args.d, args.n + args.m, seed=args.seed)
    return data, None, list(range(args.n)), list(range(args.n, args.n + args.m))


def _selection_records(data, names, pred, resp, ks, method, limit):
    records = []
    for k in ks:
        for r in select_best(data, pred, resp, k, method=method, pair_limit=limit):
            records.append({
                "k": k,
                "responder": _col_label(names, r.responder_column),
                "subset": [_col_label(names, c) for c in r.subset_columns],
                "omega_sq_cond": r.omega_sq_cond,
                "mse": r.mse,
                "r_squared": r.r_squared,
                "beta0": r.coefficients.beta0,
                "betas": list(r.coefficients.betas),
                "skipped_singular": r.skipped_singular,
                "subsets_evaluated": r.subsets_evaluated,
            })
    return records


def cmd_select(args) -> int:
    data, names, pred, resp = _load_instance(args)
    ks = list(range(1, args.k + 1)) if args.sweep else [args.k]
    t0 = time.perf_counter()
    records = _selection_records(data, names, pred, resp, ks, args.method, args.limit)
    wall = time.perf_counter() - t0
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "select",
        "method": args.method,
        "k": args.k,
        "sweep": bool(args.sweep),
        "d": data.d,
        "n": len(pred),
        "m": len(resp),
        "seed": args.seed,
        "input": args.input,
        "records": records,
        "wall_time_s": wall,
    }
    if args.format == "json":
        sys.stdout.write(render_json(report))
    elif args.format == "csv":
        sys.stdout.write(render_select_csv(report))
    else:
        sys.stdout.write(render_select_text(report))
    return EXIT_CODES["ok"]


def run_verify(data, names, pred, resp, k, limit):
    """Select with every method and compare winners and MSEs.

    Returns (report, ok). MSEs must agree within VERIFY_REL relative plus
    a VERIFY_FLOOR * sigma_y^2 absolute floor; winners must be identical.
    """
    by_method = {
        method: select_best(data, pred, resp, k, method=method, pair_limit=limit)
        for method in METHODS
    }
    checks = []
    ok = True
    for t in range(len(resp)):
        sigma_y = by_method[METHODS[0]][t].responder_sigma
        floor = VERIFY_FLOOR * sigma_y * sigma_y
        subsets = {m: by_method[m][t].subset_columns for m in METHODS}
        mses = {m: by_method[m][t].mse for m in METHODS}
        agree = len(set(subsets.values())) == 1
        spread = max(mses.values()) - min(mses.values())
        mse_ok = spread <= VERIFY_REL * max(abs(v) for v in mses.values()) + floor
        ok = ok and agree and mse_ok
        checks.append({
            "responder": _col_label(names, resp[t]),
            "subsets": {m: [_col_label(names, c) for c in s] for m, s in subsets.items()},
            "subsets_agree": agree,
            "mse": mses,
            "mse_spread": spread,
            "mse_agree": mse_ok,
        })
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "k": k,
        "d": data.d,
        "n": len(pred),
        "m": len(resp),
        "methods": list(METHODS),
        "checks": checks,
        "pass": ok,
    }
    return report, ok


def cmd_verify(args) -> int:
    data, names, pred, resp = _load_instance(args)
    report, ok = run_verify(data, names, pred, resp, args.k, args.limit)
    if args.format == "json":
        sys.stdout.write(render_json(report))
    elif args.format == "csv":
        rows = [["responder", "subsets_agree", "mse_agree", "mse_spread"]]
        for c in report["checks"]:
            rows.append([c["responder"], c["subsets_agree"], c["mse_agree"],
                         c["mse_spread"]])
        rows.append(["pass", ok, "", ""])
        sys.stdout.write(_csv_text(rows))
    else:
        for c in report["checks"]:
            status = "ok" if c["subsets_agree"] and c["mse_agree"] else "MISMATCH"
            sys.stdout.write(
                f"responder {c['responder']}: {status} "
                f"(mse spread {c['mse_spread']:.3e})\n"
            )
        sys.stdout.write(f"verify: {'pass' if ok else 'FAIL'}\n")
    return EXIT_CODES["ok"] if ok else EXIT_CODES["verification"]


# the count_table row that counts each method's operations per subset
_COUNT_ROWS = {"cond-uncorrelation": "alg2", "algorithm1": "alg1",
               "hat-a": "hat-a", "hat-b": "hat-b"}


def run_bench(d, n, k, m, seed, limit):
    """Time full enumerations per method on one synthetic instance.

    Two ratios over hat-b are reported per method: ``speedup_vs_hat_b``,
    measured wall time per subset (the engine), and ``op_ratio_vs_hat_b``,
    counted operations per subset (the paper's claim).
    """
    data = synthetic_observations(d, n + m, seed=seed)
    pred = list(range(n))
    resp = list(range(n, n + m))
    nsub = math.comb(n, k)
    timings = []
    winners = []
    for method in METHODS:
        t0 = time.perf_counter()
        results = select_best(data, pred, resp, k, method=method, pair_limit=limit)
        wall = time.perf_counter() - t0
        timings.append({
            "method": method,
            "wall_s": wall,
            "per_subset_s": wall / nsub,
        })
        winners.append(tuple(r.subset_columns for r in results))
    per = {t["method"]: t["per_subset_s"] for t in timings}
    counts = count_table(ks=[k], d=d, ms=[m])
    ops = {r["method"]: r["adds_measured"] + r["muls_measured"] + r["divs_measured"]
           for r in counts}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "bench",
        "d": d, "n": n, "k": k, "m": m, "seed": seed,
        "subsets": nsub,
        "timings": timings,
        "speedup_vs_hat_b": {
            meth: per["hat-b"] / per[meth] for meth in METHODS if per[meth] > 0
        },
        "op_ratio_vs_hat_b": {
            meth: ops["hat-b"] / ops[_COUNT_ROWS[meth]] for meth in METHODS
        },
        "winners_agree": len(set(winners)) == 1,
        "counts": counts,
    }


def cmd_bench(args) -> int:
    report = run_bench(args.d, args.n, args.k, args.m, args.seed, args.limit)
    if args.format == "json":
        sys.stdout.write(render_json(report))
    elif args.format == "csv":
        lines = ["method,wall_s,per_subset_s,op_ratio_vs_hat_b"]
        for t in report["timings"]:
            lines.append(f"{t['method']},{t['wall_s']},{t['per_subset_s']},"
                         f"{report['op_ratio_vs_hat_b'][t['method']]}")
        sys.stdout.write("\n".join(lines) + "\n\n")
        sys.stdout.write(format_count_table(report["counts"], "csv"))
    else:
        sys.stdout.write(
            f"bench d={report['d']} n={report['n']} k={report['k']} "
            f"m={report['m']} ({report['subsets']} subsets)\n"
        )
        for t in report["timings"]:
            sys.stdout.write(
                f"  {t['method']:>18}: {t['wall_s']:9.3f} s total, "
                f"{t['per_subset_s'] * 1e6:10.1f} us/subset\n"
            )
        for meth, ratio in report["speedup_vs_hat_b"].items():
            sys.stdout.write(f"  speedup vs hat-b: {meth:>18} {ratio:8.1f}x\n")
        for meth, ratio in report["op_ratio_vs_hat_b"].items():
            sys.stdout.write(f"  op ratio vs hat-b: {meth:>17} {ratio:8.1f}x\n")
        sys.stdout.write("\n" + format_count_table(report["counts"], "text"))
    return EXIT_CODES["ok"]


def cmd_count_ops(args) -> int:
    rows = count_table(ks=range(1, args.k + 1), d=args.d, ms=range(1, args.m + 1))
    if args.format == "json":
        sys.stdout.write(render_json({
            "schema_version": SCHEMA_VERSION,
            "command": "count-ops",
            "rows": rows,
        }))
    else:
        sys.stdout.write(format_count_table(rows, args.format))
    return EXIT_CODES["ok"]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p, method=True):
    p.add_argument("--input", help="CSV file; header row optional")
    p.add_argument("--predictors", help="comma list of names, indices or a-b ranges")
    p.add_argument("--responders", help="comma list of names, indices or a-b ranges")
    p.add_argument("--k", type=int, required=True, help="subset size")
    if method:
        p.add_argument("--method", choices=METHODS, default="cond-uncorrelation")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--seed", type=int, default=0,
                   help="PRNG seed for synthetic data")
    p.add_argument("--limit", type=int, default=DEFAULT_PAIR_LIMIT,
                   help="max scored (subset, responder) pairs; 0 = unlimited")
    p.add_argument("--d", type=int, help="rows of synthetic data (no --input)")
    p.add_argument("--n", type=int, help="synthetic predictor count (no --input)")
    p.add_argument("--m", type=int, help="synthetic responder count (no --input)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bestsubset",
        description="Exact best-subset selection for sparse linear regression",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("select", help="pick the best k-subset per responder")
    _add_common(p)
    p.add_argument("--sweep", action="store_true",
                   help="also report best subsets for every k' = 1..k")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("verify", help="cross-check all methods on one instance")
    _add_common(p, method=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time full enumerations on synthetic data")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=DEFAULT_PAIR_LIMIT)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("count-ops", help="measured vs predicted operation counts")
    p.add_argument("--k", type=int, default=8, help="max subset size")
    p.add_argument("--m", type=int, default=1, help="max responder count")
    p.add_argument("--d", type=int, default=30, help="observations for baselines")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_count_ops)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BestSubsetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exit_code_for(exc)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CODES["config"]


if __name__ == "__main__":
    sys.exit(main())
