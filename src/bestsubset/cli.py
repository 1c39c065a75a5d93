"""Command line interface.

Four subcommands:

* ``select``: read a CSV, run the exhaustive search, report the best
  subset per responder.
* ``verify``: run all four methods on the same instance and check they
  agree on winners and scores.
* ``bench``: time full enumerations on synthetic data and compare
  measured against predicted operation counts.
* ``count-ops``: just the measured-vs-predicted count table over a grid.

This module holds the commands only: argument parsing, column specs and
report rendering. Reading a CSV into a table lives in :mod:`.ingest`;
``select`` and ``verify`` call :func:`ingest_csv` through this module's
own name for it, which ``perfbench/spans.py`` wraps to time ingest.

Each subcommand builds its report once, as a dict plus its CSV and text
renderings, and hands all three to :func:`_emit`, the one writer, which
puts the JSON (versioned schema), the CSV or the aligned text table on
stdout. Given the same inputs and seed the emitted report is
byte-identical across runs, except for wall-time fields. A failed run
exits with the ``exit_code`` class attribute of its error (see
:func:`exit_code_for`), so shell pipelines can tell failure modes apart.
"""

from __future__ import annotations

import argparse
import collections
import csv
import io
import json
import math
import sys
import time

from .errors import BestSubsetError, VerificationFailure
from .ingest import ingest_csv
from .search import METHODS, _check_request, select_best
from .stats import synthetic_observations
from .tolerances import DEFAULT_PAIR_LIMIT

SCHEMA_VERSION = 2

# Relative tolerance for cross-method MSE agreement in verify, plus an
# absolute floor in units of responder variance so that lossless fits
# (MSE at rounding-noise level) compare as equal.
VERIFY_REL = 1e-9
VERIFY_FLOOR = 1e-12


def exit_code_for(exc: BaseException) -> int:
    """The code ``main`` exits with when ``exc`` ends a run: the class's
    ``exit_code`` for a package error, the base class's for any other."""
    if isinstance(exc, BestSubsetError):
        return exc.exit_code
    return BestSubsetError.exit_code


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


def _emit(fmt, report, csv_text, text) -> None:
    """Write one report to stdout in ``fmt``: the ``report`` dict as JSON,
    or its ``csv_text`` or ``text`` rendering. Every subcommand's report
    reaches stdout here and nowhere else."""
    if fmt == "json":
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(csv_text if fmt == "csv" else text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# A synthetic instance not drawn yet: its ``d`` rows, predictor columns
# then responder columns, come from ``seed``.
_Synthetic = collections.namedtuple("_Synthetic", "d seed")


def _load_instance(args):
    """``(data, pred, resp, names)`` from file or seed; names is None without
    a header. A synthetic instance comes as its ``_Synthetic(d, seed)``,
    which :func:`_scans` draws once the request passes."""
    if args.input:
        data, names = ingest_csv(args.input)
        if not args.predictors or not args.responders:
            raise ValueError("--predictors and --responders are required with --input")
        pred = parse_column_spec(args.predictors, names, data.p, "--predictors")
        resp = parse_column_spec(args.responders, names, data.p, "--responders")
        return data, pred, resp, names
    if args.d is None or args.n is None or args.m is None:
        raise ValueError("either --input or all of --d/--n/--m are required")
    return (_Synthetic(args.d, args.seed), list(range(args.n)),
            list(range(args.n, args.n + args.m)), None)


def _scans(data, pred, resp, ks, methods, limit):
    """``(k, method, results, seconds)`` of each ``select_best`` call of
    one request, for each k of ``ks`` and each of ``methods``, in order.
    The whole request is checked first, so it fails before its first scan,
    and ``limit`` caps all its scans together. ``data`` may be the
    ``_Synthetic(d, seed)`` of a synthetic instance, drawn once the
    request passes."""
    _check_request(len(pred), data.d, ks, len(resp), limit, len(methods))
    if isinstance(data, _Synthetic):
        data = synthetic_observations(data.d, len(pred) + len(resp), seed=data.seed)
    for k in ks:
        for method in methods:
            t0 = time.perf_counter()
            results = select_best(data, pred, resp, k, method=method, pair_limit=limit)
            yield k, method, results, time.perf_counter() - t0


def cmd_select(args) -> int:
    data, pred, resp, names = _load_instance(args)
    # a sweep to k < 1 asks for that size alone, which the check refuses
    ks = list(range(1, args.k + 1)) if args.sweep and args.k > 0 else [args.k]
    t0 = time.perf_counter()
    records = [{
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
    } for k, _, results, _ in _scans(data, pred, resp, ks, [args.method], args.limit)
        for r in results]
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
    # select_best returns one record per responder, so records[0] exists
    rows = [list(records[0])] + [
        [";".join(map(str, v)) if isinstance(v, list) else str(v) for v in rec.values()]
        for rec in records]
    text = [f"method={args.method} k={args.k} d={data.d} n={len(pred)} m={len(resp)}"]
    text += [f"  responder {rec['responder']}: subset [{', '.join(map(str, rec['subset']))}]"
             f"  mse={rec['mse']:.6g}  r2={rec['r_squared']:.6g}"
             f"  omega2={rec['omega_sq_cond']:.6g}"
             f"  (skipped {rec['skipped_singular']} singular)" for rec in records]
    text.append(f"wall_time_s={wall:.3f}")
    _emit(args.format, report, _csv_text(rows), "\n".join(text) + "\n")
    return 0


def run_verify(data, names, pred, resp, k, limit):
    """Select with every method and compare winners and MSEs.

    Returns (report, ok). MSEs must agree within VERIFY_REL relative plus
    a VERIFY_FLOOR * sigma_y^2 absolute floor; winners must be identical.
    ``limit`` caps the pairs of all the methods together, checked before
    any scan.
    """
    by_method = {method: results
                 for _, method, results, _ in _scans(data, pred, resp, (k,), METHODS, limit)}
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
    data, pred, resp, names = _load_instance(args)
    report, ok = run_verify(data, names, pred, resp, args.k, args.limit)
    checks = report["checks"]
    rows = [["responder", "subsets_agree", "mse_agree", "mse_spread"]]
    rows += [[c["responder"], c["subsets_agree"], c["mse_agree"], c["mse_spread"]]
             for c in checks]
    rows.append(["pass", ok, "", ""])
    text = "".join(
        f"responder {c['responder']}: "
        f"{'ok' if c['subsets_agree'] and c['mse_agree'] else 'MISMATCH'} "
        f"(mse spread {c['mse_spread']:.3e})\n" for c in checks)
    text += f"verify: {'pass' if ok else 'FAIL'}\n"
    _emit(args.format, report, _csv_text(rows), text)
    return 0 if ok else VerificationFailure.exit_code


# the count_table row that counts each method's operations per subset
_COUNT_ROWS = {"cond-uncorrelation": "alg2", "algorithm1": "alg1",
               "hat-a": "hat-a", "hat-b": "hat-b"}


def run_bench(d, n, k, m, seed, limit):
    """Time full enumerations per method on one synthetic instance.

    Two ratios over hat-b are reported per method: ``speedup_vs_hat_b``,
    measured wall time per subset (the engine), and ``op_ratio_vs_hat_b``,
    counted operations per subset (the paper's claim). ``limit`` caps the
    pairs of all the methods together, checked before any scan.
    """
    from .opcount import count_table
    nsub = math.comb(n, k)
    timings, winners = [], []
    for _, method, results, wall in _scans(_Synthetic(d, seed), range(n), range(n, n + m),
                                           (k,), METHODS, limit):
        timings.append({"method": method, "wall_s": wall, "per_subset_s": wall / nsub})
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
    from .opcount import format_count_table
    report = run_bench(args.d, args.n, args.k, args.m, args.seed, args.limit)
    timings, ratios = report["timings"], report["op_ratio_vs_hat_b"]
    rows = [["method", "wall_s", "per_subset_s", "op_ratio_vs_hat_b"]]
    rows += [[t["method"], t["wall_s"], t["per_subset_s"], ratios[t["method"]]]
             for t in timings]
    rows.append([])  # the blank line before the count table
    text = [f"bench d={args.d} n={args.n} k={args.k} m={args.m} ({report['subsets']} subsets)"]
    text += [f"  {t['method']:>18}: {t['wall_s']:9.3f} s total, "
             f"{t['per_subset_s'] * 1e6:10.1f} us/subset" for t in timings]
    text += [f"  speedup vs hat-b: {meth:>18} {ratio:8.1f}x"
             for meth, ratio in report["speedup_vs_hat_b"].items()]
    text += [f"  op ratio vs hat-b: {meth:>17} {ratio:8.1f}x" for meth, ratio in ratios.items()]
    text += ["", format_count_table(report["counts"], "text")]
    _emit(args.format, report,
          _csv_text(rows) + format_count_table(report["counts"], "csv"), "\n".join(text))
    return 0


def cmd_count_ops(args) -> int:
    from .opcount import count_table, format_count_table
    rows = count_table(ks=range(1, args.k + 1), d=args.d, ms=range(1, args.m + 1))
    report = {"schema_version": SCHEMA_VERSION, "command": "count-ops", "rows": rows}
    _emit(args.format, report, format_count_table(rows, "csv"),
          format_count_table(rows, "text"))
    return 0


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


def _check_ranges(args) -> None:
    """Refuse a flag below its least value, before any subcommand runs:
    a count table (``count-ops``, ``bench``) needs ``--d`` of at least
    ``--k`` + 2 and ``count-ops`` ``--k`` and ``--m`` of at least 1, a pair
    limit cannot be negative (0 means unlimited), and synthetic data (no
    ``--input``) needs a seed of at least 0, 2 rows, a predictor and a responder."""
    if args.cmd == "count-ops":
        least = {"k": 1, "m": 1, "d": args.k + 2}
    elif getattr(args, "input", None):
        least = {"limit": 0}
    else:
        rows = max(2, args.k + 2) if args.cmd == "bench" else 2
        least = {"limit": 0, "seed": 0, "d": rows, "n": 1, "m": 1}
    for name, low in least.items():
        value = getattr(args, name)
        if value is not None and value < low:
            raise ValueError(f"--{name} must be at least {low}, got {value}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_ranges(args)
        return args.func(args)
    except (BestSubsetError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
