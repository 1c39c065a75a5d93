"""Arithmetic operation counting for the per-subset kernels.

The selling point of the determinant-ratio method is its operation
count, so the count has to be measured, not asserted. This module wraps
the arrays production reads (the correlation model, or the Gram matrix
and the rows [1; X; Y]) in a counting type, with one ``np.vectorize``
per measurement, and pushes them through the very same kernel functions
production uses; every +, - (counted as an addition), * and / is
tallied. Comparisons, copies, abs and index arithmetic are free,
matching how the reference counts are stated.

Counting conventions worth knowing before reading the numbers:

* a dot product accumulates into a running sum starting from 0, and the
  first addition into that accumulator is counted like any other;
* the all-ones offset column participates in predictions as a real
  multiplication;
* pivot reciprocals are taken once and reused, so a factorisation plus
  any number of solves spends exactly one division per pivot.

Predicted counts are evaluated in exact rational arithmetic from the
closed-form polynomials; they are integers for every valid (k, d, m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import hat
from .errors import InternalNumericError, SingularMatrixError
from .gauss import factor_symmetric
from .kernels import conditional_uuc, triangulate
from .search import _alg1_block
from .stats import build_correlation_model, synthetic_observations

__all__ = [
    "OpTally",
    "CountingTally",
    "counted",
    "predicted_counts",
    "measure_counts",
    "COUNT_METHODS",
    "count_table",
    "format_count_table",
]

COUNT_METHODS = ("alg1", "alg2", "hat-single", "hat-a", "hat-b")


@dataclass(frozen=True)
class OpTally:
    """Immutable snapshot of counted arithmetic."""

    adds: int
    muls: int
    divs: int

    @property
    def total(self) -> int:
        return self.adds + self.muls + self.divs


class CountingTally:
    """Mutable accumulator shared by all counted values of one run."""

    __slots__ = ("adds", "muls", "divs")

    def __init__(self):
        self.adds = 0
        self.muls = 0
        self.divs = 0

    def snapshot(self) -> OpTally:
        return OpTally(self.adds, self.muls, self.divs)


def _val(x):
    return x.v if type(x) is _Counted else x


class _Counted:
    """A float that reports every arithmetic operation to its tally.

    Mixed expressions with plain numbers count too, via the reflected
    operators. Unary minus and abs are free, as are all comparisons.
    """

    __slots__ = ("v", "t")

    def __init__(self, v, t):
        self.v = v
        self.t = t

    def __add__(self, o):
        self.t.adds += 1
        return _Counted(self.v + _val(o), self.t)

    def __radd__(self, o):
        self.t.adds += 1
        return _Counted(_val(o) + self.v, self.t)

    def __sub__(self, o):
        self.t.adds += 1
        return _Counted(self.v - _val(o), self.t)

    def __rsub__(self, o):
        self.t.adds += 1
        return _Counted(_val(o) - self.v, self.t)

    def __mul__(self, o):
        self.t.muls += 1
        return _Counted(self.v * _val(o), self.t)

    def __rmul__(self, o):
        self.t.muls += 1
        return _Counted(_val(o) * self.v, self.t)

    def __truediv__(self, o):
        self.t.divs += 1
        return _Counted(self.v / _val(o), self.t)

    def __rtruediv__(self, o):
        self.t.divs += 1
        return _Counted(_val(o) / self.v, self.t)

    def __neg__(self):
        return _Counted(-self.v, self.t)

    def __abs__(self):
        return abs(self.v)

    def __float__(self):
        return float(self.v)

    def __lt__(self, o):
        return self.v < _val(o)

    def __le__(self, o):
        return self.v <= _val(o)

    def __gt__(self, o):
        return self.v > _val(o)

    def __ge__(self, o):
        return self.v >= _val(o)

    def __eq__(self, o):
        return self.v == _val(o)

    __hash__ = None

    def __repr__(self):
        return f"counted({self.v!r})"


def counted(value, tally: CountingTally) -> _Counted:
    return _Counted(float(value), tally)


# ---------------------------------------------------------------------------
# closed-form predictions
# ---------------------------------------------------------------------------

def _poly(*terms) -> int:
    total = Fraction(0)
    for t in terms:
        total += t
    if total.denominator != 1:
        raise InternalNumericError(f"count polynomial gave non-integer {total}")
    return int(total)


def predicted_counts(method: str, k: int, d: int | None = None, m: int = 1) -> OpTally:
    """Closed-form operation counts for one scored subset.

    For the determinant-ratio kernels this covers one subset and all m
    responders. For the baselines d is required because the residual pass
    touches every observation. "hat-single" is the one-responder baseline,
    "hat-a" at m=1; "hat-a"/"hat-b" are the two multi-responder schedules
    and "alg1" scales its single-responder cost by m.
    """
    if method not in COUNT_METHODS:
        raise ValueError(f"unknown count method {method!r}")
    if k < 1:
        raise ValueError("k must be at least 1")
    if m < 1:
        raise ValueError("m must be at least 1")
    kf = Fraction(k)
    k2 = kf * kf
    k3 = k2 * kf
    if method == "alg1":
        adds = m * _poly(k3 / 6, k2 / 2, kf / 3)
        muls = m * _poly(k3 / 6, k2, 5 * kf / 6)
        return OpTally(adds, muls, m * k)
    if method == "alg2":
        adds = _poly(k3 / 6, -kf / 6, m * (k2 / 2 + kf / 2))
        muls = _poly(k3 / 6, k2 / 2, -5 * kf / 3, 1, m * (k2 / 2 + 3 * kf / 2 - 1))
        return OpTally(adds, muls, k - 1)
    if d is None:
        raise ValueError(f"method {method!r} needs d")
    if method == "hat-single" and m != 1:
        raise ValueError("hat-single is defined for m=1")
    if method in ("hat-single", "hat-a"):
        adds = _poly(k3 / 6, k2 / 2, kf / 3, m * (kf * d + 3 * d + k2 + kf))
        muls = _poly(k3 / 6, k2, 5 * kf / 6, m * (kf * d + 2 * d + k2 + 2 * kf + 1))
        return OpTally(adds, muls, k + 1)
    # hat-b
    adds = _poly(k3 / 6, k2 / 2, kf / 3, m * (kf * d + 3 * d), (k2 + kf) * d)
    muls = _poly(k3 / 6, k2, 5 * kf / 6, m * (kf * d + 2 * d), (k2 + 2 * kf + 1) * d)
    return OpTally(adds, muls, k + 1)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _run_counted(method, data, model, k, m, tally):
    # the scored subset range(k) is the whole k-predictor model, and every
    # kernel reads counting copies of the arrays production reads
    subset = tuple(range(k))
    wrap = np.vectorize(lambda x: counted(x, tally), otypes=[object])
    if method == "alg1":
        # the block's first k pivots are these, so a draw it would skip raises
        factor_symmetric(model.rx.tolist(), k)
        _alg1_block(wrap(model.rx), wrap(model.ry), np.array([subset]))
    elif method == "alg2":
        cache = triangulate(wrap(model.rx).tolist())
        for rho in wrap(model.ry).tolist():
            conditional_uuc(cache, rho)
    else:
        tables = hat.gram_products(data, range(k), range(k, k + m))
        g, rows = wrap(tables.g), wrap(tables.rows)
        # [1; X] is rows 0..k of the Gram table, and responder t row k+1+t
        xtx, xtys = g[:k + 1, :k + 1].tolist(), g[k + 1:, :k + 1].tolist()
        fit = hat.scan_fit_b if method == "hat-b" else hat.scan_fit_a
        fit(xtx, xtys, rows[:k + 1].tolist(), rows[k + 1:].tolist(), data.d)


def measure_counts(method: str, k: int, d: int = 30, m: int = 1,
                   seed: int = 0) -> OpTally:
    """Execute one scored subset with counting scalars and return the tally.

    Runs three times on fresh random data and insists the tallies agree:
    the kernels are straight-line given the shape, so any disagreement
    means a data-dependent branch crept in. Random inputs that happen to
    be singular are regenerated.
    """
    if method not in COUNT_METHODS:
        raise ValueError(f"unknown count method {method!r}")
    if method == "hat-single" and m != 1:
        raise ValueError("hat-single is defined for m=1")
    if d < k + 2:
        raise ValueError(f"need d >= k+2 observations, got d={d}, k={k}")
    tallies = []
    attempt = 0
    while len(tallies) < 3 and attempt < 23:
        data = synthetic_observations(d, k + m, seed=seed + 7919 * attempt)
        attempt += 1
        try:
            model = build_correlation_model(data, range(k), range(k, k + m))
            tally = CountingTally()
            _run_counted("hat-a" if method == "hat-single" else method,
                         data, model, k, m, tally)
        except SingularMatrixError:
            continue
        tallies.append(tally.snapshot())
    if len(tallies) < 3:
        raise InternalNumericError("could not generate enough nonsingular instances")
    if any(t != tallies[0] for t in tallies[1:]):
        raise InternalNumericError(
            f"operation counts varied across random inputs for {method}: {tallies}"
        )
    return tallies[0]


# ---------------------------------------------------------------------------
# measured vs predicted tables
# ---------------------------------------------------------------------------

def count_table(ks=range(1, 9), d: int = 30, ms=(1,)):
    """Measured and predicted counts over a (method, k, m) grid.

    Returns a list of row dicts, one per (method, k, m), ready for CSV or
    text rendering. Every method in COUNT_METHODS appears at every
    requested m except "hat-single", which is only defined for m=1.
    """
    rows = []
    for method in COUNT_METHODS:
        for m in ms:
            if method == "hat-single" and m != 1:
                continue
            for k in ks:
                pred = predicted_counts(method, k, d=d, m=m)
                meas = measure_counts(method, k, d=d, m=m)
                rows.append({
                    "method": method,
                    "k": k,
                    "d": d,
                    "m": m,
                    "adds_measured": meas.adds,
                    "adds_predicted": pred.adds,
                    "muls_measured": meas.muls,
                    "muls_predicted": pred.muls,
                    "divs_measured": meas.divs,
                    "divs_predicted": pred.divs,
                    "exact_match": meas == pred,
                })
    return rows


def format_count_table(rows, fmt: str = "text") -> str:
    """Render count_table rows as CSV or an aligned text table."""
    cols = ["method", "k", "d", "m",
            "adds_measured", "adds_predicted",
            "muls_measured", "muls_predicted",
            "divs_measured", "divs_predicted", "exact_match"]
    if fmt == "csv":
        lines = [",".join(cols)]
        for r in rows:
            lines.append(",".join(str(r[c]) for c in cols))
        return "\n".join(lines) + "\n"
    widths = [max(len(c), max((len(str(r[c])) for r in rows), default=0)) for c in cols]
    def line(values):
        return "  ".join(str(v).rjust(w) for v, w in zip(values, widths))
    out = [line(cols), line(["-" * w for w in widths])]
    for r in rows:
        out.append(line([r[c] for c in cols]))
    return "\n".join(out) + "\n"
