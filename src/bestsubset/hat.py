"""Classical least-squares baseline via the normal equations.

The baseline scores a subset by actually fitting the regression: solve
(X^T X) beta = X^T y by Gaussian elimination, form the residual
e = y - X beta and take its squared norm. The d x d projection ("hat")
matrix is never materialised; all subset-level products are assembled by
lookup from inner-product tables computed once over the full data.

With several responders there are two schedules. Ordering A solves the
normal equations per responder and predicts with X beta. Ordering B
instead builds the d x (k+1) matrix X (X^T X)^{-1} once per subset and
streams each responder's X^T y through it, which never forms
coefficients at all. Both are exposed; their operation profiles differ
and are tracked by the counting harness.

As in the kernels module, the per-subset arithmetic is written as scalar
loops over nested lists so the counting harness can execute the same
code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import back_substitute, factor_symmetric, forward_apply, solve_symmetric

__all__ = [
    "GramTables",
    "DesignMatrix",
    "FitResult",
    "gram_products",
    "assemble_xtx",
    "assemble_xty",
    "scan_fit_a",
    "scan_fit_b",
    "fit_single",
    "fit_multi",
]


@dataclass(frozen=True)
class GramTables:
    """All inner products the subset scan will ever look up.

    ``sum_x``/``sum_y`` are inner products against the all-ones column;
    ``xx`` is indexed by predictor position (not raw column index), ``xy``
    by responder position then predictor position.
    """

    d: int
    sum_x: tuple[float, ...]
    sum_y: tuple[float, ...]
    xx: tuple[tuple[float, ...], ...]
    xy: tuple[tuple[float, ...], ...]
    yy: tuple[float, ...]


def gram_products(data, predictors, responders) -> GramTables:
    """Precompute every pairwise inner product once, with numpy.

    This is the one-time global pass; everything after it assembles
    subset-level matrices purely by lookup.
    """
    return _gram([data.column(c) for c in predictors],
                 [data.column(c) for c in responders], data.d)


def _gram(pcols, rcols, d) -> GramTables:
    """Inner-product tables of predictor and responder arrays of length d."""
    ones = np.ones(d, dtype=np.float64)
    sum_x = tuple(float(np.dot(ones, c)) for c in pcols)
    sum_y = tuple(float(np.dot(ones, c)) for c in rcols)
    n = len(pcols)
    xx = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = float(np.dot(pcols[i], pcols[j]))
            xx[i][j] = v
            xx[j][i] = v
    xy = tuple(
        tuple(float(np.dot(pcols[j], rc)) for j in range(n)) for rc in rcols
    )
    yy = tuple(float(np.dot(rc, rc)) for rc in rcols)
    return GramTables(
        d=d,
        sum_x=sum_x,
        sum_y=sum_y,
        xx=tuple(tuple(row) for row in xx),
        xy=xy,
        yy=yy,
    )


def assemble_xtx(tables: GramTables, subset):
    """Normal matrix of [1 | x_subset] as a fresh scratch, lookups only."""
    k = len(subset)
    n = k + 1
    a = [[None] * n for _ in range(n)]
    a[0][0] = float(tables.d)
    for j in range(k):
        s = tables.sum_x[subset[j]]
        a[0][j + 1] = s
        a[j + 1][0] = s
    for i in range(k):
        row = tables.xx[subset[i]]
        for j in range(k):
            a[i + 1][j + 1] = row[subset[j]]
    return a


def assemble_xty(tables: GramTables, subset, t):
    """Right hand side X^T y for responder position ``t``, lookups only."""
    row = tables.xy[t]
    out = [tables.sum_y[t]]
    for j in subset:
        out.append(row[j])
    return out


# ---------------------------------------------------------------------------
# scalar fitting kernels
# ---------------------------------------------------------------------------

def _sse_from_rows(rows, vec, y, n, d, collect):
    """Residual pass: predict row by row as the dot product of ``rows[r]``
    with ``vec``, subtract, accumulate the squared norm.

    Ordering A passes the design rows with beta, ordering B the projector
    rows with X^T y. The all-ones column takes part in the accumulation
    like any other, so each row costs n + 1 products with the square.
    """
    sse = 0.0
    res = [] if collect else None
    for r in range(d):
        row = rows[r]
        acc = 0.0
        for j in range(n):
            acc = acc + row[j] * vec[j]
        e = y[r] - acc
        sse = sse + e * e
        if collect:
            res.append(e)
    return sse, res


def scan_fit_a(xtx, xtys, cols, ys, d, collect_residual=False):
    """Ordering A: factor the normal matrix once, then per responder
    solve for the coefficients and run the residual pass.

    ``xtx`` is consumed. Returns (sses, betas, residuals) with residuals
    None unless requested.
    """
    n = len(xtx)
    mult, recips = factor_symmetric(xtx, n)
    rows = list(zip(*cols))
    sses = []
    betas = []
    residuals = [] if collect_residual else None
    for t, xty in enumerate(xtys):
        v = list(xty)
        forward_apply(mult, v, n)
        beta = back_substitute(xtx, recips, v, n)
        sse, res = _sse_from_rows(rows, beta, ys[t], n, d, collect_residual)
        sses.append(sse)
        betas.append(beta)
        if collect_residual:
            residuals.append(res)
    return sses, betas, residuals


def scan_fit_b(xtx, xtys, cols, ys, d, collect_residual=False):
    """Ordering B: factor once, build the d x (k+1) projector block
    X (X^T X)^{-1} row by row, then stream each responder through it.
    Coefficients are never formed. ``xtx`` is consumed.
    """
    n = len(xtx)
    mult, recips = factor_symmetric(xtx, n)
    rows = []
    for r in range(d):
        v = [cols[j][r] for j in range(n)]
        forward_apply(mult, v, n)
        rows.append(back_substitute(xtx, recips, v, n))
    sses = []
    residuals = [] if collect_residual else None
    for t, xty in enumerate(xtys):
        sse, res = _sse_from_rows(rows, xty, ys[t], n, d, collect_residual)
        sses.append(sse)
        if collect_residual:
            residuals.append(res)
    return sses, residuals


# ---------------------------------------------------------------------------
# public fitting API
# ---------------------------------------------------------------------------

class DesignMatrix:
    """Regression design: an all-ones offset column followed by k predictors.

    Stored column-major as lists of Python floats. Requires k + 1 <= d so
    the normal equations can be nonsingular; actual rank is checked by the
    elimination pivots during fitting.
    """

    def __init__(self, predictor_columns):
        cols = [[float(v) for v in c] for c in predictor_columns]
        if not cols:
            raise ValueError("need at least one predictor column")
        d = len(cols[0])
        if any(len(c) != d for c in cols):
            raise ValueError("predictor columns have unequal lengths")
        if len(cols) + 1 > d:
            raise ValueError(
                f"{len(cols)} predictors plus offset exceed {d} observations"
            )
        self.d = d
        self.k = len(cols)
        self.cols = [[1.0] * d] + cols


@dataclass(frozen=True)
class FitResult:
    """One fitted regression: coefficients, residual and its mean square.

    ``beta[0]`` is the offset. ``mse`` uses the 1/d convention.
    """

    beta: tuple[float, ...]
    residual: tuple[float, ...]
    sse: float
    mse: float


def fit_single(X: DesignMatrix, y) -> FitResult:
    """Least-squares fit of one responder on a design matrix."""
    return fit_multi(X, [y], ordering="a")[0]


def fit_multi(X: DesignMatrix, ys, ordering: str = "a") -> list[FitResult]:
    """Fit every responder in ``ys`` on the same design.

    ``ordering`` picks the multi-responder schedule ("a" or "b"); results
    agree to rounding. For ordering B the coefficients are recovered by a
    separate solve of the same assembled normal equations, since that
    schedule does not produce them.
    """
    ys = [[float(v) for v in y] for y in ys]
    for y in ys:
        if len(y) != X.d:
            raise ValueError("responder length does not match design")
    tables = _gram([np.asarray(c, dtype=np.float64) for c in X.cols[1:]],
                   [np.asarray(y, dtype=np.float64) for y in ys], X.d)
    idx = range(X.k)
    xtx = assemble_xtx(tables, idx)
    xtys = [assemble_xty(tables, idx, t) for t in range(len(ys))]
    if ordering == "a":
        sses, betas, residuals = scan_fit_a(xtx, xtys, X.cols, ys, X.d,
                                            collect_residual=True)
    elif ordering == "b":
        sses, residuals = scan_fit_b(xtx, xtys, X.cols, ys, X.d,
                                     collect_residual=True)
        # scan_fit_b consumed xtx
        betas = [solve_symmetric(assemble_xtx(tables, idx), xty) for xty in xtys]
    else:
        raise ValueError(f"unknown ordering {ordering!r}, expected 'a' or 'b'")
    out = []
    for t in range(len(ys)):
        sse = float(sses[t])
        out.append(FitResult(
            beta=tuple(float(b) for b in betas[t]),
            residual=tuple(float(e) for e in residuals[t]),
            sse=sse,
            mse=sse / X.d,
        ))
    return out
