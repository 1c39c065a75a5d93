"""Classical least-squares baseline via the normal equations.

The baseline scores a subset by actually fitting the regression: solve
(X^T X) beta = X^T y by Gaussian elimination, form the residual
e = y - X beta and take its squared norm. The d x d projection ("hat")
matrix is never materialised; all subset-level products are assembled by
lookup from one Gram table, the inner products of [1; X; Y] with [1; X],
filled once over the full data by one call of :func:`stats._dots`, the
kernel behind the correlation model, which takes the stacked rows as
slices, a tile at a time. The rows are stacked once, kept with their
Gram table: :func:`gram_products` gathers them from the table's columns
for the scan and the op counter, and :func:`fit_multi` from the design
rows and the responders.

With several responders there are two schedules. Ordering A solves the
normal equations per responder and predicts with X beta. Ordering B
instead builds the d x (k+1) matrix X (X^T X)^{-1} once per subset and
streams each responder's X^T y through it, which never forms
coefficients at all. Both are exposed; their operation profiles differ
and are tracked by the counting harness.

One block kernel, :func:`_residual_block`, fits numpy blocks of subsets
for both the ``hat-*`` scan (:func:`_lsq_block`) and :func:`fit_multi`.
It runs the scalar fits' operations in their order, elementwise across
the block, so its sums of squares are :func:`scan_fit_a`'s and
:func:`scan_fit_b`'s bit for bit; those remain only as the tests'
reference and a per-subset timing probe, as the op counter counts the
block kernel. :func:`_winners_betas` solves the scan's winners on its
tables, and :func:`fit_multi`'s subset: no other module indexes a Gram table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InternalNumericError
from .gauss import _eliminate, back_substitute, factor_symmetric, forward_apply, solve_symmetric
from .stats import _checked_columns, _dots

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


class GramTables(NamedTuple):
    """The ``rows`` [1; X; Y] (all-ones, n predictors, m responders), one
    contiguous d-vector each, and ``g``, the (1 + n + m) x (1 + n) table of
    their inner products with [1; X]: every one the subset scan will ever
    look up, by position."""

    d: int
    n: int
    g: np.ndarray
    rows: np.ndarray


def _stacked(columns) -> np.ndarray:
    """The rows [1; X; Y]: the all-ones row, then one row per d-vector
    in ``columns``, filled into one preallocated array."""
    rows = np.empty((1 + len(columns), len(columns[0])))
    rows[0] = 1.0
    for row, column in zip(rows[1:], columns):
        row[...] = column
    return rows


def gram_products(data, predictors, responders) -> GramTables:
    """Stack the rows [1; X; Y] once and precompute their inner products
    with [1; X], with numpy.

    This is the one-time global pass; everything after it assembles
    subset-level matrices purely by lookup. The columns are checked as
    :func:`stats.build_correlation_model` checks them, and a column whose
    squared norm overflows float64 raises InternalNumericError: every
    subset holding it would score NaN.
    """
    pred, resp = _checked_columns(data, predictors, responders)
    columns = pred + resp
    return _gram_tables(_stacked([data.column(c) for c in columns]), len(pred), columns)


def _gram_tables(rows, n, columns) -> GramTables:
    """GramTables over the stacked rows [1; X; Y] ``rows`` themselves, X
    of ``n`` rows, filled in one call as the model is: the square of
    [1; X] and Y against it. The overflow error names row 1 + i
    ``columns[i]``."""
    g = np.empty((len(rows), 1 + n))
    # an entry overflows (or sums inf and -inf) only beside a squared norm
    # that overflows, which is the error below, so numpy does not warn
    with np.errstate(over="ignore", invalid="ignore"):
        _dots(g, lambda lo, hi: rows[lo:hi], rows.shape[1])
        norms = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]
    bad = np.flatnonzero(~np.isfinite(norms))
    if len(bad):
        raise InternalNumericError(
            f"column {columns[bad[0] - 1]!r} has a squared norm that overflows float64 "
            "in the least-squares Gram table")
    return GramTables(d=rows.shape[1], n=n, g=g, rows=rows)


def assemble_xtx(tables: GramTables, subset):
    """Normal matrix of [1 | x_subset] as a fresh scratch, lookups only."""
    pos = [0, *(1 + j for j in subset)]
    return tables.g[np.ix_(pos, pos)].tolist()


def assemble_xty(tables: GramTables, subset, t):
    """Right hand side X^T y for responder position ``t``, lookups only."""
    return tables.g[1 + tables.n + t, [0, *(1 + j for j in subset)]].tolist()


# ---------------------------------------------------------------------------
# the block kernel
# ---------------------------------------------------------------------------

def _residual_block(tables, subsets, method):
    """Least-squares residuals of one block of subsets, per responder.

    ``method`` is "hat-a" or "hat-b". Returns the b x m x d residuals and
    the b-mask of subsets whose normal matrix breaks the collinearity rule
    (their residuals mean nothing). The normal matrices and X^T y (the
    responders' rows of ``tables.g``) are one fancy index each into it,
    the columns one into ``tables.rows``; every later step is the scalar
    fit's own operation, in its order: the elimination and solves are
    ``gauss._eliminate``, ``forward_apply`` and ``back_substitute``
    themselves, run on the block, and each prediction sums its k + 1
    products from zero.
    """
    b, k = subsets.shape
    q, d, n, rows = k + 1, tables.d, tables.n, tables.rows
    # q x b positions in ``rows``: the all-ones row, then the subset
    pos = np.concatenate((np.zeros((1, b), dtype=np.intp), subsets.T + 1))
    y = rows[1 + n:]
    # entry (i, j) of the normal matrix is a b x 1 column, so it
    # broadcasts against the b x m and b x d right hand sides
    a = tables.g[pos[:, None, :], pos[None, :, :], None]
    xty = list(tables.g[1 + n + np.arange(len(y)), pos[:, :, None]])
    cols = list(rows[pos])
    # skipped subsets divide by tiny pivots, and Python floats overflow
    # to inf and NaN without a warning: the block runs as silently
    with np.errstate(all="ignore"):
        mult, recips, singular = _eliminate(a, q, q)  # factor_symmetric's pivots
        if method == "hat-a":
            forward_apply(mult, xty, q)
            basis, vec = cols, back_substitute(a, recips, xty, q)
        else:
            forward_apply(mult, cols, q)
            basis, vec = back_substitute(a, recips, cols, q), xty
        acc = np.zeros((b, len(y), d), dtype=rows.dtype)
        for j in range(q):
            acc += basis[j][:, None, :] * vec[j][:, :, None]
        np.subtract(y, acc, out=acc)
    return acc, singular.ravel()


def _sse(residuals):
    """The b x m sums of squares of b x m x d ``residuals``, overwritten,
    summed along d in order by ``np.add.accumulate`` as the scalar pass does."""
    with np.errstate(all="ignore"):
        np.multiply(residuals, residuals, out=residuals)
        np.add.accumulate(residuals, axis=2, out=residuals)
    return residuals[:, :, -1]


def _lsq_block(tables, subsets, method, sigma_sq):
    """The ``hat-*`` scan's b x m scores, SSE over d and over the
    responders' variances ``sigma_sq`` (omega^2), and singular mask."""
    residuals, singular = _residual_block(tables, subsets, method)
    with np.errstate(all="ignore"):
        return _sse(residuals) / tables.d / sigma_sq, singular


def _winners_betas(tables, s):
    """The ``hat-*`` winners' coefficients, offset first, winner t in
    column t of the k x m ``s`` and of the result: one block solve of the
    normal equations the scan eliminated, so none is singular. A k x 1
    ``s`` is one subset, solved for every responder (:func:`fit_multi`)."""
    pos = np.insert(s + 1, 0, 0, axis=0)  # the all-ones row, then the subset
    return solve_symmetric(tables.g[pos[:, None], pos[None, :]],
                           tables.g[np.arange(1 + tables.n, len(tables.g)), pos])


# ---------------------------------------------------------------------------
# scalar reference fits
# ---------------------------------------------------------------------------

def _sse_from_rows(rows, vec, y, n, d):
    """Residual pass: predict row by row as the dot product of ``rows[r]``
    with ``vec``, subtract, accumulate the squared norm.

    Ordering A passes the design rows with beta, ordering B the projector
    rows with X^T y. The all-ones column takes part in the accumulation
    like any other, so each row costs n + 1 products with the square.
    """
    sse = 0.0
    for r in range(d):
        row = rows[r]
        acc = 0.0
        for j in range(n):
            acc = acc + row[j] * vec[j]
        e = y[r] - acc
        sse = sse + e * e
    return sse


def scan_fit_a(xtx, xtys, cols, ys, d):
    """Ordering A: factor the normal matrix once, then per responder
    solve for the coefficients and run the residual pass.

    ``xtx`` is consumed. Returns the list of sums of squared residuals.
    """
    n = len(xtx)
    mult, recips = factor_symmetric(xtx, n)
    rows = list(zip(*cols))
    sses = []
    for t, xty in enumerate(xtys):
        v = list(xty)
        forward_apply(mult, v, n)
        beta = back_substitute(xtx, recips, v, n)
        sses.append(_sse_from_rows(rows, beta, ys[t], n, d))
    return sses


def scan_fit_b(xtx, xtys, cols, ys, d):
    """Ordering B: factor once, build the d x (k+1) projector block
    X (X^T X)^{-1} row by row, then stream each responder through it.
    Coefficients are never formed. ``xtx`` is consumed. Returns the
    list of sums of squared residuals.
    """
    n = len(xtx)
    mult, recips = factor_symmetric(xtx, n)
    rows = []
    for r in range(d):
        v = [cols[j][r] for j in range(n)]
        forward_apply(mult, v, n)
        rows.append(back_substitute(xtx, recips, v, n))
    return [_sse_from_rows(rows, xty, ys[t], n, d) for t, xty in enumerate(xtys)]


# ---------------------------------------------------------------------------
# public fitting API
# ---------------------------------------------------------------------------

class DesignMatrix:
    """Regression design: an all-ones offset column followed by k predictors.

    Stored as one (k + 1) x d float64 array ``rows``, the rows [1; X].
    Requires k + 1 <= d so the normal equations can be nonsingular, and
    finite entries; actual rank is checked by the elimination pivots
    during fitting.
    """

    def __init__(self, predictor_columns):
        cols = [np.asarray(c, dtype=np.float64) for c in predictor_columns]
        if not cols:
            raise ValueError("need at least one predictor column")
        d = len(cols[0])
        if any(len(c) != d for c in cols):
            raise ValueError("predictor columns have unequal lengths")
        if len(cols) + 1 > d:
            raise ValueError(
                f"{len(cols)} predictors plus offset exceed {d} observations"
            )
        if not all(np.isfinite(c).all() for c in cols):
            raise ValueError("design matrix contains NaN or infinite entries")
        self.d = d
        self.k = len(cols)
        self.rows = _stacked(cols)


class FitResult(NamedTuple):
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

    ``ordering`` ("a" or "b") picks the block kernel's schedule for the
    residuals; results agree to rounding. Either way :func:`_winners_betas`,
    the scan's winners' block solve, gives the coefficients: one
    factorisation for every responder's X^T y, read from Gram tables built
    as :func:`gram_products` builds the scan's. An unknown ordering, empty
    ``ys`` or a NaN or infinite value raises ValueError, a collinear design
    SingularMatrixError, and a column whose squared norm overflows
    float64 InternalNumericError (predictors, then ys, from 0).
    """
    if ordering not in ("a", "b"):
        raise ValueError(f"unknown ordering {ordering!r}, expected 'a' or 'b'")
    ys = [np.asarray(y, dtype=np.float64) for y in ys]
    for y in ys:
        if len(y) != X.d:
            raise ValueError("responder length does not match design")
        if not np.isfinite(y).all():
            raise ValueError("responder contains NaN or infinite entries")
    if not ys:
        raise ValueError("need at least one responder column")
    tables = _gram_tables(_stacked([*X.rows[1:], *ys]), X.k, range(X.k + len(ys)))
    subset = np.arange(X.k)
    # the block divides by a collinear pivot before it raises, unwarned
    with np.errstate(all="ignore"):
        betas = np.array(_winners_betas(tables, subset[:, None])).T.tolist()
    residuals, _ = _residual_block(tables, subset[None, :], "hat-" + ordering)
    res = residuals[0].tolist()
    sses = _sse(residuals)[0].tolist()
    return [FitResult(beta=tuple(betas[t]), residual=tuple(res[t]), sse=sses[t],
                      mse=sses[t] / X.d)
            for t in range(len(ys))]
