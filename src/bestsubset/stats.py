"""Observation matrices, column statistics and Pearson correlations.

All second moments use the 1/d convention (population form). The 1/d
factors cancel inside every correlation, so selection results do not
depend on that choice; keeping one convention everywhere just makes the
intermediate quantities comparable across modules.

Every inner product, of the correlations and of the least-squares Gram
tables alike, comes out of one kernel, :func:`_dots`, which fills each
table in one call, a tile with itself too, with vector-vector matmuls:
numpy hands each, like each sum of squares of :func:`_moments`, to the
BLAS ddot that ``np.dot`` calls. So entry (i, j) depends only on rows i
and j, and a slice of a table is bit-identical to the small table
recomputed from raw data. A gemv, GEMM or einsum sums an entry in an
order set by its block, so none is used. The kernel asks for its rows a
tile at a time, so the correlations never hold all the centred columns
at once: beside the table, the model needs two tiles and the entries
the subset scan reads, the m x n responder rows and, for subsets of two
or more predictors, the n x n predictor block, never the m x m one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InternalNumericError, ZeroVarianceColumn
from .tolerances import EPS_VAR, _clamp_all

__all__ = [
    "ObservationMatrix",
    "ColumnStats",
    "CorrelationModel",
    "column_stats",
    "pearson",
    "correlation_matrix",
    "build_correlation_model",
    "synthetic_observations",
]


class ObservationMatrix:
    """A validated d x p table of observations, columns are variables.

    Parameters
    ----------
    values : array_like
        Two dimensional, at least 2 rows. Entries must all be finite.

    Notes
    -----
    The table is copied once, so a caller that later writes to its array
    does not change it; CSV ingest hands over the array it just parsed
    instead (:meth:`_adopt`), so the CLI holds the table once. Either way
    the array is set read-only, so the correlation model and Gram tables
    derived from it cannot go stale.
    """

    def __init__(self, values):
        self._hold(np.array(values, dtype=np.float64, order="C"))  # our own copy

    @classmethod
    def _adopt(cls, values: np.ndarray) -> "ObservationMatrix":
        """The table over ``values`` itself, validated as ``__init__``
        validates its copy: for a fresh array no one else writes to."""
        data = cls.__new__(cls)
        data._hold(np.ascontiguousarray(values, dtype=np.float64))
        return data

    def _hold(self, arr: np.ndarray) -> None:
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D table, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError("need at least 2 observations (rows)")
        if arr.shape[1] < 1:
            raise ValueError("need at least 1 variable (column)")
        if not np.isfinite(arr).all():
            raise ValueError("observation matrix contains NaN or infinite entries")
        arr.flags.writeable = False
        self.values = arr
        self.d = arr.shape[0]
        self.p = arr.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]

    def column_list(self, j: int) -> list[float]:
        """Column ``j`` as a fresh list of floats, for the scalar kernels;
        their callers convert what they read once per call, keeping none."""
        return self.values[:, j].tolist()


class ColumnStats(NamedTuple):
    """First and second moment of one column, 1/d normalisation (arrays from :func:`_moments`)."""

    mean: float
    sigma: float
    max_abs_dev: float

    @property
    def degenerate(self) -> bool:
        return self.sigma <= EPS_VAR * self.max_abs_dev


def column_stats(x) -> ColumnStats:
    """Mean and standard deviation of a 1-D vector, dividing by d (not d-1).

    A constant column yields sigma exactly 0; no error is raised here.
    Callers that need a correlation decide whether that is fatal.
    """
    if np.ndim(x) != 1:
        raise ValueError("column_stats expects a 1-D vector")
    if not np.size(x):
        raise ValueError("column_stats got an empty vector")
    return ColumnStats(*(float(f[0]) for f in _moments(np.array(x, dtype=np.float64, ndmin=2))))


def _moments(rows) -> ColumnStats:
    """ColumnStats arrays of the C-contiguous q x d ``rows``, centred in
    place, squares summed by :func:`_dots`' matmul stack, then made
    absolute in place (a tile-sized copy would raise the peak memory)."""
    mean = rows.mean(axis=1)
    rows -= mean[:, None]
    sigma = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0] / rows.shape[1])
    return ColumnStats(mean, sigma, np.abs(rows, out=rows).max(axis=1))


# ---------------------------------------------------------------------------
# Pearson correlation
# ---------------------------------------------------------------------------

def pearson(x, y) -> float:
    """Pearson correlation of two equal-length vectors.

    Raises
    ------
    ZeroVarianceColumn
        If either vector is (numerically) constant.
    InternalNumericError
        If a variance overflows or the value leaves [-1, 1] by more than
        the internal consistency tolerance (within it, it is clamped).
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError("pearson expects two 1-D vectors of equal length")
    if not xv.size:
        raise ValueError("pearson got two empty vectors")
    return float(_pairwise(np.column_stack((xv, yv)), [0, 1], ["x", "y"])[0][0, 1])


def correlation_matrix(data: ObservationMatrix, columns) -> np.ndarray:
    """Correlation matrix of the requested columns of ``data``.

    Entries are computed pairwise and mirrored, so the diagonal is exactly
    1 and the matrix is exactly symmetric. Restricting ``columns`` to a
    subset reproduces the corresponding submatrix bit-for-bit.
    """
    cols = list(columns)
    return _pairwise(data.values, cols, cols)[0]


# Rows in one tile: DOT_FLOATS floats' worth, at least DOT_MIN_ROWS. The
# budget keeps a tile pair's products in cache. The floor bounds how
# often a tall table's strided columns are gathered again: on a 2-vCPU
# Xeon, the 20000 x 152 model took 0.38 s in 3-row tiles, 0.17 s in
# 16-row tiles and 0.12 s with every column centred at once.
DOT_FLOATS = 2**16
DOT_MIN_ROWS = 16


def _dots(out, tile, d, first=0) -> None:
    """Fill the p x n ``out`` with ``np.dot(row first + i, row j)`` of
    rows of length d, bit for bit. ``tile(lo, hi)`` returns rows lo..hi-1
    as a C-contiguous (hi - lo) x d array. With ``first`` 0 the first n
    rows of ``out`` are the symmetric square over rows 0..n-1, and any
    rows after it the rectangle of the later rows against those n; with
    ``first`` n, ``out`` is that rectangle alone.

    Each pair of tiles, the later on the left, is one stack of (1 x d) @
    (d x 1) matmuls written straight into its block of ``out``. In the
    square only the pairs on and below the diagonal are computed, a tile
    with itself filling its whole block; the square's upper triangle is
    then mirrored from its lower one, so entry (i, j) of the square is
    np.dot(row max(i, j), row min(i, j)) either way (np.dot is symmetric
    bit for bit). Each later tile is asked for once, each earlier one once
    per later one; two are held at a time."""
    p, n = out.shape
    step = max(DOT_FLOATS // d, DOT_MIN_ROWS)
    for b in range(first, first + p, step):
        rb = tile(b, min(b + step, first + p))
        for a in range(0, min(b + 1, n), step):
            ra = rb[:n - a] if a == b else tile(a, min(a + step, n))
            np.matmul(rb[:, None, None, :], ra[None, :, :, None],
                      out=out[b - first:b - first + len(rb), a:a + len(ra), None, None])
            del ra  # before the next tile is built: two at a time
    for i in range(n - first):  # the square's upper triangle, if any
        out[i, i + 1:] = out[i + 1:n, i]


def _pairwise(table, cols, labels, n=None, square=True):
    """Correlations of the columns ``cols`` of the d x p ``table``: the
    n x n matrix of the first ``n`` (all of them by default), None unless
    ``square``, the (q - n) x n rows of the rest against those n, and
    the q means and sigmas. The rest are never paired among themselves.

    :func:`_moments` takes the columns a tile of :func:`_dots` at a time; the
    first bad one in column order raises, named by ``labels``, an overflowing
    variance before a zero one, with no numpy warning first. One :func:`_dots`
    call fills one table, the columns from ``first`` (0, or n with no square)
    against the first n, from centred columns a tile at a time, each rebuilt
    from its column and stored mean by the subtraction that :func:`_moments`
    made, so all q x d deviations never exist at once. Entry (i, j) depends
    only on columns i and j, and np.dot and the sigma product are symmetric in
    their operands, so any slice of the result, in either orientation, equals
    the pairwise value bit for bit. ``tolerances._clamp_all`` range-checks the
    entries computed in row-major order, the n x n matrix (whose mirrored
    entries clamp alike) before the rest's rows, each named by its two
    columns in column order.
    """
    d, q = table.shape[0], len(cols)
    n = q if n is None else n
    first = 0 if square else n
    step = max(DOT_FLOATS // d, DOT_MIN_ROWS)
    moments = np.empty((3, q))
    # a variance that overflows is the error below, so numpy does not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, q, step):
            moments[:, lo:lo + step] = _moments(table.T[list(cols[lo:lo + step])])
    mean, sigma, _ = stats = ColumnStats(*moments)
    for i in np.flatnonzero(~np.isfinite(sigma) | stats.degenerate):  # the first raises
        if not np.isfinite(sigma[i]):
            raise InternalNumericError(f"column {labels[i]!r} has a variance that overflows float64")
        raise ZeroVarianceColumn(labels[i], float(sigma[i]))

    def deviations(lo, hi):
        tile = np.empty((hi - lo, d))
        for row, c, mu in zip(tile, cols[lo:hi], mean[lo:hi]):
            np.subtract(table[:, c], mu, out=row)
        return tile

    r = np.empty((q - first, n))
    _dots(r, deviations, d, first)
    # scale row by row in place: whole-matrix temporaries would raise
    # the peak memory
    for s, row in zip(sigma[first:], r):
        row /= d
        row /= s * sigma[:n]
    if square:
        np.fill_diagonal(r, 1.0)  # the first n rows only: r is at least as tall
    _clamp_all(r, -1.0, 1.0, lambda i, j: "pearson({!r}, {!r})".format(
        *(labels[c] for c in sorted((j, first + i)))))
    return r[:n] if square else None, r[n - first:], mean, sigma


# ---------------------------------------------------------------------------
# Correlation model: everything the subset scan needs, computed once
# ---------------------------------------------------------------------------

class CorrelationModel(NamedTuple):
    """Global correlation structure for one selection problem.

    ``rx`` holds predictor/predictor correlations (n x n), or None in a
    model that serves only one-predictor subsets, whose block is [[1.0]];
    ``ry`` holds one row per responder with its correlations against every
    predictor (m x n), the only stored copy. Responders are never paired
    with each other. Means and sigmas are kept, as float64 arrays, so
    winners can be mapped back to regression coefficients in original units.
    """

    d: int
    predictors: tuple[int, ...]
    responders: tuple[int, ...]
    rx: np.ndarray | None
    ry: np.ndarray
    pred_mean: np.ndarray
    pred_sigma: np.ndarray
    resp_mean: np.ndarray
    resp_sigma: np.ndarray

    @property
    def n(self) -> int:
        return len(self.predictors)

    @property
    def m(self) -> int:
        return len(self.responders)


def _checked_columns(data: ObservationMatrix, predictors, responders):
    """``predictors`` and ``responders`` as tuples of ints, checked to be
    non-empty, disjoint and in range for ``data`` (ValueError)."""
    pred = tuple(int(c) for c in predictors)
    resp = tuple(int(c) for c in responders)
    if not pred or not resp:
        raise ValueError("need at least one predictor and one responder column")
    if set(pred) & set(resp):
        raise ValueError("predictor and responder columns must be disjoint")
    for c in pred + resp:
        if not 0 <= c < data.p:
            raise ValueError(f"column index {c} out of range for p={data.p}")
    return pred, resp


def build_correlation_model(data: ObservationMatrix, predictors, responders, *,
                            k: int | None = None) -> CorrelationModel:
    """Compute the correlations the subset search reads.

    ``k`` is the largest subset size the model serves; the default serves
    every size. The responder rows come from one :func:`_pairwise` pass
    over predictors then responders, the routine behind :func:`pearson`,
    which is what makes later slicing bit-faithful; the predictor block
    is computed only for k >= 2, since every one-predictor block is
    [[1.0]]. A constant or overflowing column raises.
    """
    pred, resp = _checked_columns(data, predictors, responders)
    n = len(pred)
    rx, ry, means, sigmas = _pairwise(data.values, pred + resp, pred + resp, n,
                                      square=k is None or k >= 2)
    return CorrelationModel(d=data.d, predictors=pred, responders=resp, rx=rx, ry=ry,
                            pred_mean=means[:n], pred_sigma=sigmas[:n],
                            resp_mean=means[n:], resp_sigma=sigmas[n:])


def synthetic_observations(d: int, p: int, seed: int) -> ObservationMatrix:
    """Independent standard normal columns, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    return ObservationMatrix._adopt(rng.standard_normal((d, p)))  # fresh: no copy
