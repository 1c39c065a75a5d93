"""Observation matrices, column statistics and Pearson correlations.

All second moments use the 1/d convention (population form). The 1/d
factors cancel inside every correlation, so selection results do not
depend on that choice; keeping one convention everywhere just makes the
intermediate quantities comparable across modules.

Correlation entries are always computed pairwise from the two columns
involved, never through a blocked matrix product. That makes the entry
for a pair of columns independent of whatever other columns happen to be
in the same request, so slicing a precomputed correlation matrix is
bit-identical to recomputing the small matrix from raw data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalNumericError, ZeroVarianceColumn
from .tolerances import EPS_NUM, EPS_VAR

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
    The underlying array is set read-only, so the correlation model and
    Gram tables derived from it cannot go stale.
    """

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D table, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError("need at least 2 observations (rows)")
        if arr.shape[1] < 1:
            raise ValueError("need at least 1 variable (column)")
        if not np.isfinite(arr).all():
            raise ValueError("observation matrix contains NaN or infinite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        self.values = arr
        self.d = arr.shape[0]
        self.p = arr.shape[1]
        self._column_lists: dict[int, list[float]] = {}

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]

    def column_list(self, j: int) -> list[float]:
        """Column ``j`` as a cached list of Python floats (for scalar kernels)."""
        got = self._column_lists.get(j)
        if got is None:
            got = [float(v) for v in self.values[:, j]]
            self._column_lists[j] = got
        return got


@dataclass(frozen=True)
class ColumnStats:
    """First and second moment of one column, 1/d normalisation."""

    mean: float
    sigma: float
    max_abs_dev: float

    @property
    def degenerate(self) -> bool:
        return self.sigma <= EPS_VAR * self.max_abs_dev


def column_stats(x) -> ColumnStats:
    """Mean and standard deviation of a vector, dividing by d (not d-1).

    A constant column yields sigma exactly 0; no error is raised here.
    Callers that need a correlation decide whether that is fatal.
    """
    v = np.asarray(x, dtype=np.float64)
    mean = float(np.mean(v))
    dev = v - mean
    sigma = float(np.sqrt(np.dot(dev, dev) / v.shape[0]))
    return ColumnStats(mean=mean, sigma=sigma, max_abs_dev=float(np.max(np.abs(dev))))


# ---------------------------------------------------------------------------
# Pearson correlation
# ---------------------------------------------------------------------------

def _clamp_correlation(rho: float, what: str) -> float:
    # Rounding may push |rho| a hair past 1; anything further out means the
    # inputs were inconsistent and we refuse to mask it.
    if rho > 1.0:
        if rho - 1.0 > EPS_NUM:
            raise InternalNumericError(f"{what} = {rho!r} exceeds 1 beyond tolerance")
        return 1.0
    if rho < -1.0:
        if -1.0 - rho > EPS_NUM:
            raise InternalNumericError(f"{what} = {rho!r} is below -1 beyond tolerance")
        return -1.0
    return rho


def _pearson_from_devs(dev_a, stats_a: ColumnStats, dev_b, stats_b: ColumnStats,
                       d: int, label_a, label_b) -> float:
    if stats_a.degenerate:
        raise ZeroVarianceColumn(label_a, stats_a.sigma)
    if stats_b.degenerate:
        raise ZeroVarianceColumn(label_b, stats_b.sigma)
    cov = float(np.dot(dev_a, dev_b)) / d
    rho = cov / (stats_a.sigma * stats_b.sigma)
    return _clamp_correlation(rho, f"pearson({label_a!r}, {label_b!r})")


def pearson(x, y) -> float:
    """Pearson correlation of two equal-length vectors.

    Raises
    ------
    ZeroVarianceColumn
        If either vector is (numerically) constant.
    InternalNumericError
        If the computed value leaves [-1, 1] by more than the internal
        consistency tolerance. Values within tolerance are clamped.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError("pearson expects two 1-D vectors of equal length")
    sx = column_stats(xv)
    sy = column_stats(yv)
    return _pearson_from_devs(xv - sx.mean, sx, yv - sy.mean, sy, xv.shape[0], "x", "y")


def correlation_matrix(data: ObservationMatrix, columns) -> np.ndarray:
    """Correlation matrix of the requested columns of ``data``.

    Entries are computed pairwise and mirrored, so the diagonal is exactly
    1 and the matrix is exactly symmetric. Restricting ``columns`` to a
    subset reproduces the corresponding submatrix bit-for-bit.
    """
    return _pairwise(data, list(columns))[0]


def _pairwise(data: ObservationMatrix, cols):
    """Pairwise correlation matrix of ``cols`` plus each column's stats.

    Entry (i, j) depends only on columns i and j, and np.dot and the sigma
    product are symmetric in their operands, so any slice of the result,
    in either orientation, equals the pairwise value bit for bit.
    """
    devs, stats = _devs_and_stats(data, cols)
    q = len(cols)
    out = np.ones((q, q), dtype=np.float64)
    for i in range(q):
        for j in range(i + 1, q):
            r = _pearson_from_devs(devs[i], stats[i], devs[j], stats[j],
                                   data.d, cols[i], cols[j])
            out[i, j] = r
            out[j, i] = r
    return out, stats


def _devs_and_stats(data: ObservationMatrix, cols):
    devs = []
    stats = []
    for c in cols:
        s = column_stats(data.column(c))
        if s.degenerate:
            raise ZeroVarianceColumn(c, s.sigma)
        devs.append(data.column(c) - s.mean)
        stats.append(s)
    return devs, stats


# ---------------------------------------------------------------------------
# Correlation model: everything the subset scan needs, computed once
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationModel:
    """Global correlation structure for one selection problem.

    ``rx`` holds predictor/predictor correlations (n x n), ``ry`` holds one
    row per responder with its correlations against every predictor (m x n).
    Means and sigmas are kept so winners can be mapped back to regression
    coefficients in original units.
    """

    d: int
    predictors: tuple[int, ...]
    responders: tuple[int, ...]
    rx: np.ndarray
    ry: np.ndarray
    pred_mean: tuple[float, ...]
    pred_sigma: tuple[float, ...]
    resp_mean: tuple[float, ...]
    resp_sigma: tuple[float, ...]
    # plain nested lists of the same values, cached for the scalar kernels
    rx_rows: tuple[tuple[float, ...], ...] = field(repr=False, default=())
    ry_rows: tuple[tuple[float, ...], ...] = field(repr=False, default=())

    @property
    def n(self) -> int:
        return len(self.predictors)

    @property
    def m(self) -> int:
        return len(self.responders)


def build_correlation_model(data: ObservationMatrix, predictors, responders) -> CorrelationModel:
    """Compute all pairwise correlations needed by the subset search.

    Predictor/predictor correlations and predictor/responder correlations
    are slices of one :func:`correlation_matrix` pass over predictors then
    responders, the same pairwise routine as :func:`pearson`, which is what
    makes later slicing bit-faithful.
    """
    pred = tuple(int(c) for c in predictors)
    resp = tuple(int(c) for c in responders)
    if not pred or not resp:
        raise ValueError("need at least one predictor and one responder column")
    if set(pred) & set(resp):
        raise ValueError("predictor and responder columns must be disjoint")
    for c in pred + resp:
        if not 0 <= c < data.p:
            raise ValueError(f"column index {c} out of range for p={data.p}")

    n = len(pred)
    full, stats = _pairwise(data, pred + resp)
    rx, ry = full[:n, :n], full[n:, :n]
    pstats, rstats = stats[:n], stats[n:]

    return CorrelationModel(
        d=data.d,
        predictors=pred,
        responders=resp,
        rx=rx,
        ry=ry,
        pred_mean=tuple(s.mean for s in pstats),
        pred_sigma=tuple(s.sigma for s in pstats),
        resp_mean=tuple(s.mean for s in rstats),
        resp_sigma=tuple(s.sigma for s in rstats),
        rx_rows=tuple(tuple(float(v) for v in row) for row in rx),
        ry_rows=tuple(tuple(float(v) for v in row) for row in ry),
    )


def synthetic_observations(d: int, p: int, seed: int) -> ObservationMatrix:
    """Independent standard normal columns, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    return ObservationMatrix(rng.standard_normal((d, p)))
