"""Observation matrices, column statistics and Pearson correlations.

All second moments use the 1/d convention (population form). The 1/d
factors cancel inside every correlation, so selection results do not
depend on that choice; keeping one convention everywhere just makes the
intermediate quantities comparable across modules.

Every correlation comes out of one routine, :func:`_pairwise`, pairwise
from the two columns involved and never through a blocked matrix product
(a block of a BLAS Gram matrix is not bit-identical to that block computed
alone). So slicing a precomputed correlation matrix is bit-identical to
recomputing the small matrix from raw data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalNumericError, ZeroVarianceColumn
from .tolerances import EPS_VAR, _clamp

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
        arr = np.array(values, dtype=np.float64, order="C")  # our own copy
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


@dataclass(frozen=True)
class ColumnStats:
    """First and second moment of one column, 1/d normalisation."""

    mean: float
    sigma: float
    max_abs_dev: float

    @property
    def degenerate(self) -> bool:
        return self.sigma <= EPS_VAR * self.max_abs_dev


def _centre(x) -> tuple[np.ndarray, ColumnStats]:
    """Deviations of a vector from its mean, with its ColumnStats."""
    v = np.asarray(x, dtype=np.float64)
    mean = float(np.mean(v))
    dev = v - mean
    sigma = float(np.sqrt(np.dot(dev, dev) / v.shape[0]))
    return dev, ColumnStats(mean=mean, sigma=sigma, max_abs_dev=float(np.max(np.abs(dev))))


def column_stats(x) -> ColumnStats:
    """Mean and standard deviation of a vector, dividing by d (not d-1).

    A constant column yields sigma exactly 0; no error is raised here.
    Callers that need a correlation decide whether that is fatal.
    """
    return _centre(x)[1]


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
    return float(_pairwise([xv, yv], ["x", "y"])[0][0, 1])


def correlation_matrix(data: ObservationMatrix, columns) -> np.ndarray:
    """Correlation matrix of the requested columns of ``data``.

    Entries are computed pairwise and mirrored, so the diagonal is exactly
    1 and the matrix is exactly symmetric. Restricting ``columns`` to a
    subset reproduces the corresponding submatrix bit-for-bit.
    """
    cols = list(columns)
    return _pairwise([data.column(c) for c in cols], cols)[0]


def _pairwise(vectors, labels):
    """Correlation matrix of equal-length ``vectors`` plus their ColumnStats.

    Each vector is centred and checked once; errors name it by ``labels``.
    Entry (i, j) depends only on vectors i and j, and np.dot and the sigma
    product are symmetric in their operands, so any slice of the result,
    in either orientation, equals the pairwise value bit for bit.
    """
    devs, stats = [], []
    for v, label in zip(vectors, labels):
        dev, s = _centre(v)
        if not math.isfinite(s.sigma):
            raise InternalNumericError(f"column {label!r} has a variance that overflows float64")
        if s.degenerate:
            raise ZeroVarianceColumn(label, s.sigma)
        devs.append(dev)
        stats.append(s)
    d, q = devs[0].shape[0], len(devs)
    out = np.ones((q, q), dtype=np.float64)
    for i in range(q):
        for j in range(i + 1, q):
            rho = float(np.dot(devs[i], devs[j])) / d / (stats[i].sigma * stats[j].sigma)
            out[i, j] = out[j, i] = _clamp(
                rho, -1.0, 1.0, f"pearson({labels[i]!r}, {labels[j]!r})")
    return out, stats


# ---------------------------------------------------------------------------
# Correlation model: everything the subset scan needs, computed once
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationModel:
    """Global correlation structure for one selection problem.

    ``rx`` holds predictor/predictor correlations (n x n), ``ry`` holds one
    row per responder with its correlations against every predictor (m x n),
    the only stored copy. Means and sigmas are kept so winners can be mapped
    back to regression coefficients in original units.
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

    @property
    def n(self) -> int:
        return len(self.predictors)

    @property
    def m(self) -> int:
        return len(self.responders)


def build_correlation_model(data: ObservationMatrix, predictors, responders) -> CorrelationModel:
    """Compute all pairwise correlations needed by the subset search.

    Predictor/predictor correlations and predictor/responder correlations
    are slices of one :func:`_pairwise` pass over predictors then
    responders, the routine behind :func:`pearson`, which is what makes
    later slicing bit-faithful. A constant or overflowing column raises.
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
    full, stats = _pairwise([data.column(c) for c in pred + resp], pred + resp)
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
    )


def synthetic_observations(d: int, p: int, seed: int) -> ObservationMatrix:
    """Independent standard normal columns, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    return ObservationMatrix(rng.standard_normal((d, p)))
