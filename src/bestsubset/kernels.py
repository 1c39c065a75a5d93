"""Conditional uncorrelation kernels.

The squared unsigned uncorrelation coefficient (UUC) of a set of
variables is the determinant of their correlation matrix: 1 for mutually
uncorrelated variables, 0 when one is a linear combination of the
others. Conditioning a responder y on predictors x1..xk divides the
determinant of the stacked (k+1) x (k+1) correlation matrix by the
determinant of the predictor block, and that ratio times the responder
variance is exactly the minimum mean squared error of linear regression
on those predictors. Minimising the ratio over subsets is therefore the
same as minimising the MSE, without fitting a single coefficient.

Two kernels compute the ratio:

* :func:`omega_sq_stacked` triangulates the stacked matrix in one pass
  and reads the ratio off the last diagonal entry.
* :func:`triangulate` factors the predictor block once per subset and
  :func:`conditional_uuc` reuses that factor for every responder, which
  is the cheaper route when there are many responders.

Both run on plain Python scalars in nested lists, each in one function
body. Production scans call neither: ``search._alg1_block`` repeats the
first across numpy blocks, and the operation-count harness calls
:func:`triangulate` and :func:`conditional_uuc` themselves with an
instrumented value type. ``search.select_best`` runs
:func:`coefficients_from_correlations` once on all of a scan's winners.
"""

from __future__ import annotations

import copy
import math
from typing import NamedTuple

from .errors import InternalNumericError
from .gauss import _collinear, _eliminate, solve_symmetric
from .tolerances import _clamp

__all__ = [
    "TriangularCache",
    "ConditionalUuc",
    "RegressionCoefficients",
    "uuc_squared",
    "omega_sq_stacked",
    "triangulate",
    "conditional_uuc",
    "mse_from_uuc",
    "r_squared_from_uuc",
    "coefficients_from_correlations",
]


class TriangularCache(NamedTuple):
    """Responder-independent factor of one predictor subset.

    rt : unit upper triangular rows (k x k nested tuples)
    eta : pivot reciprocals, eta[0] == 1.0 exactly
    """

    k: int
    rt: tuple[tuple[float, ...], ...]
    eta: tuple[float, ...]


class ConditionalUuc(NamedTuple):
    """Conditional squared UUC of one responder given one subset."""

    omega_sq: float
    b: tuple[float, ...]


class RegressionCoefficients(NamedTuple):
    beta0: float
    betas: tuple[float, ...]


def uuc_squared(r) -> float:
    """Squared UUC (determinant) of a correlation matrix.

    Computed as the product of the pivots of an in-place triangulation.
    The input is copied, not consumed.
    """
    n = len(r)
    a = [list(row) for row in r]
    _eliminate(a, n)
    det = a[0][0]
    for i in range(1, n):
        det = det * a[i][i]
    return _clamp(float(det), 0.0, 1.0, "uuc_squared")


def omega_sq_stacked(r_xy) -> float:
    """Conditional squared UUC from the stacked correlation matrix.

    ``r_xy`` is the (k+1) x (k+1) correlation matrix of the k subset
    predictors with the responder in the last row/column. It is consumed.
    After triangulation the last diagonal entry equals
    det(R_xy) / det(R_x), the squared conditional UUC.
    """
    n = len(r_xy)
    _eliminate(r_xy, n)
    return _clamp(float(r_xy[n - 1][n - 1]), 0.0, 1.0, "omega_sq_stacked")


def triangulate(r_x) -> TriangularCache:
    """Factor a k x k predictor correlation matrix for reuse across responders.

    The input is consumed (upper triangle). Cost grows with k^3 but is
    paid once per subset; each responder then costs only k^2 via
    :func:`conditional_uuc`. ``rt`` starts as identity except row 0, which
    carries the first row of ``r_x``, and ends as the unit upper triangular
    factor; ``eta`` collects the pivot reciprocals, with ``eta[0]`` fixed
    at 1 because a correlation matrix always has a unit leading pivot.
    """
    k = len(r_x)
    rt = [[1.0 if i == j else 0.0 for j in range(k)] for i in range(k)]
    for j in range(1, k):
        rt[0][j] = r_x[0][j]
    eta = [1.0] * k
    for i in range(k):
        if i != 0:
            pivot = r_x[i][i]
            _collinear(i, pivot)
            recip = 1.0 / pivot
            eta[i] = recip
            for p in range(i + 1, k):
                rt[i][p] = r_x[i][p] * recip
        for j in range(i + 1, k):
            temp = r_x[i][j]
            for p in range(j, k):
                r_x[j][p] = r_x[j][p] - rt[i][p] * temp
    for e in eta:
        if not math.isfinite(e):
            raise InternalNumericError("non-finite pivot reciprocal in triangular cache")
    return TriangularCache(
        k=k,
        rt=tuple(tuple(float(v) for v in row) for row in rt),
        eta=tuple(float(e) for e in eta),
    )


def conditional_uuc(cache: TriangularCache, rho) -> ConditionalUuc:
    """Conditional squared UUC of one responder given a factored subset.

    ``rho`` holds the responder's correlations with the k subset
    predictors, in subset order. It runs the forward recurrence
    b_i = rho_i - sum_{j<i} rt[j][i] b_j and peels b_i^2 * eta_i off an
    accumulator that starts at 1 - rho_1^2. The result is clamped into
    [0, 1]; leaving it by more than the consistency tolerance, or NaN,
    raises InternalNumericError.
    """
    rt, eta = cache.rt, cache.eta
    omega = 1.0 - rho[0] * rho[0]
    b = [rho[0]]
    for i in range(1, cache.k):
        tempr = rho[i]
        for j in range(i):
            tempr = tempr - b[j] * rt[j][i]
        b.append(tempr)
        omega = omega - tempr * tempr * eta[i]
    return ConditionalUuc(
        omega_sq=_clamp(float(omega), 0.0, 1.0, "conditional_uuc"),
        b=tuple(float(v) for v in b),
    )


def mse_from_uuc(sigma_y_sq: float, omega_sq: float) -> float:
    """Minimum achievable regression MSE: responder variance times omega^2."""
    return sigma_y_sq * omega_sq


def r_squared_from_uuc(omega_sq: float) -> float:
    """Coefficient of determination of the optimal fit: 1 - omega^2."""
    return 1.0 - omega_sq


def coefficients_from_correlations(rx_rows, rho, sigma_y, sigmas, mu_y, mus) -> RegressionCoefficients:
    """Recover regression coefficients for one winning subset.

    Solves R_x w = rho by Gaussian elimination (no explicit inverse); the
    slope on predictor i is then sigma_y * w_i / sigma_i and the offset
    re-centres the fit through the means. Like the ``gauss`` primitives it
    runs on a block too, one entry per winner: ``search.select_best`` solves
    all of a scan's winners in one call, never inside the subset scan.
    """
    k = len(rho)
    a = [list(row) for row in rx_rows]
    # the solve overwrites its right hand side, and a block's rows are arrays
    w = solve_symmetric(a, [copy.copy(r) for r in rho])
    betas = tuple(sigma_y * w[i] / sigmas[i] for i in range(k))
    beta0 = mu_y - sum(betas[i] * mus[i] for i in range(k))
    return RegressionCoefficients(beta0=beta0, betas=betas)
