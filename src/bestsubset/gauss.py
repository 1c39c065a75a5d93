"""Gaussian elimination primitives for symmetric systems.

Every primitive only indexes and does arithmetic, so it runs unchanged
on Python floats in lists of lists, on the operation-count harness's
counting scalars, and on numpy blocks, where entry (i, j) is an array
holding that entry of every subset in the block. The one collinearity
rule, :func:`_collinear`, is the only test on a pivot: a scalar pivot
below EPS_PIV raises, a block's marks a mask.

Only the upper triangle (including the diagonal) of the input matrix is
referenced or updated; symmetry supplies the lower triangle. No pivoting
or row exchange is performed, which keeps the arithmetic schedule fixed.
Pivot reciprocals are stored once and back substitution multiplies by
them, so an n x n solve spends exactly n divisions no matter how many
right hand sides follow.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError
from .tolerances import EPS_PIV

__all__ = ["factor_symmetric", "forward_apply", "back_substitute", "solve_symmetric"]


def _collinear(i, pivot, singular=False):
    """The collinearity rule of every method: pivot i is collinear when its
    magnitude is below EPS_PIV. A scalar pivot (a float, a counting scalar
    or a numpy scalar) that breaks it raises SingularMatrixError; a block of
    pivots returns ``singular`` with its collinear entries also set."""
    bad = abs(pivot) < EPS_PIV
    if bad is True or bad is np.True_:
        raise SingularMatrixError(i, float(pivot))
    return singular | bad


def _eliminate(a, n):
    """Run the first n - 1 pivots of the elimination in place, on lists
    of scalars or on a q x q x ... numpy block.

    Returns ``(mult, recips, singular)``: ``mult`` and ``recips`` as
    :func:`factor_symmetric`'s, except that ``recips[n - 1]`` is still
    None: the last diagonal entry is left unchecked, so callers that read
    it as a determinant ratio see an exact 0 rather than an error.
    ``singular`` is :func:`_collinear`'s mask of a block's collinear
    entries (False for scalars, which raise instead).
    """
    mult = [[None] * n for _ in range(n)]
    recips = [None] * n
    singular = False
    for i in range(n - 1):
        pivot = a[i][i]
        singular = _collinear(i, pivot, singular)
        recip = 1.0 / pivot
        recips[i] = recip
        row_i = a[i]
        for j in range(i + 1, n):
            temp = row_i[j] * recip  # a[j][i] == a[i][j] by symmetry
            mult[i][j] = temp
            row_j = a[j]
            for p in range(j, n):
                row_j[p] = row_j[p] - row_i[p] * temp
    return mult, recips, singular


def factor_symmetric(a, n):
    """Triangulate a symmetric n x n matrix in place.

    On return ``a`` holds the upper triangular factor. Returns a pair
    ``(mult, recips)``: ``mult[i][j]`` is the multiplier that eliminated
    entry (j, i), ``recips[i]`` the reciprocal of pivot i. Both are needed
    to process right hand sides later.

    Raises SingularMatrixError when a pivot falls below the shared
    collinearity threshold, before its reciprocal is taken.
    """
    mult, recips, _ = _eliminate(a, n)
    last = a[n - 1][n - 1]
    _collinear(n - 1, last)
    recips[n - 1] = 1.0 / last
    return mult, recips


def forward_apply(mult, b, n):
    """Apply the stored elimination multipliers to a right hand side, in place."""
    for i in range(n - 1):
        bi = b[i]
        row = mult[i]
        for j in range(i + 1, n):
            b[j] = b[j] - row[j] * bi


def back_substitute(u, recips, b, n):
    """Solve U x = b given the triangular factor and stored pivot reciprocals."""
    x = [None] * n
    x[n - 1] = b[n - 1] * recips[n - 1]
    for i in range(n - 2, -1, -1):
        s = b[i]
        row = u[i]
        for j in range(i + 1, n):
            s = s - row[j] * x[j]
        x[i] = s * recips[i]
    return x


def solve_symmetric(a, b):
    """Convenience one-shot solve of a symmetric system; consumes ``a`` and ``b``."""
    n = len(a)
    mult, recips = factor_symmetric(a, n)
    forward_apply(mult, b, n)
    return back_substitute(a, recips, b, n)
