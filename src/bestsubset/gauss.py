"""Gaussian elimination primitives for symmetric systems.

The scalar functions run on Python scalars in lists of lists, so the
operation-count harness executes them with an instrumented value type.
:func:`forward_apply` and :func:`back_substitute` only index and do
arithmetic, so the block scans run them unchanged on numpy entries, one
element per subset; :func:`_eliminate_block` is :func:`_eliminate` across
such a block, bit for bit.

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


def _eliminate(a, n):
    """Run the first n - 1 pivots of the elimination in place.

    Returns ``(mult, recips)`` as :func:`factor_symmetric` does, except
    that ``recips[n - 1]`` is still None: the last diagonal entry never
    serves as a pivot here and is left unchecked, so callers that read it
    as a determinant ratio see an exact 0 rather than an error.

    Raises SingularMatrixError when one of the first n - 1 pivots falls
    below the shared collinearity threshold.
    """
    mult = [[None] * n for _ in range(n)]
    recips = [None] * n
    for i in range(n - 1):
        pivot = a[i][i]
        if abs(pivot) < EPS_PIV:
            raise SingularMatrixError(i, float(pivot))
        recip = 1.0 / pivot
        recips[i] = recip
        row_i = a[i]
        for j in range(i + 1, n):
            temp = row_i[j] * recip  # a[j][i] == a[i][j] by symmetry
            mult[i][j] = temp
            row_j = a[j]
            for p in range(j, n):
                row_j[p] = row_j[p] - row_i[p] * temp
    return mult, recips


def _eliminate_block(a, q):
    """:func:`_eliminate` across a q x q x b x m block ``a``, in place.

    Where the scalar elimination raises on a pivot below EPS_PIV, this
    marks the entry in the returned b x m ``singular`` mask and carries
    on; later steps of that entry are never read.
    """
    mult = [[None] * q for _ in range(q)]
    recips = [None] * q
    singular = np.zeros(a.shape[2:], dtype=bool)
    for i in range(q - 1):
        pivot = a[i, i]
        singular |= np.abs(pivot) < EPS_PIV
        recip = 1.0 / pivot
        recips[i] = recip
        for j in range(i + 1, q):
            temp = a[i, j] * recip
            mult[i][j] = temp
            a[j, j:] = a[j, j:] - a[i, j:] * temp
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
    mult, recips = _eliminate(a, n)
    last = a[n - 1][n - 1]
    if abs(last) < EPS_PIV:
        raise SingularMatrixError(n - 1, float(last))
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
