"""Numerical thresholds used across the package.

These are deliberate design constants, not tuning knobs. They are shared
between the determinant-ratio path and the least-squares baseline so that
both sides agree on which inputs count as degenerate.
"""

from .errors import InternalNumericError

# A column is degenerate when its standard deviation does not exceed this
# fraction of its largest absolute deviation from the mean.
EPS_VAR = 1e-12

# Gaussian elimination pivot threshold. A pivot below this magnitude marks
# the subset as numerically collinear. Shared by every method so they all
# skip the same subsets.
EPS_PIV = 1e-10

# Tolerance for internal consistency checks, e.g. a squared uncorrelation
# coefficient may undershoot 0 by at most this much before we treat it as
# a genuine numerical failure rather than benign rounding.
EPS_NUM = 1e-9


def _clamp(value: float, lo: float, hi: float, what: str) -> float:
    """Range check on correlations and squared UUCs: a rounding miss of at
    most EPS_NUM lands on the bound; further out, or NaN, raises."""
    if lo <= value <= hi:
        return value
    if lo - EPS_NUM <= value < lo:
        return lo
    if hi < value <= hi + EPS_NUM:
        return hi
    raise InternalNumericError(f"{what} = {value!r} is outside [{lo}, {hi}] beyond tolerance")


def _clamp_all(table, lo: float, hi: float, what) -> None:
    """:func:`_clamp` each entry of the 2-D numpy ``table`` outside
    [lo, hi] in place, in row-major order; ``what(i, j)`` names entry
    (i, j), so the error of a table is that of its first such entry."""
    for i, j in zip(*(~((table >= lo) & (table <= hi))).nonzero()):
        table[i, j] = _clamp(float(table[i, j]), lo, hi, what(i, j))


# Two subset scores within this absolute distance are treated as tied; the
# lexicographically smallest index tuple wins.
TIE_EPS = 1e-12

# Default cap on the number of scored (subset, responder) pairs per run.
DEFAULT_PAIR_LIMIT = 10_000_000
