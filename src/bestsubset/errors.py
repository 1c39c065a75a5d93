"""Exception hierarchy shared across the package.

Every error class carries a distinct stable exit code, its ``exit_code``
class attribute, assigned here and nowhere else. The command line exits
with it, or with ``BestSubsetError.exit_code`` (usage/config) for an
error from outside the package, such as a bad flag or a missing file.
"""

from __future__ import annotations


class BestSubsetError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 2


class ZeroVarianceColumn(BestSubsetError):
    """A column involved in a correlation has (near-)zero standard deviation."""
    exit_code = 6

    def __init__(self, column: int | str, sigma: float = 0.0):
        self.column = column
        self.sigma = sigma
        super().__init__(
            f"column {column!r} has zero (or numerically negligible) variance; "
            "Pearson correlation is undefined for it"
        )


class SingularMatrixError(BestSubsetError):
    """Gaussian elimination met a pivot below the collinearity threshold."""
    exit_code = 9

    def __init__(self, pivot_index: int, pivot: float):
        self.pivot_index = pivot_index
        self.pivot = pivot
        super().__init__(
            f"matrix is numerically singular: pivot {pivot_index} is {pivot:.3e}"
        )


class InternalNumericError(BestSubsetError):
    """An internal consistency check failed (result far outside its valid range)."""
    exit_code = 11


class InvalidSparsityError(BestSubsetError):
    """Requested subset size k is outside the valid range for the instance."""
    exit_code = 7


class NoValidSubsetError(BestSubsetError):
    """Every candidate subset was numerically singular."""
    exit_code = 8


class UnknownMethodError(BestSubsetError):
    """Requested selection method name is not recognised."""
    exit_code = 12


class LimitExceededError(BestSubsetError):
    """The search would score more (subset, responder) pairs than allowed."""
    exit_code = 13


class ParseError(BestSubsetError):
    """Malformed input data; row/column are 1-based when present."""
    exit_code = 3

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        where = ""
        if row is not None and column is not None:
            where = f" (row {row}, column {column})"
        elif row is not None:
            where = f" (row {row})"
        super().__init__(message + where)


class ArityMismatchError(ParseError):
    """A data row has a different number of cells than the first row."""
    exit_code = 4


class NonFiniteValueError(ParseError):
    """A data cell parsed to NaN or infinity."""
    exit_code = 5


class VerificationFailure(BestSubsetError):
    """Cross-method verification found a disagreement."""
    exit_code = 10
