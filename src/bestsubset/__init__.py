"""Exact best-subset selection for sparse linear regression.

Scores every k-of-n predictor subset for every responder, either through
the squared conditional unsigned uncorrelation coefficient (a ratio of
correlation-matrix determinants, no coefficients fitted during the scan)
or through the classical least-squares normal equations. In exact
arithmetic both routes select the same subsets; the determinant route
gets there in a small fraction of the arithmetic, which the opcount
module can demonstrate by actually counting.

Each public name is imported from its submodule on first use (PEP 562),
so a command loads only the modules it runs: ``select`` with
``cond-uncorrelation`` never loads the least-squares baseline (``hat``)
or the op counter (``opcount``).
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_HOMES = {
    "stats": (
        "ObservationMatrix", "ColumnStats", "CorrelationModel",
        "column_stats", "pearson", "correlation_matrix",
        "build_correlation_model", "synthetic_observations",
    ),
    "kernels": (
        "uuc_squared", "omega_sq_stacked", "triangulate", "conditional_uuc",
        "mse_from_uuc", "r_squared_from_uuc", "coefficients_from_correlations",
        "TriangularCache", "ConditionalUuc", "RegressionCoefficients",
    ),
    "hat": (
        "DesignMatrix", "FitResult", "GramTables",
        "gram_products", "fit_single", "fit_multi",
    ),
    "search": (
        "METHODS", "SelectionResult", "enumerate_subsets", "slice_correlations",
        "select_best",
    ),
    "opcount": (
        "OpTally", "predicted_counts", "measure_counts", "count_table",
        "format_count_table",
    ),
    "errors": (
        "BestSubsetError", "ZeroVarianceColumn", "SingularMatrixError",
        "InternalNumericError", "InvalidSparsityError", "NoValidSubsetError",
        "UnknownMethodError", "LimitExceededError", "ParseError",
        "ArityMismatchError", "NonFiniteValueError", "VerificationFailure",
    ),
}

__all__ = [name for names in _HOMES.values() for name in names] + ["__version__"]


def __getattr__(name):
    """A public name, imported from its submodule and kept here; any other
    name raises AttributeError, so ``from bestsubset import cli`` still
    imports the submodule."""
    for module, names in _HOMES.items():
        if name in names:
            value = getattr(import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
