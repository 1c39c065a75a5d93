"""Exact best-subset selection for sparse linear regression.

Scores every k-of-n predictor subset for every responder, either through
the squared conditional unsigned uncorrelation coefficient (a ratio of
correlation-matrix determinants, no coefficients fitted during the scan)
or through the classical least-squares normal equations. In exact
arithmetic both routes select the same subsets; the determinant route
gets there in a small fraction of the arithmetic, which the opcount
module can demonstrate by actually counting.
"""

from .errors import (
    ArityMismatchError,
    BestSubsetError,
    InternalNumericError,
    InvalidSparsityError,
    LimitExceededError,
    NonFiniteValueError,
    NoValidSubsetError,
    ParseError,
    SingularMatrixError,
    UnknownMethodError,
    VerificationFailure,
    ZeroVarianceColumn,
)
from .hat import DesignMatrix, FitResult, GramTables, fit_multi, fit_single, gram_products
from .kernels import (
    ConditionalUuc,
    RegressionCoefficients,
    TriangularCache,
    coefficients_from_correlations,
    conditional_uuc,
    mse_from_uuc,
    omega_sq_stacked,
    r_squared_from_uuc,
    triangulate,
    uuc_squared,
)
from .opcount import (
    OpTally,
    count_table,
    format_count_table,
    measure_counts,
    predicted_counts,
)
from .search import METHODS, SelectionResult, enumerate_subsets, select_best, slice_correlations
from .stats import (
    ColumnStats,
    CorrelationModel,
    ObservationMatrix,
    build_correlation_model,
    column_stats,
    correlation_matrix,
    pearson,
    synthetic_observations,
)

__version__ = "0.1.0"

__all__ = [
    "ObservationMatrix", "ColumnStats", "CorrelationModel",
    "column_stats", "pearson", "correlation_matrix",
    "build_correlation_model", "synthetic_observations",
    "uuc_squared", "omega_sq_stacked", "triangulate", "conditional_uuc",
    "mse_from_uuc", "r_squared_from_uuc", "coefficients_from_correlations",
    "TriangularCache", "ConditionalUuc", "RegressionCoefficients",
    "DesignMatrix", "FitResult", "GramTables",
    "gram_products", "fit_single", "fit_multi",
    "METHODS", "SelectionResult", "enumerate_subsets", "slice_correlations",
    "select_best",
    "OpTally", "predicted_counts", "measure_counts", "count_table",
    "format_count_table",
    "BestSubsetError", "ZeroVarianceColumn", "SingularMatrixError",
    "InternalNumericError", "InvalidSparsityError", "NoValidSubsetError",
    "UnknownMethodError", "LimitExceededError", "ParseError",
    "ArityMismatchError", "NonFiniteValueError", "VerificationFailure",
    "__version__",
]
