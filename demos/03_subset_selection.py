"""
Exhaustive best-subset selection, four ways
===========================================

The selector enumerates every C(n, k) predictor subset and keeps the
minimum-MSE winner per responder. Four scoring routes are available;
they differ hugely in cost but provably agree on the argmin. Here we
plant a known answer, recover it with each route, and read off the
fitted coefficients.
"""

import numpy as np

from bestsubset import ObservationMatrix, select_best
from bestsubset.search import METHODS

# ---------------------------------------------------------------------
# 1. Plant a sparse signal: of 8 candidate predictors only columns
#    1 and 5 drive the responder.
# ---------------------------------------------------------------------
rng = np.random.default_rng(123)
d, n = 300, 8
x = rng.normal(size=(d, n))
y = 3.0 * x[:, 1] - 2.0 * x[:, 5] + 0.1 * rng.normal(size=d)
data = ObservationMatrix(np.column_stack([x, y]))

# ---------------------------------------------------------------------
# 2. Every method recovers exactly (1, 5) with identical scores.
# ---------------------------------------------------------------------
for method in METHODS:
    res = select_best(data, predictors=list(range(n)), responders=[n],
                      k=2, method=method)[0]
    print(f"{method:>18}: subset={res.subset_columns}  "
          f"mse={res.mse:.6f}  r^2={res.r_squared:.6f}")

# ---------------------------------------------------------------------
# 3. Coefficients come back in original data units, with the offset
#    reconstructed so that the fit preserves the responder mean.
# ---------------------------------------------------------------------
res = select_best(data, list(range(n)), [n], k=2)[0]
b = res.coefficients
print(f"recovered fit: y ~ {b.beta0:+.4f} "
      + " ".join(f"{w:+.4f}*x{c}" for w, c in zip(b.betas, res.subset_columns)))
print("planted truth: y ~ +0.0000 +3.0000*x1 -2.0000*x5 (plus noise)")

# ---------------------------------------------------------------------
# 4. Sweeping k shows the classic trade-off: MSE falls monotonically
#    as subsets grow, with the big drop once both true drivers fit.
# ---------------------------------------------------------------------
for k in range(1, 5):
    res = select_best(data, list(range(n)), [n], k=k)[0]
    print(f"k={k}: best={res.subset_columns}  mse={res.mse:.6f}")

# ---------------------------------------------------------------------
# 5. Ties go to the lexicographically smallest subset. Append an exact
#    copy of column 1 as predictor 8: (1, 5) and (5, 8) now score
#    identically, (1, 8) is collinear and skipped, and (1, 5) wins
#    regardless of the order subsets are scored in.
# ---------------------------------------------------------------------
twin = ObservationMatrix(np.column_stack([x, x[:, 1], y]))
res = select_best(twin, list(range(n + 1)), [n + 1], k=2)[0]
assert res.subset_columns == (1, 5) and res.skipped_singular == 1
print(f"with a copy of x1 as x8: best={res.subset_columns}, "
      f"{res.skipped_singular} collinear subset skipped")
