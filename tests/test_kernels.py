"""Determinant-ratio kernels against independent oracles."""

import numpy as np
import pytest
from conftest import det_cofactor, make_instance, random_correlation

from bestsubset import (
    DesignMatrix,
    InternalNumericError,
    SingularMatrixError,
    coefficients_from_correlations,
    conditional_uuc,
    fit_single,
    mse_from_uuc,
    omega_sq_stacked,
    r_squared_from_uuc,
    triangulate,
    uuc_squared,
)
from bestsubset.gauss import factor_symmetric
from bestsubset.search import enumerate_subsets, slice_correlations


def test_uuc_squared_2x2():
    """det of a 2x2 correlation matrix is 1 - rho^2."""
    assert uuc_squared([[1.0, 0.5], [0.5, 1.0]]) == pytest.approx(0.75, abs=1e-15)
    assert uuc_squared([[1.0, 1.0], [1.0, 1.0]]) == 0.0
    assert uuc_squared([[1.0, 0.0], [0.0, 1.0]]) == 1.0


def test_uuc_squared_matches_cofactor_oracle():
    rng = np.random.default_rng(5)
    for q in (2, 3, 4, 5, 6):
        for _ in range(5):
            r = random_correlation(rng, q)
            assert uuc_squared(r) == pytest.approx(det_cofactor(r), abs=1e-10)


def test_triangulate_hand_trace():
    """k=2, rho12=0.5: second pivot 0.75, so eta = (1, 4/3)."""
    cache = triangulate([[1.0, 0.5], [0.5, 1.0]])
    assert cache.eta[0] == 1.0
    assert cache.eta[1] == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert cache.rt[0] == (1.0, 0.5)
    assert cache.rt[1][1] == 1.0


def test_conditional_uuc_hand_trace():
    """k=2 worked example: b=(0.6, 0.4), omega^2 = 32/75."""
    cache = triangulate([[1.0, 0.5], [0.5, 1.0]])
    res = conditional_uuc(cache, [0.6, 0.7])
    assert res.b[0] == pytest.approx(0.6, abs=1e-15)
    assert res.b[1] == pytest.approx(0.4, abs=1e-15)
    assert res.omega_sq == pytest.approx(32.0 / 75.0, abs=1e-14)


def test_single_predictor_reduces_to_pearson():
    cache = triangulate([[1.0]])
    res = conditional_uuc(cache, [0.8])
    assert res.omega_sq == pytest.approx(1.0 - 0.64, abs=1e-15)
    assert res.b == (0.8,)


def test_stacked_and_cached_routes_agree():
    """One-pass and factored kernels agree to 1e-12 for k = 1..8."""
    rng = np.random.default_rng(9)
    for k in range(1, 9):
        for _ in range(5):
            r = random_correlation(rng, k + 1)
            rx = [row[:k] for row in r[:k]]
            rho = [r[i][k] for i in range(k)]
            cached = conditional_uuc(triangulate([row[:] for row in rx]), rho).omega_sq
            stacked = omega_sq_stacked([row[:] for row in r])
            assert stacked == pytest.approx(cached, abs=1e-12)


def test_conditional_matches_determinant_ratio_oracle():
    """omega^2(y | x) equals det(R_xy)/det(R_x) by cofactor expansion."""
    rng = np.random.default_rng(15)
    for k in range(1, 7):
        for _ in range(6):
            r = random_correlation(rng, k + 1)
            rx = [row[:k] for row in r[:k]]
            expected = det_cofactor(r) / det_cofactor(rx)
            got = omega_sq_stacked([row[:] for row in r])
            assert got == pytest.approx(expected, abs=1e-10)


def test_orthogonal_predictors_closed_form():
    """Uncorrelated predictors: omega^2 is exactly 1 - sum rho_i^2."""
    rng = np.random.default_rng(21)
    for k in range(1, 8):
        rho = [float(v) for v in rng.uniform(-0.3, 0.3, size=k)]
        rx = [[1.0 if i == j else 0.0 for j in range(k)] for i in range(k)]
        res = conditional_uuc(triangulate(rx), rho)
        expected = 1.0
        for v in rho:
            expected = expected - v * v
        assert res.omega_sq == expected  # bit-exact, same evaluation order


def test_monotone_in_added_predictors():
    """Extending a subset never increases omega^2 (up to 1e-12 slack)."""
    rng = np.random.default_rng(27)
    for trial in range(20):
        _, _, _, model = make_instance(100 + trial, d=40, n=7, m=1)
        order = list(rng.permutation(7))
        prev = 1.0
        for k in range(1, 7):
            subset = tuple(sorted(order[:k]))
            rx, rho = slice_correlations(model, subset, 0)
            omega = conditional_uuc(triangulate(rx), rho).omega_sq
            assert omega <= prev + 1e-12
            prev = omega


def test_singular_subset_raises():
    rx = [[1.0, 1.0], [1.0, 1.0]]
    with pytest.raises(SingularMatrixError):
        triangulate(rx)
    a = [[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]]
    with pytest.raises(SingularMatrixError):
        omega_sq_stacked(a)


def test_zero_last_pivot_is_a_perfect_fit_not_singular():
    """A zero in the last pivot is omega^2 = 0, not a collinear subset.

    ``factor_symmetric`` rejects the same matrices at their last pivot;
    the stacked kernels must only check the first n - 1. The same holds
    for 2-D float64 arrays, whose pivots are numpy scalars.
    """
    # y = x1 + x2 with corr(x1, x2) = -0.5 is standardised and exactly
    # explained; every step of the elimination is exact in binary floats
    for stacked in ([[1.0, 1.0], [1.0, 1.0]],
                    [[1.0, -0.5, 0.5], [-0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]):
        n = len(stacked)
        for copy in (lambda: [list(row) for row in stacked], lambda: np.array(stacked)):
            assert uuc_squared(copy()) == 0.0
            assert omega_sq_stacked(copy()) == 0.0
            with pytest.raises(SingularMatrixError) as err:
                factor_symmetric(copy(), n)
            assert err.value.pivot_index == n - 1


def test_inconsistent_input_caught():
    """Correlations that cannot coexist drive omega^2 far below 0."""
    cache = triangulate([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InternalNumericError):
        conditional_uuc(cache, [0.9, 0.9])


def test_tiny_negative_clamps_to_zero():
    cache = triangulate([[1.0]])
    # rho just above 1 makes 1 - rho^2 a tiny negative number
    rho = float(np.nextafter(1.0, 2.0))
    assert 1.0 - rho * rho < 0.0
    res = conditional_uuc(cache, [rho])
    assert res.omega_sq == 0.0


def test_mse_and_r_squared_helpers():
    assert mse_from_uuc(4.0, 0.25) == 1.0
    assert r_squared_from_uuc(0.25) == 0.75


def test_coefficients_match_least_squares_oracle():
    """Correlation-space recovery equals numpy lstsq on raw data."""
    rng = np.random.default_rng(33)
    for trial in range(10):
        data, pred, resp, model = make_instance(200 + trial, d=50, n=4, m=1)
        subset = (0, 2, 3)
        rx, rho = slice_correlations(model, subset, 0)
        coeff = coefficients_from_correlations(
            rx, rho, model.resp_sigma[0],
            [model.pred_sigma[j] for j in subset],
            model.resp_mean[0],
            [model.pred_mean[j] for j in subset],
        )
        X = np.column_stack([np.ones(data.d)] + [data.column(pred[j]) for j in subset])
        beta, *_ = np.linalg.lstsq(X, data.column(resp[0]), rcond=None)
        assert coeff.beta0 == pytest.approx(beta[0], rel=1e-9, abs=1e-12)
        for a, b in zip(coeff.betas, beta[1:]):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_mse_identity_against_explicit_fit():
    """sigma_y^2 * omega^2 equals the explicit residual mean square."""
    for trial in range(10):
        data, pred, resp, model = make_instance(300 + trial, d=45, n=5, m=2)
        subset = (1, 2, 4)
        for t in range(2):
            rx, rho = slice_correlations(model, subset, t)
            omega = conditional_uuc(triangulate(rx), rho).omega_sq
            mse_cond = mse_from_uuc(model.resp_sigma[t] ** 2, omega)
            X = DesignMatrix([data.column_list(pred[j]) for j in subset])
            fit = fit_single(X, data.column_list(resp[t]))
            assert mse_cond == pytest.approx(fit.mse, rel=1e-9)
