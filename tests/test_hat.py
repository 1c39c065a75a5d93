"""Least-squares baseline: fits, identities, and the two multi-responder schedules."""

import tracemalloc

import numpy as np
import pytest
from conftest import make_instance
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bestsubset import (
    DesignMatrix,
    InternalNumericError,
    ObservationMatrix,
    SingularMatrixError,
    build_correlation_model,
    fit_multi,
    fit_single,
    gram_products,
    select_best,
)
from bestsubset import stats
from bestsubset.gauss import back_substitute, factor_symmetric, forward_apply, solve_symmetric
from bestsubset.hat import assemble_xtx, assemble_xty
from bestsubset.stats import column_stats, synthetic_observations


def test_design_matrix_validation():
    with pytest.raises(ValueError):
        DesignMatrix([])
    with pytest.raises(ValueError):
        DesignMatrix([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        DesignMatrix([[1.0, 2.0], [3.0, 4.0]])  # k+1 > d
    X = DesignMatrix([[1.0, 2.0, 3.0]])
    assert X.rows.tolist() == [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]]


def test_gram_assembly_matches_matrix_product():
    """Table-assembled X^T X and X^T y agree with the direct product."""
    data = synthetic_observations(30, 6, seed=3)
    pred, resp = [0, 1, 2, 3], [4, 5]
    tables = gram_products(data, pred, resp)
    subset = (0, 2, 3)
    X = np.column_stack([np.ones(30)] + [data.column(pred[j]) for j in subset])
    xtx = np.array(assemble_xtx(tables, subset))
    np.testing.assert_allclose(xtx, X.T @ X, rtol=1e-12, atol=1e-12)
    for t in range(2):
        xty = np.array(assemble_xty(tables, subset, t))
        np.testing.assert_allclose(xty, X.T @ data.column(resp[t]), rtol=1e-12, atol=1e-12)


def test_fit_constant_responder():
    """y = c fits as offset c with zero residual."""
    rng = np.random.default_rng(5)
    X = DesignMatrix([list(rng.standard_normal(12))])
    fit = fit_single(X, [4.5] * 12)
    assert fit.beta[0] == pytest.approx(4.5, abs=1e-12)
    assert fit.beta[1] == pytest.approx(0.0, abs=1e-12)
    assert fit.mse == pytest.approx(0.0, abs=1e-20)


def test_fit_exact_linear_relation():
    rng = np.random.default_rng(7)
    x1 = rng.standard_normal(20)
    x2 = rng.standard_normal(20)
    y = 2.0 + 3.0 * x1 - 0.5 * x2
    fit = fit_single(DesignMatrix([list(x1), list(x2)]), list(y))
    assert fit.beta == pytest.approx((2.0, 3.0, -0.5), abs=1e-10)
    assert fit.mse < 1e-24


def test_fit_matches_lstsq_oracle():
    rng = np.random.default_rng(11)
    for _ in range(8):
        d = 40
        X_cols = [rng.standard_normal(d) for _ in range(3)]
        y = rng.standard_normal(d)
        fit = fit_single(DesignMatrix([list(c) for c in X_cols]), list(y))
        A = np.column_stack([np.ones(d)] + X_cols)
        beta, *_ = np.linalg.lstsq(A, y, rcond=None)
        np.testing.assert_allclose(fit.beta, beta, rtol=1e-9, atol=1e-12)
        res = y - A @ beta
        assert fit.mse == pytest.approx(float(res @ res) / d, rel=1e-9)


def test_residual_orthogonal_to_design():
    """The residual is orthogonal to every design column, offset included."""
    data, pred, resp, _ = make_instance(13, d=60, n=4, m=1)
    cols = [data.column_list(c) for c in pred]
    y = data.column_list(resp[0])
    fit = fit_single(DesignMatrix(cols), y)
    e = np.array(fit.residual)
    bound = 1e-8 * data.d * float(np.linalg.norm(y))
    assert abs(float(np.sum(e))) < bound
    for c in cols:
        assert abs(float(np.dot(e, c))) < bound


def test_fitted_mean_and_variance_identities():
    """mean(yhat) = mean(y) and var(yhat) = cov(y, yhat), as the normal
    equations demand."""
    data, pred, resp, _ = make_instance(17, d=50, n=5, m=1)
    y = np.array(data.column_list(resp[0]))
    fit = fit_single(DesignMatrix([data.column_list(c) for c in pred[:3]]), list(y))
    yhat = y - np.array(fit.residual)
    assert float(np.mean(yhat)) == pytest.approx(float(np.mean(y)), rel=1e-9)
    var_hat = column_stats(yhat).sigma ** 2
    cov = float(np.dot(yhat - yhat.mean(), y - y.mean())) / data.d
    assert var_hat == pytest.approx(cov, rel=1e-9)


def test_multi_orderings_agree():
    """Schedules A and B produce the same fits to 1e-10 relative."""
    data, pred, resp, _ = make_instance(19, d=45, n=4, m=3)
    X = DesignMatrix([data.column_list(c) for c in pred])
    ys = [data.column_list(c) for c in resp]
    fa = fit_multi(X, ys, ordering="a")
    fb = fit_multi(X, ys, ordering="b")
    for a, b in zip(fa, fb):
        assert a.mse == pytest.approx(b.mse, rel=1e-10)
        np.testing.assert_allclose(a.beta, b.beta, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(a.residual, b.residual, rtol=1e-8, atol=1e-10)


def test_multi_consistent_with_single():
    """fit_multi ordering A is byte-identical to fitting one at a time."""
    data, pred, resp, _ = make_instance(23, d=30, n=3, m=2)
    X = DesignMatrix([data.column_list(c) for c in pred])
    ys = [data.column_list(c) for c in resp]
    multi = fit_multi(X, ys, ordering="a")
    for t, y in enumerate(ys):
        single = fit_single(X, y)
        assert single.beta == multi[t].beta
        assert single.sse == multi[t].sse


def _scalar_fits(cols, ys, ordering):
    """Betas, residuals and sses of every responder by the scalar fit, one
    observation at a time: ordering "a" predicts with X beta, ordering "b"
    through the rows of X (X^T X)^{-1} and X^T y, and takes its betas from
    a separate solve. The normal equations are ``np.dot``s of the columns,
    which the Gram kernel reproduces bit for bit. The residual pass sums
    its k + 1 products and the d squares from zero, in order. Raises as
    the factorisation raises."""
    d, q = len(cols[0]), len(cols)

    def normal_matrix():
        return [[float(np.dot(a, b)) for b in cols] for a in cols]

    xtx = normal_matrix()
    xtys = [[float(np.dot(y, c)) for c in cols] for y in ys]
    mult, recips = factor_symmetric(xtx, q)
    betas = []
    for xty in xtys:
        v = list(xty)
        forward_apply(mult, v, q)
        betas.append(back_substitute(xtx, recips, v, q))
    if ordering == "a":
        rows, vecs = [[c[r] for c in cols] for r in range(d)], betas
    else:
        rows = []
        for r in range(d):
            v = [c[r] for c in cols]
            forward_apply(mult, v, q)
            rows.append(back_substitute(xtx, recips, v, q))
        vecs = xtys
        betas = [solve_symmetric(normal_matrix(), list(xty)) for xty in xtys]
    residuals, sses = [], []
    for y, vec in zip(ys, vecs):
        res, sse = [], 0.0
        for r in range(d):
            acc = 0.0
            for j in range(q):
                acc = acc + rows[r][j] * vec[j]
            e = y[r] - acc
            sse = sse + e * e
            res.append(e)
        residuals.append(res)
        sses.append(sse)
    return betas, residuals, sses


@st.composite
def _designs(draw):
    """Seeded designs, d 5-80, k 1-5, m 1-3, with columns scaled by
    1e-3..1e3 and shifted; ``collinear`` makes column 1 an affine copy
    of column 0."""
    d = draw(st.integers(5, 80))
    k = draw(st.integers(1, min(5, d - 1)))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
    x += rng.uniform(-5, 5, (k, 1))
    if k > 1 and draw(st.booleans()):
        x[1] = 2.0 * x[0] + 1.0
    return x.tolist(), rng.standard_normal((m, d)).tolist()


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_designs())
@example(([[0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 5.0, 7.0, 9.0]],
          [[1.0, 0.0, 2.0, 5.0, 3.0]]))
def test_fit_multi_matches_the_scalar_fit(design):
    """Both orderings give the scalar fit's betas, residuals, sse and mse
    bit for bit, and a collinear design raises its SingularMatrixError
    message."""
    x, ys = design
    cols = [[1.0] * len(ys[0])] + x
    for ordering in ("a", "b"):
        try:
            betas, residuals, sses = _scalar_fits(cols, ys, ordering)
        except SingularMatrixError as err:
            with pytest.raises(SingularMatrixError) as raised:
                fit_multi(DesignMatrix(x), ys, ordering)
            assert str(raised.value) == str(err)
            continue
        fits = fit_multi(DesignMatrix(x), ys, ordering)
        assert [f.beta for f in fits] == [tuple(b) for b in betas]
        assert [f.residual for f in fits] == [tuple(r) for r in residuals]
        assert [f.sse for f in fits] == sses
        assert [f.mse for f in fits] == [sse / len(ys[0]) for sse in sses]


def test_fit_single_reproduces_the_hat_a_winner():
    """The scan's Gram tables and fit_single's are the same inner products
    of the same contiguous rows, so refitting a hat-a winner gives the
    reported coefficients bit for bit. The reported mse is sigma_y^2 times
    the omega^2 that won the window, so it agrees with the refit's raw
    least-squares mse only to rounding."""
    for seed in range(20):
        data = synthetic_observations(200, 8, seed=seed)
        for r in select_best(data, range(6), [6, 7], 2, method="hat-a"):
            fit = fit_single(DesignMatrix([data.column(c) for c in r.subset_columns]),
                             data.column(r.responder_column))
            assert fit.beta == (r.coefficients.beta0, *r.coefficients.betas)
            assert r.mse == r.responder_sigma * r.responder_sigma * r.omega_sq_cond
            assert r.mse == pytest.approx(fit.mse, rel=1e-12)


def test_collinear_design_raises():
    x = list(np.random.default_rng(29).standard_normal(15))
    with pytest.raises(SingularMatrixError):
        fit_single(DesignMatrix([x, x]), list(range(15)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_design_column_is_an_error():
    """A design column near 1e160 overflows its squared norm: the fit
    raises, naming the column, where it returned NaN mse and betas with
    only a RuntimeWarning."""
    z, y = np.random.default_rng(31).standard_normal((2, 20))
    for ordering in ("a", "b"):
        with pytest.raises(InternalNumericError, match="column 0 "):
            fit_multi(DesignMatrix([list(1e160 + 1e150 * z)]), [list(y)], ordering)
    with pytest.raises(InternalNumericError, match="column 0 "):
        fit_single(DesignMatrix([list(1e160 + 1e150 * z)]), list(y))


def test_non_finite_inputs_are_value_errors():
    """A NaN or infinite design or responder value is rejected as such,
    where it was reported as a squared norm overflowing float64."""
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            DesignMatrix([[0.0, 1.0, bad, 3.0]])
        with pytest.raises(ValueError, match="NaN or infinite"):
            fit_single(DesignMatrix([range(6)]), [1, 2, bad, 4, 5, 6])
        for ordering in ("a", "b"):
            with pytest.raises(ValueError, match="NaN or infinite"):
                fit_multi(DesignMatrix([range(6)]), [range(6), [1, bad, 3, 4, 5, 6]],
                          ordering)


def test_unknown_ordering_rejected():
    """The ordering is checked before any work: an overflowing responder
    raised InternalNumericError from the Gram table first."""
    X = DesignMatrix([[0.0, 1.0, 2.0]])
    for y in ([1.0, 2.0, 3.0], [1e160, 2e160, 3e160]):
        with pytest.raises(ValueError, match="unknown ordering 'c'"):
            fit_multi(X, [y], ordering="c")


def test_fit_multi_checks_its_responders():
    """A responder of the wrong length, or none at all, is refused before
    any work; with a predictor given, the message names only what is
    missing."""
    X = DesignMatrix([[0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match="^responder length does not match design$"):
        fit_multi(X, [[1.0, 2.0, 3.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="^need at least one responder column$"):
        fit_multi(X, [])


def test_gram_products_checks_its_columns():
    """gram_products checks its column lists as the correlation model
    does: a negative index silently read the last column, and an index
    past the end raised a bare IndexError."""
    data = synthetic_observations(10, 3, seed=1)
    for pred, resp, message in (([-1, 0], [1], "column index -1 out of range for p=3"),
                                ([0, 3], [1], "column index 3 out of range for p=3"),
                                ([0, 1], [1], "must be disjoint"),
                                ([], [1], "need at least one predictor"),
                                ([0], [], "need at least one predictor")):
        for build in (gram_products, build_correlation_model):
            with pytest.raises(ValueError, match=message):
                build(data, pred, resp)


def test_gram_products_holds_one_copy_of_the_rows():
    """Beside its Gram matrix, gram_products holds only the stacked rows
    [1; X; Y] it keeps: a fancy-index copy of the columns stacked again
    peaked at 2.0x the rows."""
    data = ObservationMatrix(np.random.default_rng(2).standard_normal((2000, 302)))
    tracemalloc.start()
    try:
        tables = gram_products(data, range(300), [300, 301])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables.rows.shape == (303, 2000)
    assert peak < 1.2 * tables.rows.nbytes


def test_gram_table_pairs_no_responders():
    """The Gram table pairs [1; X; Y] only with [1; X], the entries its
    readers look up: at n = 20, m = 4000, d = 1000, beside the rows it
    keeps, gram_products peaks within four times those (1 + n)(1 + n + m)
    entries plus the kernel's two tiles (34.3 MiB in all). It reads
    31.7 MiB; with the (1 + n + m)^2 table it read 154.2 MiB."""
    n, m = 20, 4000
    data = synthetic_observations(1000, n + m, seed=7)
    tracemalloc.start()
    try:
        tables = gram_products(data, range(n), range(n, n + m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables.g.shape == (1 + n + m, 1 + n)
    assert peak < (tables.rows.nbytes + 4 * (1 + n) * (1 + n + m) * 8
                   + 2 * stats.DOT_FLOATS * 8)
