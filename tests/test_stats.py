"""Column statistics and Pearson correlation layer."""

import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import stack
from hypothesis import given, settings
from hypothesis import strategies as st

from bestsubset import (
    InternalNumericError,
    ObservationMatrix,
    ZeroVarianceColumn,
    build_correlation_model,
    column_stats,
    correlation_matrix,
    pearson,
    synthetic_observations,
)
from bestsubset import cli, select_best, stats, tolerances
from bestsubset.search import slice_correlations
from bestsubset.stats import _dots
from bestsubset.tolerances import EPS_NUM, _clamp


def test_an_exact_affine_responder_clamps_to_one(monkeypatch):
    """A responder 3 x0 - 2 correlates with x0 at 1.0000000000000002 on
    this draw: the range rule lands it on exactly 1.0, so ``cond-uncorrelation``
    picks x0 with omega^2 = 0."""
    x = np.random.default_rng(3).standard_normal((30, 3))
    data = ObservationMatrix(np.column_stack((x, 3 * x[:, 0] - 2)))
    clamped = []
    clamp = tolerances._clamp

    def recorded(value, lo, hi, what):
        clamped.append((value, what))
        return clamp(value, lo, hi, what)

    monkeypatch.setattr(tolerances, "_clamp", recorded)
    model = build_correlation_model(data, [0, 1, 2], [3])
    assert clamped == [(1.0000000000000002, "pearson(0, 3)")]
    assert model.ry[0, 0] == 1.0
    (r,) = select_best(data, [0, 1, 2], [3], 1)
    assert r.subset == (0,) and r.omega_sq_cond == 0.0


def test_column_stats_known_values():
    """mean and 1/d sigma of (1,2,3,4)."""
    s = column_stats([1.0, 2.0, 3.0, 4.0])
    assert s.mean == pytest.approx(2.5)
    assert s.sigma == pytest.approx(np.sqrt(1.25))


def test_column_stats_constant_column_no_error():
    """A constant column reports sigma 0 without raising."""
    s = column_stats([5.0, 5.0, 5.0])
    assert s.mean == 5.0
    assert s.sigma == 0.0
    assert s.degenerate


def test_column_stats_needs_one_vector():
    """A table or a scalar is not a column: neither yields the moments of
    some row of it."""
    for x in ([[1.0, 2.0], [3.0, 5.0]], 4.0):
        with pytest.raises(ValueError, match="1-D vector"):
            column_stats(x)


def test_column_stats_refuses_an_empty_vector_by_name():
    """It raised numpy's reduction error after two RuntimeWarnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty vector"):
            column_stats([])


def test_pearson_refuses_empty_vectors_by_name():
    """It raised ZeroDivisionError from the tile-size division."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty vectors"):
            pearson([], [])


def test_pearson_hand_value():
    """pearson((1,2,3),(1,2,2)) works out to sqrt(3)/2 by hand."""
    assert pearson([1, 2, 3], [1, 2, 2]) == pytest.approx(np.sqrt(3) / 2, abs=1e-12)


def test_pearson_needs_two_vectors_of_equal_length():
    for x, y in (([1.0, 2.0, 3.0], [1.0, 2.0]), ([[1.0, 2.0]], [[2.0, 1.0]])):
        with pytest.raises(ValueError, match="two 1-D vectors of equal length"):
            pearson(x, y)


def test_pearson_self_is_one():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(25)
    assert pearson(x, x) == pytest.approx(1.0, abs=1e-14)


def test_pearson_proportional_columns():
    """An exact affine rescale gives correlation 1 (or -1 for negative slope)."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal(40)
    assert pearson(x, 2.0 * x + 3.0) == pytest.approx(1.0, abs=1e-14)
    assert pearson(x, -0.5 * x + 1.0) == pytest.approx(-1.0, abs=1e-14)
    r = correlation_matrix(ObservationMatrix(np.column_stack([x, 2 * x])), [0, 1])
    assert r == pytest.approx(np.ones((2, 2)), abs=1e-14)


def test_pearson_never_leaves_unit_interval():
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = rng.standard_normal(10)
        assert -1.0 <= pearson(x, 3.0 * x + rng.standard_normal(10) * 1e-9) <= 1.0


def test_pearson_zero_variance_raises():
    """The error names the constant argument; correlation_matrix names the
    raw column index."""
    with pytest.raises(ZeroVarianceColumn) as err:
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    assert err.value.column == "x"
    with pytest.raises(ZeroVarianceColumn) as err:
        pearson([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    assert err.value.column == "y"
    data = ObservationMatrix([[1.0, 4.0, 2.0], [2.0, 4.0, 1.0], [3.0, 4.0, 5.0]])
    with pytest.raises(ZeroVarianceColumn) as err:
        correlation_matrix(data, [2, 1, 0])
    assert err.value.column == 1


def test_overflowing_variance_rejected(tmp_path, capsys):
    """A column whose variance overflows float64 is an error, not a column
    that correlates 0 with everything.

    y follows b closely, but b is written x1e200; with sigma_b = inf every
    correlation with b used to come out exactly 0, and select picked [a]
    with exit 0. No numpy overflow warning comes before the error.
    """
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(20), rng.standard_normal(20)
    table = np.column_stack([a, b * 1e200, b + 0.01 * rng.standard_normal(20)])
    data = ObservationMatrix(table)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy does not warn before the error
        with pytest.raises(InternalNumericError, match="'y'"):
            pearson(table[:, 2], table[:, 1])
        with pytest.raises(InternalNumericError, match="column 1 "):
            correlation_matrix(data, [0, 1, 2])
        with pytest.raises(InternalNumericError, match="column 1 "):
            build_correlation_model(data, [0, 1], [2])
    path = tmp_path / "overflow.csv"
    path.write_text("a,b,y\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in table.tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["select", "--input", str(path), "--predictors", "a,b",
                         "--responders", "y", "--k", "1"])
    assert code == InternalNumericError.exit_code
    assert "column 1 " in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_first_bad_column_in_column_order_raises(monkeypatch):
    """The moments of all columns are checked at once, yet the error is
    the first bad column's in column order, as when each was checked in
    turn: in two-column tiles, with the two bad columns in different
    tiles or side by side in one, whichever of an overflowing variance
    and a zero one comes first is named, and numpy does not warn first."""
    x = np.random.default_rng(5).standard_normal((20, 5))
    x[:, 3] = 2.0
    x[:, 4] *= 1e200
    data = ObservationMatrix(x)
    zero = ("column 3 has zero (or numerically negligible) variance; "
            "Pearson correlation is undefined for it")
    over = "column 4 has a variance that overflows float64"
    monkeypatch.setattr(stats, "DOT_FLOATS", 2 * data.d)
    monkeypatch.setattr(stats, "DOT_MIN_ROWS", 1)
    for cols, error, message in (([0, 3, 1, 4], ZeroVarianceColumn, zero),
                                 ([0, 4, 1, 3], InternalNumericError, over),
                                 ([0, 1, 3, 4], ZeroVarianceColumn, zero),
                                 ([0, 1, 4, 3], InternalNumericError, over)):
        for build in (lambda: correlation_matrix(data, cols),
                      lambda: build_correlation_model(data, cols[:1], cols[1:])):
            with pytest.raises(error) as err:
                build()
            assert str(err.value) == message


def test_a_correlation_out_of_range_is_named_by_its_columns_in_column_order(monkeypatch):
    """An entry of the one correlation table pushed past 1 + EPS_NUM
    raises, named by its two columns in the order of the columns asked
    for, whichever triangle of the square holds it and whether the model
    has the predictor square (k = 2) or only the responder rows (k = 1).
    Predictors (3, 1) and responders (0, 2) give the rows 3, 1, 0, 2."""
    data = synthetic_observations(30, 4, seed=5)
    dots = stats._dots

    def pushing(row, j):
        def fill(out, tile, d, first=0):
            dots(out, tile, d, first)
            out[row - first, j] = 1e300
        return fill

    cases = [(row, j, k, name) for k in (2, None) for row, j, name in
             ((0, 1, "pearson(3, 1)"), (1, 0, "pearson(3, 1)"))]
    cases += [(row, j, k, name) for k in (2, 1) for row, j, name in
              ((3, 0, "pearson(3, 2)"), (2, 1, "pearson(1, 0)"))]
    for row, j, k, name in cases:
        monkeypatch.setattr(stats, "_dots", pushing(row, j))
        with pytest.raises(InternalNumericError) as err:
            build_correlation_model(data, [3, 1], [0, 2], k=k)
        what, rest = str(err.value).split(" = ")
        assert what == name and rest.endswith(" is outside [-1.0, 1.0] beyond tolerance")
        assert float(rest.split()[0]) > 1.0 + EPS_NUM
    for row, j in ((0, 1), (1, 0)):
        monkeypatch.setattr(stats, "_dots", pushing(row, j))
        with pytest.raises(InternalNumericError, match=r"^pearson\('x', 'y'\) = "):
            pearson(data.column(0), data.column(1))


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0)])
def test_range_check_clamps_rounding_and_raises_beyond(lo, hi):
    """The one range check on correlations and squared UUCs: an overshoot
    within EPS_NUM lands on the bound, anything further out or NaN raises."""
    assert _clamp(lo, lo, hi, "v") == lo
    assert _clamp(hi, lo, hi, "v") == hi
    assert _clamp(lo - EPS_NUM / 2, lo, hi, "v") == lo
    assert _clamp(hi + EPS_NUM / 2, lo, hi, "v") == hi
    for bad in (lo - 2 * EPS_NUM, hi + 2 * EPS_NUM, float("nan")):
        with pytest.raises(InternalNumericError, match="what-it-was"):
            _clamp(bad, lo, hi, "what-it-was")


def test_pearson_matches_sample_normalisation_oracle():
    """1/d vs 1/(d-1) cancels: np.corrcoef agrees to 1e-12."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


def test_scale_shift_invariance():
    """Pearson is invariant to positive affine maps of either argument."""
    rng = np.random.default_rng(19)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    base = pearson(x, y)
    for _ in range(10):
        a, b = float(rng.uniform(0.1, 10)), float(rng.uniform(-5, 5))
        assert pearson(a * x + b, y) == pytest.approx(base, abs=1e-12)


def test_correlation_matrix_shape_and_symmetry():
    data = synthetic_observations(40, 5, seed=23)
    r = correlation_matrix(data, range(5))
    assert r.shape == (5, 5)
    assert np.array_equal(r, r.T)
    assert np.all(np.diag(r) == 1.0)


def test_correlation_matrix_submatrix_bit_identical():
    """Slicing the full matrix equals recomputing on the subset, bit for bit."""
    data = synthetic_observations(60, 7, seed=29)
    full = correlation_matrix(data, range(7))
    sub = [1, 3, 4, 6]
    small = correlation_matrix(data, sub)
    assert np.array_equal(small, full[np.ix_(sub, sub)])
    # the scan's stacked matrix, built from the model slice, is the same
    # pairwise computation with the responder moved last
    model = build_correlation_model(data, [0, 1, 2, 3, 4], [5, 6])
    for subset, t in (((0,), 0), ((1, 3), 1), ((0, 2, 4), 0), ((0, 1, 2, 3, 4), 1)):
        stacked = stack(*slice_correlations(model, subset, t))
        cols = [model.predictors[j] for j in subset] + [model.responders[t]]
        assert np.array_equal(np.array(stacked), correlation_matrix(data, cols))


@st.composite
def _column_picks(draw):
    """(data, columns): d from 2 to 70, so ddot's short and tail lengths
    all come up, or from 129 to 20,000, past numpy's 128-element
    pairwise-sum block and its 8192-element buffer, and a drawn order of
    columns with repeats, scaled and shifted apart."""
    d = draw(st.one_of(st.integers(2, 70), st.integers(129, 20_000)))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.standard_normal((d, p)) * 10.0 ** rng.uniform(-4, 4, p) + rng.uniform(-1e3, 1e3, p)
    return ObservationMatrix(x), draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=9))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(_column_picks())
def test_inner_product_kernel_is_pairwise_np_dot(instance):
    """Every entry the kernel fills is np.dot of its two rows, and every
    correlation is the pairwise formula on separately centred columns,
    byte for byte, whatever the length, order and repeats, and whether
    tiles hold 1, 2 or 3 rows or the default budget. So are the means and
    sigmas of the moments pass, which reads its columns as contiguous
    rows, and ``column_stats``: np.mean, then np.dot, of each strided
    column. Filled as one table of all rows against the first, as the
    Gram table is, the square over the first rows and the rest's rows
    against them are the square's columns over those rows; the rest's
    rows alone, as the one-predictor model fills them, are the square's
    block below them."""
    data, cols = instance
    d, q = data.d, len(cols)
    rows = np.ascontiguousarray(data.values[:, cols].T)
    mean = [float(np.mean(data.column(c))) for c in cols]
    devs = [data.column(c) - mu for c, mu in zip(cols, mean)]
    sigma = [float(np.sqrt(np.dot(v, v) / d)) for v in devs]
    for c, mu, s in zip(cols, mean, sigma):
        assert np.array(column_stats(data.column(c))[:2]).tobytes() == np.array([mu, s]).tobytes()
    expected = np.ones((q, q))
    for i in range(q):
        for j in range(i + 1, q):
            rho = float(np.dot(devs[i], devs[j])) / d / (sigma[i] * sigma[j])
            expected[i, j] = expected[j, i] = _clamp(rho, -1.0, 1.0, "rho")
    for tile_rows in (1, 2, 3, None):
        with pytest.MonkeyPatch.context() as mp:
            if tile_rows is not None:
                mp.setattr(stats, "DOT_FLOATS", tile_rows * d)
                mp.setattr(stats, "DOT_MIN_ROWS", 1)
            dots = np.full((q, q), np.nan)
            _dots(dots, lambda lo, hi: rows[lo:hi], d)
            for i in range(q):
                for j in range(q):
                    assert dots[i, j] == float(np.dot(rows[i], rows[j]))
            h = q // 2
            wide = np.full((q, h), np.nan)
            _dots(wide, lambda lo, hi: rows[lo:hi], d)
            assert wide.tobytes() == dots[:, :h].copy().tobytes()
            rest = np.full((q - h, h), np.nan)
            _dots(rest, lambda lo, hi: rows[lo:hi], d, h)
            assert rest.tobytes() == dots[h:, :h].copy().tobytes()
            assert correlation_matrix(data, cols).tobytes() == expected.tobytes()
            _, _, means, sigmas = stats._pairwise(data.values, cols, cols)
            assert means.tobytes() == np.array(mean).tobytes()
            assert sigmas.tobytes() == np.array(sigma).tobytes()


def test_large_sample_off_diagonals_small():
    """Independent columns at d=1000 decorrelate to well under 0.2."""
    data = synthetic_observations(1000, 3, seed=31)
    r = correlation_matrix(data, range(3))
    off = r[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) < 0.2


def test_observation_matrix_validation():
    with pytest.raises(ValueError):
        ObservationMatrix([[1.0, 2.0]])  # only one row
    with pytest.raises(ValueError):
        ObservationMatrix([[1.0], [np.nan]])
    with pytest.raises(ValueError):
        ObservationMatrix(np.zeros((3,)))  # not 2-D
    with pytest.raises(ValueError, match="need at least 1 variable"):
        ObservationMatrix(np.zeros((3, 0)))


def test_observation_matrix_read_only():
    data = synthetic_observations(10, 2, seed=37)
    with pytest.raises(ValueError):
        data.values[0, 0] = 99.0
    # the one copy made on construction is the matrix's own
    source = np.random.default_rng(37).standard_normal((10, 3))
    kept = source.tobytes()
    data = ObservationMatrix(source)
    source[0, 0] = 99.0
    assert data.values.tobytes() == kept
    for other in (source.tolist(), np.asfortranarray(source)):
        again = ObservationMatrix(other)
        assert again.values.flags.c_contiguous
        assert again.values.tobytes() == source.tobytes()
    # CSV ingest's private path holds its fresh array itself, read-only
    adopted = ObservationMatrix._adopt(source)
    assert adopted.values is source and not source.flags.writeable
    with pytest.raises(ValueError):
        ObservationMatrix._adopt(np.array([[1.0], [np.inf]]))


def test_synthetic_observations_hold_their_draw_once():
    """The drawn table is the matrix's own array, not a copy of it: the
    peak stays under 1.5x the table's bytes. Copying the draw read 2.2x."""
    tracemalloc.start()
    try:
        data = synthetic_observations(20000, 50, seed=53)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    drawn = np.random.default_rng(53).standard_normal((20000, 50))
    assert data.values.tobytes() == drawn.tobytes()
    assert not data.values.flags.writeable
    assert peak < 1.5 * data.values.nbytes


def test_model_holds_a_few_tiles_of_a_tall_table():
    """The correlation model of 8000 x 100 columns never holds all their
    deviations at once: its peak stays under half the columns' bytes.
    Centring them all into one array read over 1.0x."""
    data = synthetic_observations(8000, 100, seed=47)
    tracemalloc.start()
    try:
        build_correlation_model(data, range(98), [98, 99])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * data.values.nbytes


def test_model_pairs_no_responders():
    """The model computes the n (n + m) correlations the scan reads and
    never the m x m responder block: at n = 20, m = 4000, d = 1000 its
    peak stays within four times those entries plus the kernel's two
    tiles (2.5 MiB). With the responder block it read 170 MiB."""
    n, m = 20, 4000
    data = synthetic_observations(1000, n + m, seed=7)
    tracemalloc.start()
    try:
        build_correlation_model(data, range(n), range(n, n + m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * (n + m) * 8 + 2 * stats.DOT_FLOATS * 8


def test_model_slices_match_pairwise_pearson():
    """Model entries equal pearson() on the raw columns, bit for bit."""
    data = synthetic_observations(35, 6, seed=41)
    model = build_correlation_model(data, [0, 1, 2, 3], [4, 5])
    for i, ci in enumerate(model.predictors):
        for j, cj in enumerate(model.predictors):
            if i != j:
                assert model.rx[i, j] == pearson(data.column(ci), data.column(cj))
    for t, cr in enumerate(model.responders):
        for j, cj in enumerate(model.predictors):
            assert model.ry[t, j] == pearson(data.column(cr), data.column(cj))


def test_model_rejects_overlap_and_empties():
    data = synthetic_observations(20, 4, seed=43)
    with pytest.raises(ValueError):
        build_correlation_model(data, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        build_correlation_model(data, [], [3])
    with pytest.raises(ValueError):
        build_correlation_model(data, [0, 9], [3])
