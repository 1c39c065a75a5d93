"""Subset enumeration, the tie window, and the selection driver."""

import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import all_cond_scores, exact_omega_sq, guarded_instance, make_instance, scan, stack
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bestsubset.hat as hat
import bestsubset.kernels as kernels
import bestsubset.search as search
from bestsubset import (
    DesignMatrix,
    InternalNumericError,
    InvalidSparsityError,
    LimitExceededError,
    NoValidSubsetError,
    ObservationMatrix,
    SingularMatrixError,
    UnknownMethodError,
    build_correlation_model,
    correlation_matrix,
    fit_multi,
    gram_products,
    pearson,
    select_best,
    synthetic_observations,
)
from bestsubset import cli
from bestsubset.gauss import solve_symmetric
from bestsubset.hat import assemble_xtx, assemble_xty, scan_fit_a, scan_fit_b
from bestsubset.kernels import omega_sq_stacked
from bestsubset.stats import _dots
from bestsubset.search import METHODS, ArgminWindow, enumerate_subsets, slice_correlations
from bestsubset.tolerances import TIE_EPS


def test_enumeration_order_and_count():
    assert list(enumerate_subsets(3, 2)) == [(0, 1), (0, 2), (1, 2)]
    assert sum(1 for _ in enumerate_subsets(10, 3)) == math.comb(10, 3)
    assert list(enumerate_subsets(4, 4)) == [(0, 1, 2, 3)]


def test_enumeration_rejects_bad_k():
    with pytest.raises(InvalidSparsityError):
        list(enumerate_subsets(5, 0))
    with pytest.raises(InvalidSparsityError):
        list(enumerate_subsets(5, 6))


def test_slice_is_bit_identical_to_raw_pearson():
    data, pred, resp, model = make_instance(47, d=30, n=6, m=2)
    rx, rho = slice_correlations(model, (1, 3, 4), 1)
    for a, i in enumerate((1, 3, 4)):
        for b, j in enumerate((1, 3, 4)):
            expected = 1.0 if i == j else pearson(data.column(pred[i]), data.column(pred[j]))
            assert rx[a][b] == expected
        assert rho[a] == pearson(data.column(resp[1]), data.column(pred[i]))


# ---------------------------------------------------------------------------
# tie window
# ---------------------------------------------------------------------------

def test_window_basic_min():
    w = ArgminWindow()
    w.add(0.5, (1,))
    w.add(0.3, (2,))
    w.add(0.4, (0,))
    assert w.winner() == (0.3, (2,))


def test_window_exact_tie_prefers_lexicographic():
    w = ArgminWindow()
    w.add(0.3, (5,))
    w.add(0.3, (2,))
    w.add(0.3, (7,))
    assert w.winner()[1] == (2,)


def test_window_near_tie_within_eps():
    w = ArgminWindow()
    w.add(0.3, (4,))
    w.add(0.3 + 5e-13, (1,))  # within TIE_EPS = 1e-12, lex smaller: wins
    assert w.winner()[1] == (1,)
    w.add(0.3 - 1e-6, (9,))  # clear new minimum
    assert w.winner()[1] == (9,)


def test_window_winner_independent_of_stream_order():
    """Shuffled, sorted and reversed streams all yield the same winner."""
    rng = np.random.default_rng(51)
    for trial in range(30):
        n = 12
        subsets = list(itertools.combinations(range(6), 2))[:n]
        # cluster scores so several fall inside one eps window
        base = rng.choice([0.2, 0.5], size=n)
        jitter = rng.integers(-2, 3, size=n) * 4e-13
        stream = list(zip((base + jitter).tolist(), [tuple(s) for s in subsets]))
        rng.shuffle(stream)
        by_subset = sorted(stream, key=lambda e: e[1])
        winners = []
        for order in (stream, by_subset, by_subset[::-1]):
            w = ArgminWindow()
            for s, t in order:
                w.add(s, t)
            winners.append(w.winner())
        assert winners[0] == winners[1] == winners[2]


# scores on a grid of TIE_EPS / 2 around a few bases, so exact ties and
# near ties abound, mixed with arbitrary scores in [0, 1]
_window_scores = st.one_of(
    st.builds(lambda base, j: base + j * TIE_EPS / 2,
              st.sampled_from((0.0, 0.2, 0.5)), st.integers(-8, 8)),
    st.floats(0.0, 1.0),
)
_window_subsets = st.lists(st.integers(0, 6), min_size=1, max_size=3,
                           unique=True).map(lambda c: tuple(sorted(c)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(_window_scores, _window_subsets), min_size=1, max_size=30,
                unique_by=lambda e: e[1]))
def test_window_winner_is_the_definition(stream):
    """Whatever the order of the stream, the winner is the smallest subset
    among all candidates within TIE_EPS of the stream's minimum, with that
    candidate's own score."""
    w = ArgminWindow()
    for score, subset in stream:
        w.add(score, subset)
    lo = min(score for score, _ in stream)
    best = min(subset for score, subset in stream if score <= lo + TIE_EPS)
    assert w.winner() == ({t: s for s, t in stream}[best], best)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_planted_subset_found_by_all_methods():
    """A responder built from columns {1, 4} plus small noise is traced back."""
    rng = np.random.default_rng(53)
    d, n = 60, 6
    X = rng.standard_normal((d, n))
    y = 1.5 * X[:, 1] - 2.0 * X[:, 4] + 0.05 * rng.standard_normal(d)
    data = ObservationMatrix(np.column_stack([X, y]))
    for method in METHODS:
        res = select_best(data, range(n), [n], 2, method=method)
        assert res[0].subset_columns == (1, 4)
        assert res[0].r_squared > 0.99


def test_methods_agree_on_winners_and_scores():
    data, pred, resp, _ = make_instance(59, d=35, n=7, m=3)
    picks = {}
    for method in METHODS:
        out = select_best(data, pred, resp, 3, method=method)
        picks[method] = [(r.subset, r.mse) for r in out]
    base = picks["cond-uncorrelation"]
    for method in METHODS[1:]:
        for (s0, m0), (s1, m1) in zip(base, picks[method]):
            assert s0 == s1
            assert m1 == pytest.approx(m0, rel=1e-9)


def test_selection_matches_bruteforce_scores():
    """The winner really is the argmin over the exhaustive score table of
    the scalar Algorithm 2 kernels, and its reported omega^2 (the walk's)
    agrees with that table's to rounding."""
    data, pred, resp, model = make_instance(61, d=30, n=6, m=2)
    scores = all_cond_scores(model, 2)
    res = select_best(data, pred, resp, 2, method="cond-uncorrelation")
    for t in range(2):
        best = min(scores, key=lambda s: (scores[s][t], s))
        assert res[t].subset == best
        assert res[t].omega_sq_cond == pytest.approx(scores[best][t], rel=1e-12)


def _guarded_shape(seed):
    r = np.random.default_rng(seed)
    d, n, k, m = (int(r.integers(lo, hi)) for lo, hi in ((10, 51), (4, 11), (1, 5), (1, 4)))
    return d, n, min(k, n, d - 1), m


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(0, 10**6), st.integers(0, 2**32 - 1))
def test_winners_survive_a_change_of_predictor_units(base_seed, units_seed):
    """On gap-guarded instances, each predictor column x -> s x + c with
    s = 10^U(-6, 6) and |c| up to 1e3 s leaves every ``cond-uncorrelation``
    and ``algorithm1`` winner where it was: correlations do not see units.
    ``hat-*`` is left out, since it compares uncentred Gram pivots with
    the absolute EPS_PIV and so skips subsets of a column scaled near 1e-6."""
    _, d, n, k, m, data, pred, resp, _, _ = guarded_instance(base_seed, _guarded_shape)
    rng = np.random.default_rng(units_seed)
    scale = 10.0 ** rng.uniform(-6.0, 6.0, size=n)
    values = data.values.copy()
    values[:, pred] = values[:, pred] * scale + rng.uniform(-1e3, 1e3, size=n) * scale
    moved = ObservationMatrix(values)
    for method in ("cond-uncorrelation", "algorithm1"):
        want = [r.subset for r in select_best(data, pred, resp, k, method=method)]
        assert [r.subset for r in select_best(moved, pred, resp, k, method=method)] == want


def test_duplicate_column_skips_match_across_methods():
    """Subsets holding both copies of a duplicated column are skipped, and
    every method skips exactly the same count."""
    rng = np.random.default_rng(67)
    d, n = 40, 5
    X = rng.standard_normal((d, n))
    X[:, 3] = X[:, 0]  # exact duplicate
    y = rng.standard_normal(d)
    data = ObservationMatrix(np.column_stack([X, y]))
    k = 2
    expected_skipped = math.comb(n - 2, k - 2)  # subsets containing {0, 3}
    for method in METHODS:
        res = select_best(data, range(n), [n], k, method=method)
        assert res[0].skipped_singular == expected_skipped
        assert res[0].subsets_evaluated == math.comb(n, k) - expected_skipped


def test_duplicate_column_tie_resolves_lexicographically():
    """Identical columns produce exact score ties; the smaller index wins."""
    rng = np.random.default_rng(71)
    d = 50
    x0 = rng.standard_normal(d)
    x1 = rng.standard_normal(d)
    x2 = rng.standard_normal(d)
    y = x0 + 0.01 * rng.standard_normal(d)
    # column 3 is a bit-exact copy of column 0
    data = ObservationMatrix(np.column_stack([x0, x1, x2, x0, y]))
    for method in METHODS:
        for workers in (1, 3):
            res = select_best(data, range(4), [4], 1, method=method, workers=workers)
            assert res[0].subset_columns == (0,)


def test_worker_count_does_not_change_results():
    data, pred, resp, _ = make_instance(73, d=40, n=8, m=2)
    ref = select_best(data, pred, resp, 3, workers=1)
    for workers in (2, 3, 5, 8):
        got = select_best(data, pred, resp, 3, workers=workers)
        for a, b in zip(ref, got):
            assert a == b


def test_invalid_sparsity_errors():
    data = synthetic_observations(6, 8, seed=79)
    with pytest.raises(InvalidSparsityError):
        select_best(data, range(7), [7], 7)  # k > d-1
    with pytest.raises(InvalidSparsityError):
        select_best(data, range(3), [7], 4)  # k > n
    with pytest.raises(InvalidSparsityError):
        select_best(data, range(3), [7], 0)


def test_pair_limit_enforced():
    data = synthetic_observations(20, 11, seed=83)
    with pytest.raises(LimitExceededError):
        select_best(data, range(10), [10], 5, pair_limit=100)
    # 0 disables the cap
    select_best(data, range(10), [10], 5, pair_limit=0)


def test_no_valid_subset():
    rng = np.random.default_rng(89)
    x = rng.standard_normal(20)
    data = ObservationMatrix(np.column_stack([x, x, rng.standard_normal(20)]))
    with pytest.raises(NoValidSubsetError):
        select_best(data, [0, 1], [2], 2)


def test_unknown_method():
    data = synthetic_observations(20, 3, seed=97)
    with pytest.raises(UnknownMethodError):
        select_best(data, [0, 1], [2], 1, method="ridge")


def test_every_method_reports_the_score_that_won_its_window(monkeypatch):
    """For every method, at the default block sizes and with blocks of
    one subset, the reported omega^2 is the score that won the
    responder's window, bit for bit, with mse = sigma_y^2 * omega^2 and
    r_squared = 1 - omega^2. No winner is scored again: the scalar
    Algorithm 2 kernels and the least-squares fit are never called."""
    def refuse(*args, **kwargs):
        raise AssertionError("a winner was scored again")

    for module, name in ((kernels, "triangulate"), (kernels, "conditional_uuc"),
                         (hat, "fit_multi"), (hat, "DesignMatrix")):
        monkeypatch.setattr(module, name, refuse)
    assert not hasattr(search, "triangulate") and not hasattr(search, "conditional_uuc")
    scans = []
    argmin = search._argmin

    def recording(blocks, m):
        scans.append(argmin(blocks, m))
        return scans[-1]

    monkeypatch.setattr(search, "_argmin", recording)
    data, pred, resp, _ = make_instance(101, d=25, n=6, m=3)
    instances = ((data, pred, resp, 2), _collinear_shifted_instance(0))
    for block, floats in ((search.BLOCK, search.LSQ_FLOATS), (1, 1)):
        monkeypatch.setattr(search, "BLOCK", block)
        monkeypatch.setattr(search, "LSQ_FLOATS", floats)
        for data, pred, resp, k in instances:
            sigma = build_correlation_model(data, pred, resp).resp_sigma
            for method in METHODS:
                res = select_best(data, pred, resp, k, method=method)
                windows, scored = scans.pop()
                for t, (window, r) in enumerate(zip(windows, res)):
                    score, subset = window.winner()
                    assert r.subset == subset
                    assert r.omega_sq_cond.hex() == score.hex()
                    assert r.mse.hex() == (sigma[t] * sigma[t] * score).hex()
                    assert r.r_squared.hex() == (1.0 - score).hex()
                    assert r.subsets_evaluated == scored


def test_select_best_keeps_one_copy_of_the_model():
    """The correlation model is stored once, as an array: no whole-model
    list mirror, which alone would cost about 4x the matrix's bytes (the
    one-subset-at-a-time algorithm1 scan read 5.12x). At k = 2, so that
    the model holds its n x n predictor block, and with n > BLOCK, so
    that the walk's first level, BLOCK rows of n, and the gather that
    fills it stay below the model: the walk reads 1.89x, algorithm1 1.63x.
    At n = 150 the walk's first level held all n - 1 rows, 3.1x, and the
    walk read 2.48x while it gathered the level's BLOCK rows of rx at once."""
    n, m = 700, 2
    data = synthetic_observations(100, n + m, seed=5)
    for method, bound in (("cond-uncorrelation", 2.2), ("algorithm1", 3)):
        tracemalloc.start()
        try:
            select_best(data, range(n), [n, n + 1], 2, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * (n + m) ** 2 * 8, method


def test_one_predictor_selection_builds_no_predictor_block(monkeypatch):
    """At k = 1 no method reads a predictor pair, so the model holds none:
    at n = 2000 the n x n block alone is 32 MB. The peak stays under half
    of it, beside the (1 + n + m) x (1 + n) Gram table of hat-*, which
    pairs every row with [1; X]: it reads 1.0 MiB, and 32.9 MiB with a
    30.6 MiB table (38.6 MiB when the kernel built each pair of tiles in
    a temporary). When the model held all (n + m)^2 correlations, it read
    42.5 and 69.1 MiB."""
    n, m = 2000, 2
    data = synthetic_observations(50, n + m, seed=3)
    models = []
    build = search.build_correlation_model

    def recording(*args, **kwargs):
        models.append(build(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(search, "build_correlation_model", recording)
    for method in METHODS:
        tracemalloc.start()
        try:
            select_best(data, range(n), range(n, n + m), 1, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram = (1 + n + m) * (1 + n) * 8 if method.startswith("hat") else 0
        assert models.pop().rx is None, method
        assert peak < gram + n * n * 8 / 2, method
    # hat-* reads no predictor pair at any k: of the model, only sigma_y
    for method in ("hat-a", "hat-b"):
        select_best(data, range(20), range(n, n + m), 2, method=method)
        assert models.pop().rx is None, method


def _collinear_shifted_instance(seed):
    """Columns 0 and 1 nearly collinear, responders fitted almost exactly
    on them, per-column scales in 1e-6..1e6 and shifts up to 1e8: the
    uncentered normal equations of the hat-* baseline sit near singular."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(15, 60))
    n = int(rng.integers(4, 8))
    m = 2
    x = rng.standard_normal((d, n))
    x[:, 1] = x[:, 0] + 10.0 ** rng.uniform(-9, -2) * rng.standard_normal(d)
    y = x[:, :2] @ rng.standard_normal((2, m)) + 1e-6 * rng.standard_normal((d, m))
    table = np.column_stack([x, y]) * 10.0 ** rng.uniform(-6, 6, n + m)
    table = table + (rng.random(n + m) < 0.5) * rng.uniform(-1e8, 1e8, n + m)
    k = int(rng.integers(1, 4))
    return ObservationMatrix(table), list(range(n)), list(range(n, n + m)), k


@pytest.mark.parametrize("seed", [0, 8, 12])
def test_hat_coefficients_solve_the_scanned_normal_equations(seed):
    """The hat-* winner's coefficients come from the very tables the scan
    factored, so a subset the scan scored never fails when refitted, and
    they are ``fit_multi``'s on the winner's columns; its mse is sigma_y^2
    times the score that won its window."""
    data, pred, resp, k = _collinear_shifted_instance(seed)
    tables = gram_products(data, pred, resp)
    sigma = build_correlation_model(data, pred, resp).resp_sigma
    for method in ("hat-a", "hat-b"):
        for t, r in enumerate(select_best(data, pred, resp, k, method=method)):
            beta = solve_symmetric(assemble_xtx(tables, r.subset),
                                   assemble_xty(tables, r.subset, t))
            assert r.coefficients.beta0 == beta[0]
            assert r.coefficients.betas == tuple(beta[1:])
            fit, = fit_multi(DesignMatrix([data.column(c) for c in r.subset_columns]),
                             [data.column(r.responder_column)], ordering=method[-1])
            assert (r.coefficients.beta0, r.coefficients.betas) == (fit.beta[0], fit.beta[1:])
            assert r.mse == sigma[t] * sigma[t] * r.omega_sq_cond


def _negative_omega_instance(seed=57):
    """Two near-collinear predictor pairs and responders fitted almost
    exactly on the first pair: at seed 57 the float omega^2 of subset
    (0, 1) lands below 0 by more than EPS_NUM."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(8, 40))
    n = int(rng.integers(3, 7))
    x = rng.standard_normal((d, n))
    x[:, 1] = x[:, 0] + 10.0 ** rng.uniform(-7, -3) * rng.standard_normal(d)
    x[:, 3] = (x[:, 2] + rng.uniform(-2, 2) * x[:, 1]
               + 10.0 ** rng.uniform(-7, -3) * rng.standard_normal(d))
    y = x[:, :2] @ rng.standard_normal((2, 2)) + 10.0 ** rng.uniform(-14, -6) * rng.standard_normal((d, 2))
    table = np.column_stack([x, y]) * 10.0 ** rng.uniform(-6, 6, n + 2)
    k = int(rng.integers(2, 5))
    return ObservationMatrix(table), list(range(n)), [n, n + 1], k


def test_omega_beyond_tolerance_aborts_the_scan():
    """A leaf omega^2 outside [0, 1] by more than EPS_NUM goes through the
    one range check and aborts, naming the scalar kernel's check."""
    data, pred, resp, k = _negative_omega_instance()
    with pytest.raises(InternalNumericError, match=r"^conditional_uuc = -2\.60217"):
        select_best(data, pred, resp, k, method="cond-uncorrelation")
    with pytest.raises(InternalNumericError,
                       match=r"^omega_sq_stacked = -2\.60217074277147e-09 is outside"):
        select_best(data, pred, resp, k, method="algorithm1")


def test_range_check_runs_before_the_argmin():
    """A leaf omega^2 a rounding miss below 0 lands on 0.0 before the
    argmin, so it ties with an exact 0.0 and the smaller subset wins."""
    rx = np.eye(2)
    ry = np.array([[1.0, 1.0 + 2.5e-10]])  # omega^2 = 0.0 and about -5e-10
    windows, scored = search._argmin(search._tree_blocks(rx, ry, 1), 1)
    assert windows[0].winner() == (0.0, (0,))
    assert scored == 2


def test_perfect_fit_reports_zero_and_lexicographic_winner():
    """y = x1 + x2 exactly, with r12 = -0.5 and rho = 0.5 exact in float.
    Column 3 copies column 1, so (1, 2) and (2, 3) are both perfect fits
    and tie at 0.0; (1, 3) is singular."""
    x0 = [0, 1, -1, 2, 0, -2]
    x1 = [-2, 0, 0, 0, 1, 1]
    x2 = [1, 0, 0, 0, -2, 1]
    y = [a + b for a, b in zip(x1, x2)]
    data = ObservationMatrix(np.array([x0, x1, x2, x1, y], dtype=float).T)
    for method in METHODS:
        (res,) = select_best(data, range(4), [4], 2, method=method)
        assert res.subset == (1, 2)
        assert res.omega_sq_cond == 0.0
        assert res.skipped_singular == 1


def _reference_scan(model, k):
    """Winners and skip count from the scalar kernels, subset by subset."""
    scores = all_cond_scores(model, k)
    windows = [ArgminWindow() for _ in range(model.m)]
    for subset, row in scores.items():
        for t, score in enumerate(row):
            windows[t].add(score, subset)
    return [w.winner() for w in windows], math.comb(model.n, k) - len(scores)


@st.composite
def _scan_instances(draw, kinds=("noise", "duplicate", "collinear")):
    """(data, pred, resp, k): noise, duplicated columns, or the
    near-collinear shifted fuzz instance, with k drawn, 1, n or d-1."""
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(0, 2**16))
    if kind == "collinear":
        data, pred, resp, k = _collinear_shifted_instance(seed)
        n, d = len(pred), data.d
    else:
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        d = int(rng.integers(3, 12))
        x = rng.standard_normal((d, n + m))
        if kind == "duplicate":
            for _ in range(int(rng.integers(1, 3))):
                i, j = rng.choice(n, size=2, replace=False)
                x[:, j] = x[:, i]
        data = ObservationMatrix(x)
        pred, resp = list(range(n)), list(range(n, n + m))
        k = int(rng.integers(1, n + 1))
    k = {"drawn": k, "1": 1, "n": n, "d-1": d - 1}[
        draw(st.sampled_from(("drawn", "1", "n", "d-1")))]
    return data, pred, resp, min(k, n, d - 1)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_scan_instances(), st.sampled_from((1, 3, search.BLOCK)))
@example(_collinear_shifted_instance(0), 3)
@example(_collinear_shifted_instance(8), 3)
@example(_collinear_shifted_instance(12), search.BLOCK)
def test_batched_scan_matches_scalar_reference(instance, block):
    """The batched scan picks the winners, skips and counts of scoring
    every subset with the scalar kernels; its own omega^2 agree to 1e-12,
    and they are the ones reported. The walk's leaves, subsets and
    omega^2, are the same bytes at every BLOCK, and at BLOCK 1 a block
    edge falls between every two children."""
    data, pred, resp, k = instance
    model = build_correlation_model(data, pred, resp)
    try:
        ref, skipped = _reference_scan(model, k)
    except (InternalNumericError, NoValidSubsetError) as err:
        with pytest.raises(type(err)):
            select_best(data, pred, resp, k)
        return

    def leaf_bytes():
        blocks = list(search._tree_blocks(model.rx, model.ry, k))
        return [b"".join(block[i].tobytes() for block in blocks) for i in (0, 1)]

    default = leaf_bytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "BLOCK", block)
        windows, scored = search._argmin(search._tree_blocks(model.rx, model.ry, k), model.m)
        res = select_best(data, pred, resp, k)
        assert leaf_bytes() == default
    assert math.comb(model.n, k) - scored == skipped
    for (score, subset), window, r in zip(ref, windows, res):
        got_score, got_subset = window.winner()
        assert got_subset == subset == r.subset
        assert abs(got_score - score) <= 1e-12
        assert r.omega_sq_cond == got_score
        assert r.skipped_singular == skipped
        assert r.subsets_evaluated == math.comb(model.n, k) - skipped


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_scan_instances())
def test_model_holds_slices_of_the_correlation_matrix(instance):
    """A model's rx and ry are byte for byte the slices of the correlation
    matrix over predictors then responders, whether it serves every size
    or only up to k; one that serves only k = 1 holds no rx."""
    data, pred, resp, k = instance
    n = len(pred)
    full = correlation_matrix(data, pred + resp)
    for size in (None, k):
        model = build_correlation_model(data, pred, resp, k=size)
        assert model.ry.tobytes() == np.ascontiguousarray(full[n:, :n]).tobytes()
        if size == 1:
            assert model.rx is None
        else:
            assert model.rx.tobytes() == np.ascontiguousarray(full[:n, :n]).tobytes()


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_scan_instances())
def test_winning_omega_never_grows_with_the_subset(instance):
    """cond-uncorrelation's winning omega^2 at k + 1 is at most its winning
    omega^2 at k, within TIE_EPS, for every responder: some (k + 1)-subset
    holds the k winner, and adding a predictor never raises omega^2."""
    data, pred, resp, k = instance
    if k == min(len(pred), data.d - 1):
        k -= 1
    assume(k >= 1)
    try:
        small, large = (select_best(data, pred, resp, size) for size in (k, k + 1))
    except (InternalNumericError, NoValidSubsetError):
        assume(False)
    for a, b in zip(small, large):
        assert b.omega_sq_cond <= a.omega_sq_cond + TIE_EPS


def _planted_triples_instance(seed):
    """The scan-planted-sweep workload's shape, small: predictors in
    correlated triples (r about 0.8 within one), then an exact affine copy
    of column 0, and responders planted on four other predictors plus
    noise."""
    rng = np.random.default_rng(seed)
    d, triples, m = int(rng.integers(30, 200)), int(rng.integers(2, 5)), int(rng.integers(1, 4))
    x = (np.repeat(rng.standard_normal((d, triples)), 3, axis=1)
         + 0.5 * rng.standard_normal((d, 3 * triples)))
    x = np.column_stack([x, 3.0 * x[:, 0] - 2.0])
    n = x.shape[1]
    ys = [x[:, rng.choice(np.arange(1, n - 1), size=4, replace=False)]
          @ (rng.choice([-1.0, 1.0], size=4) * rng.uniform(1.0, 2.0, 4))
          + 1.5 * rng.standard_normal(d) for _ in range(m)]
    return ObservationMatrix(np.column_stack([x, *ys])), list(range(n)), list(range(n, n + m))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.integers(0, 2**16))
def test_reported_omega_matches_exact_arithmetic(seed):
    """Every cond-uncorrelation winner's reported omega^2, k = 1..5, lies
    within 1e-14 relative of det(R_xy) / det(R_x) of the model's float
    entries, eliminated exactly over Fractions. Over these draws' 320
    winners the largest relative error reads 2.3e-15; over 150 winners
    of the scan-planted-sweep and scan-noise workloads it read 1.37e-15
    for the walk and 1.68e-15 for the scalar Algorithm 2 kernels."""
    data, pred, resp = _planted_triples_instance(seed)
    model = build_correlation_model(data, pred, resp)
    for k in range(1, 6):
        for r in select_best(data, pred, resp, k):
            exact = exact_omega_sq(*slice_correlations(model, r.subset, r.responder_pos))
            assert abs(Fraction(r.omega_sq_cond) - exact) <= Fraction(1e-14) * exact


def _alg1_reference(model, k):
    """algorithm1 one subset at a time: every admissible subset's leaf
    omega^2 from the scalar ``omega_sq_stacked``, and the windows and skip
    count of the reference scan over them."""
    rx_rows, ry_rows = model.rx.tolist(), model.ry.tolist()
    scores = {}

    def score(subset):
        rx = [[rx_rows[i][j] for j in subset] for i in subset]
        scores[subset] = [omega_sq_stacked(stack(rx, [row[j] for j in subset]))
                          for row in ry_rows]
        return scores[subset]

    windows, skipped = scan(score, enumerate_subsets(model.n, k), model.m)
    return scores, windows, skipped


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_scan_instances(), st.sampled_from((1, search.LSQ_FLOATS)))
@example(_negative_omega_instance(), 1)
@example(_negative_omega_instance(), search.LSQ_FLOATS)
@example(_collinear_shifted_instance(0), 1)
@example(_collinear_shifted_instance(12), search.LSQ_FLOATS)
def test_algorithm1_block_matches_scalar_kernel(instance, floats):
    """algorithm1's block scorer gives every leaf omega^2 of the scalar
    ``omega_sq_stacked`` bit for bit, so the winners, skips and counts of
    scoring one subset at a time, whether a block holds one subset or the
    default number; where the scalar scan aborts on a leaf outside
    [0, 1], the block scan aborts with the same message."""
    data, pred, resp, k = instance
    model = build_correlation_model(data, pred, resp)
    total = math.comb(model.n, k)
    subsets = np.array(list(enumerate_subsets(model.n, k)), dtype=np.intp)
    try:
        ref_scores, windows, skipped = _alg1_reference(model, k)
    except InternalNumericError as err:
        message = f"^{re.escape(str(err))}$"
        with pytest.raises(InternalNumericError, match=message):
            search._alg1_block(model.rx, model.ry, subsets)
        with pytest.MonkeyPatch.context() as mp, \
                pytest.raises(InternalNumericError, match=message):
            mp.setattr(search, "LSQ_FLOATS", floats)
            select_best(data, pred, resp, k, method="algorithm1")
        return
    omega, singular = search._alg1_block(model.rx, model.ry, subsets)
    for subset, row, skip in zip(map(tuple, subsets.tolist()), omega, singular):
        assert skip == (subset not in ref_scores)
        if not skip:
            assert row.tobytes() == np.array(ref_scores[subset]).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "LSQ_FLOATS", floats)
        if skipped == total:
            with pytest.raises(NoValidSubsetError):
                select_best(data, pred, resp, k, method="algorithm1")
            return
        res = select_best(data, pred, resp, k, method="algorithm1")
    for window, r in zip(windows, res):
        score, subset = window.winner()
        assert r.subset == subset
        assert r.omega_sq_cond == score
        assert r.skipped_singular == skipped
        assert r.subsets_evaluated == total - skipped


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_scan_instances(("noise", "duplicate")), st.integers(0, 2**16))
def test_winners_do_not_depend_on_responder_units(instance, seed):
    """Every method picks the same subsets, skips and counts after each
    responder y becomes s * (y + c), with s in 1e-6..1e6 and c in -5..5:
    all tie windows compare omega^2, which has no unit. When hat-* ranked
    the raw MSE, 2 of these 100 draws changed a hat-a or hat-b winner."""
    data, pred, resp, k = instance
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6, 6, len(resp))
    shift = rng.uniform(-5, 5, len(resp))
    values = data.values.copy()
    values[:, resp] = (values[:, resp] + shift) * scale
    for method in METHODS:
        picks = []
        for table in (data, ObservationMatrix(values)):
            try:
                res = select_best(table, pred, resp, k, method=method)
            except NoValidSubsetError as err:
                picks.append(type(err))
                continue
            picks.append([(r.subset, r.skipped_singular, r.subsets_evaluated) for r in res])
        assert picks[0] == picks[1], method


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_scan_instances(("noise",)), st.data())
def test_reordering_predictors_permutes_each_winner(instance, data_strategy):
    """Every method picks the same columns, as a set, from any ordering of
    the predictor list. Only draws where brute force puts each
    responder's runner-up more than 1e-9 above its winner in omega^2 are
    checked; a closer runner-up may win by rounding in another order."""
    data, pred, resp, k = instance
    scores = all_cond_scores(build_correlation_model(data, pred, resp), k)
    assume(scores)
    for t in range(len(resp)):
        ranked = sorted(row[t] for row in scores.values())
        assume(len(ranked) == 1 or ranked[1] - ranked[0] > 1e-9)
    shuffled = data_strategy.draw(st.permutations(pred))
    for method in METHODS:
        picks = [[set(r.subset_columns) for r in select_best(data, order, resp, k, method=method)]
                 for order in (pred, shuffled)]
        assert picks[0] == picks[1], method


def _unchecked_tables(data, pred, resp):
    """``gram_products``' tables, built past its overflow check."""
    rows = hat._stacked([data.column(c) for c in [*pred, *resp]])
    n = len(pred)
    g = np.empty((len(rows), 1 + n))
    _dots(g, lambda lo, hi: rows[lo:hi], data.d)
    return hat.GramTables(d=data.d, n=n, rows=rows, g=g)


def _lsq_reference(data, pred, resp, k, method):
    """Every subset's scalar least-squares score, and the windows and skip
    count of the one-subset reference scan over them, fed each MSE over
    its responder's variance as ``select_best`` feeds them."""
    tables = _unchecked_tables(data, pred, resp)
    sigma = build_correlation_model(data, pred, resp).resp_sigma
    d, m = data.d, len(resp)
    cols = [[1.0] * d] + [data.column_list(c) for c in pred]
    ys = [data.column_list(c) for c in resp]
    fit = scan_fit_a if method == "hat-a" else scan_fit_b
    scores = {}

    def score(subset):
        xtys = [assemble_xty(tables, subset, t) for t in range(m)]
        sub_cols = [cols[0]] + [cols[j + 1] for j in subset]
        sses = fit(assemble_xtx(tables, subset), xtys, sub_cols, ys, d)
        scores[subset] = [sse / d for sse in sses]
        return [mse / (s * s) for mse, s in zip(scores[subset], sigma)]

    windows, skipped = scan(score, enumerate_subsets(len(pred), k), m)
    return scores, windows, skipped


def _overflowing_gram_instance(col=2, k=2):
    """Column ``col`` sits near 1e160, so its squared norm overflows to
    inf, and ``gram_products`` rejects it. As a predictor, its Gram
    entries overflow too, and every subset holding it scores NaN, in the
    scalar fit as in the block."""
    x = np.random.default_rng(3).standard_normal((20, 5))
    x[:, col] = 1e160 + 1e150 * x[:, col]
    return ObservationMatrix(x), [0, 1, 2, 3], [4], k


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_scan_instances(), st.sampled_from((1, search.LSQ_FLOATS)))
@example(_collinear_shifted_instance(0), 1)
@example(_collinear_shifted_instance(8), 1)
@example(_collinear_shifted_instance(12), search.LSQ_FLOATS)
@example(_overflowing_gram_instance(), search.LSQ_FLOATS)
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
def test_batched_least_squares_matches_scalar_fit(instance, floats):
    """Every batched hat-a/hat-b score is bit-identical to the scalar fit,
    and so are the skips and the winners (ranked by MSE over the
    responder's variance); each reports its window's score, sigma_y^2
    times it as its mse, and the coefficients of the scanned tables,
    whether a block holds one subset or the default number, and when some
    scores are NaN (tables built past the overflow check, which
    ``select_best`` applies)."""
    data, pred, resp, k = instance
    tables = _unchecked_tables(data, pred, resp)
    sigma = build_correlation_model(data, pred, resp).resp_sigma
    total = math.comb(len(pred), k)
    subsets = np.array(list(enumerate_subsets(len(pred), k)), dtype=np.intp)
    for method in ("hat-a", "hat-b"):
        ref_scores, windows, skipped = _lsq_reference(data, pred, resp, k, method)
        scores, singular = hat._lsq_block(tables, subsets, method, 1.0)
        for subset, row, skip in zip(map(tuple, subsets.tolist()), scores, singular):
            assert skip == (subset not in ref_scores)
            if not skip:
                assert row.tobytes() == np.array(ref_scores[subset]).tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "LSQ_FLOATS", floats)
            if not np.isfinite([r @ r for r in tables.rows]).all():
                with pytest.raises(InternalNumericError):
                    select_best(data, pred, resp, k, method=method)
                continue
            if skipped == total:
                with pytest.raises(NoValidSubsetError):
                    select_best(data, pred, resp, k, method=method)
                continue
            res = select_best(data, pred, resp, k, method=method)
        for t, (window, r) in enumerate(zip(windows, res)):
            score, subset = window.winner()
            beta = solve_symmetric(assemble_xtx(tables, subset),
                                   assemble_xty(tables, subset, t))
            assert r.subset == subset
            assert r.omega_sq_cond == score
            assert r.mse == sigma[t] * sigma[t] * score
            assert (r.coefficients.beta0, r.coefficients.betas) == (beta[0], tuple(beta[1:]))
            assert r.skipped_singular == skipped
            assert r.subsets_evaluated == total - skipped


def _scalar_coefficients(data, pred, resp, k, method):
    """The per-responder route to winner t's [beta0, *betas]: its slice of
    the model through the scalar ``coefficients_from_correlations``, or for
    hat-* the scalar solve of its normal equations in the Gram tables."""
    if method.startswith("hat"):
        tables = gram_products(data, pred, resp)
        return lambda subset, t: solve_symmetric(assemble_xtx(tables, subset),
                                                 assemble_xty(tables, subset, t))
    model = build_correlation_model(data, pred, resp, k=k)

    def solve(subset, t):
        c = kernels.coefficients_from_correlations(
            *slice_correlations(model, subset, t), model.resp_sigma[t],
            [model.pred_sigma[j] for j in subset], model.resp_mean[t],
            [model.pred_mean[j] for j in subset])
        return [c.beta0, *c.betas]
    return solve


_K1 = (*make_instance(23, d=15, n=5, m=3)[:3], 1)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_scan_instances(), st.sampled_from(((search.BLOCK, search.LSQ_FLOATS), (1, 1))))
@example(_K1, (search.BLOCK, search.LSQ_FLOATS))
@example(_K1, (1, 1))
def test_every_winner_is_solved_in_one_block(instance, sizes):
    """Each scan solves all its winners' coefficients in one block call:
    ``coefficients_from_correlations`` runs once per cond-uncorrelation or
    algorithm1 scan, and never per responder through ``slice_correlations``
    or the hat-* tables' ``assemble_xtx``/``assemble_xty``. Every beta0 and
    beta is the per-responder scalar route's bit for bit, for every method
    at the default block sizes and at blocks of one subset, and a winner
    whose solve is singular raises that route's first error."""
    data, pred, resp, k = instance
    calls, scans = [], []
    argmin, coefficients = search._argmin, search.coefficients_from_correlations

    def refuse(*args, **kwargs):
        raise AssertionError("a winner was solved on its own")

    def counting(*args):
        calls.append(args)
        return coefficients(*args)

    def recording(blocks, m):
        scans.append(argmin(blocks, m))
        return scans[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "BLOCK", sizes[0])
        mp.setattr(search, "LSQ_FLOATS", sizes[1])
        mp.setattr(search, "_argmin", recording)
        mp.setattr(search, "coefficients_from_correlations", counting)
        for module, name in ((search, "slice_correlations"), (hat, "assemble_xtx"),
                             (hat, "assemble_xty")):
            mp.setattr(module, name, refuse)
        for method in METHODS:
            calls.clear()
            scans.clear()
            raised = None
            try:
                res = select_best(data, pred, resp, k, method=method)
            except (InternalNumericError, NoValidSubsetError):
                continue
            except SingularMatrixError as err:
                raised = err
            assert len(calls) == (0 if method.startswith("hat") else 1)
            (windows, _), = scans
            solve, want = _scalar_coefficients(data, pred, resp, k, method), []
            try:
                for t, window in enumerate(windows):
                    want.append(solve(window.winner()[1], t))
            except SingularMatrixError as err:
                assert raised is not None
                assert (raised.pivot_index, raised.pivot) == (err.pivot_index, err.pivot)
                continue
            assert raised is None
            got = [[r.coefficients.beta0, *r.coefficients.betas] for r in res]
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_least_squares_scan_memory_is_bounded():
    """The hat-* scan holds one block of subsets at a time. At d=1000 and
    m=5 its tracemalloc peak reads 1.2 MB; blocks sized at 2**17 floats
    read 4.6 MB, and all 120 subsets at once 20 MB."""
    data = synthetic_observations(1000, 15, seed=3)
    tracemalloc.start()
    try:
        select_best(data, range(10), range(10, 15), 3, method="hat-b")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _walk_peak(n, m, k):
    """tracemalloc peak of walk and argmin, in bytes, on a model of
    ``synthetic_observations(200, n + m, seed=7)``."""
    data = synthetic_observations(200, n + m, seed=7)
    model = build_correlation_model(data, range(n), range(n, n + m))
    tracemalloc.start()
    try:
        search._argmin(search._tree_blocks(model.rx, model.ry, k), m)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, m, k", [(30, 10, 6), (20, 1000, 4)])
def test_tree_walk_memory_is_bounded(n, m, k):
    """The walk holds one block of at most BLOCK nodes per level, and a
    node of size s holds s (n + m) + m floats, so its k levels hold at
    most k/2 * BLOCK (k + 1)(n + m) floats, and one block's temporaries
    at most BLOCK (k + 1)(n + m) more. The tracemalloc peak of walk and
    argmin stays under the sum, (k/2 + 1) * BLOCK (k + 1)(n + m) floats:
    4.4 MiB at (n, m, k) = (30, 10, 6), where it reads 2.7 MiB, and
    59.8 MiB at (20, 1000, 4), where it reads 28.0 MiB (29 KiB per
    responder). When each block's gathers and concatenates stayed alive
    below it, each level held its index arrays and the argmin its last
    block, these read 5.4 and 66.5 MiB."""
    assert _walk_peak(n, m, k) < (k / 2 + 1) * search.BLOCK * (k + 1) * (n + m) * 8


def test_leaves_gather_a_few_parents_at_a_time():
    """A leaf block gathers its parents' v rows stats.DOT_FLOATS floats at a time, and
    a child block copies them one row of the parents at a time: at
    (n, m, k) = (20, 1000, 4) the walk reads 28.0 MiB. It read 35.7 MiB
    when a leaf block gathered all of them (512 x 3 x 1000 floats)."""
    assert _walk_peak(20, 1000, 4) < 30 * 2**20


def test_nan_scores_never_win():
    """A NaN heading a window left it no winner (a ValueError from min());
    it is never handed on, so the finite scores decide."""
    subsets = np.array([[0], [1], [2]])
    scores = np.array([[np.nan, 0.5], [0.25, np.nan], [0.5, 0.75]])
    windows, _ = search._argmin([(subsets, scores)], 2)
    assert [w.winner() for w in windows] == [(0.25, (1,)), (0.5, (0,))]


def test_argmin_hands_on_only_what_can_still_win(monkeypatch):
    """A score above its responder's running minimum plus TIE_EPS can
    never win, so it never reaches a window. When every score of the
    second block exceeds the first block's minimum by more than TIE_EPS,
    only the first block's m scores are added; judged against each
    block's own minimum, the second block's m were added too."""
    m = 5
    first = np.linspace(0.1, 0.5, m)[None, :]
    blocks = [(np.array([[0, 1]]), first),
              (np.array([[0, 2]]), first + 10 * TIE_EPS)]
    adds = []
    add = ArgminWindow.add

    def counted(self, score, subset):
        adds.append((score, subset))
        add(self, score, subset)

    monkeypatch.setattr(ArgminWindow, "add", counted)
    windows, scored = search._argmin(iter(blocks), m)
    assert scored == 2
    assert len(adds) == m
    assert [w.winner() for w in windows] == [(s, (0, 1)) for s in first[0].tolist()]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_gram_table_is_an_error(tmp_path, capsys):
    """A column whose squared norm overflows float64 is an error naming
    it (exit 11), not a column whose subsets all score NaN: on this table
    ``verify --k 1`` printed only a RuntimeWarning, then ``verify: FAIL``
    (exit 10), and ``select --method hat-a`` silently picked [3]."""
    data, pred, resp, k = _overflowing_gram_instance(col=0, k=1)
    for method in ("hat-a", "hat-b"):
        with pytest.raises(InternalNumericError, match="column 0 "):
            select_best(data, pred, resp, k, method=method)
    path = tmp_path / "overflow.csv"
    path.write_text("a,b,c,d,y\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in data.values.tolist()))
    for argv in (["verify"], ["select", "--method", "hat-a"]):
        code = cli.main(argv + ["--input", str(path), "--predictors", "a,b,c,d",
                                "--responders", "y", "--k", "1"])
        assert code == InternalNumericError.exit_code
        assert "column 0 " in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_responder_is_an_error():
    """A responder's squared norm is not in the Gram table, which pairs
    [1; X; Y] only with [1; X], so it is checked on its own: a responder
    near 1e160 is an error naming it, from the scan's tables and from
    ``fit_multi``'s. Its variance and its products with [1; X] stay
    finite, so nothing else raises, and numpy does not warn."""
    data, pred, resp, k = _overflowing_gram_instance(col=4)
    for method in ("hat-a", "hat-b"):
        with pytest.raises(InternalNumericError, match="column 4 "):
            select_best(data, pred, resp, k, method=method)
    design = DesignMatrix([data.column(c) for c in pred])
    for ordering in ("a", "b"):
        with pytest.raises(InternalNumericError, match="column 4 "):
            fit_multi(design, [data.column(4)], ordering=ordering)


def test_overflow_error_survives_warnings_as_errors(tmp_path):
    """Under ``-W error`` the overflowing responder still exits 11 naming
    its column: numpy's "overflow encountered in matmul" warning, raised
    as an exception before the check, ended select and verify with a
    RuntimeWarning traceback and exit 1."""
    data = _overflowing_gram_instance(col=4)[0]
    path = tmp_path / "overflow.csv"
    path.write_text("a,b,c,d,y\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in data.values.tolist()))
    src = str(pathlib.Path(search.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    for argv in (["select", "--method", "hat-a"], ["verify"]):
        run = subprocess.run([sys.executable, "-W", "error", "-m", "bestsubset.cli", *argv,
                              "--input", str(path), "--predictors", "a,b,c,d",
                              "--responders", "y", "--k", "1"],
                             capture_output=True, text=True, env=env)
        assert run.returncode == InternalNumericError.exit_code, run.stderr
        assert run.stdout == ""
        assert "column 4 " in run.stderr
        assert "RuntimeWarning" not in run.stderr
