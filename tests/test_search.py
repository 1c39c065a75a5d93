"""Subset enumeration, the tie window, and the selection driver."""

import itertools
import math

import numpy as np
import pytest
from conftest import all_cond_scores, make_instance

import bestsubset.search as search
from bestsubset import (
    InvalidSparsityError,
    LimitExceededError,
    NoValidSubsetError,
    ObservationMatrix,
    UnknownMethodError,
    gram_products,
    pearson,
    select_best,
    synthetic_observations,
)
from bestsubset.gauss import solve_symmetric
from bestsubset.hat import assemble_xtx, assemble_xty
from bestsubset.search import METHODS, ArgminWindow, enumerate_subsets, slice_correlations


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
    w = ArgminWindow(eps=1e-12)
    w.add(0.3, (4,))
    w.add(0.3 + 5e-13, (1,))  # within eps, lex smaller: wins
    assert w.winner()[1] == (1,)
    w.add(0.3 - 1e-6, (9,))  # clear new minimum
    assert w.winner()[1] == (9,)


def test_window_merge_equals_any_partition():
    """The merged winner matches a single sequential scan for every split."""
    rng = np.random.default_rng(51)
    for trial in range(30):
        n = 12
        subsets = list(itertools.combinations(range(6), 2))[:n]
        # cluster scores so several fall inside one eps window
        base = rng.choice([0.2, 0.5], size=n)
        jitter = rng.integers(-2, 3, size=n) * 4e-13
        stream = list(zip((base + jitter).tolist(), [tuple(s) for s in subsets]))
        rng.shuffle(stream)
        ref = ArgminWindow()
        for s, t in stream:
            ref.add(s, t)
        for _ in range(4):
            cut = sorted(rng.integers(0, n, size=2))
            parts = [stream[:cut[0]], stream[cut[0]:cut[1]], stream[cut[1]:]]
            merged = ArgminWindow()
            for part in parts:
                w = ArgminWindow()
                for s, t in part:
                    w.add(s, t)
                merged.merge(w)
            assert merged.winner() == ref.winner()


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
    """The winner really is the argmin over the exhaustive score table."""
    data, pred, resp, model = make_instance(61, d=30, n=6, m=2)
    scores = all_cond_scores(model, 2)
    res = select_best(data, pred, resp, 2, method="cond-uncorrelation")
    for t in range(2):
        best = min(scores, key=lambda s: (scores[s][t], s))
        assert res[t].subset == best
        assert res[t].omega_sq_cond == scores[best][t]


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


def test_factorisation_amortised_once_per_subset(monkeypatch):
    """m responders share one predictor factorisation per subset."""
    calls = {"triangulate": 0, "tail": 0}
    real_tri = search.triangulate
    real_tail = search.conditional_uuc

    def counting_tri(rx):
        calls["triangulate"] += 1
        return real_tri(rx)

    def counting_tail(cache, rho):
        calls["tail"] += 1
        return real_tail(cache, rho)

    monkeypatch.setattr(search, "triangulate", counting_tri)
    monkeypatch.setattr(search, "conditional_uuc", counting_tail)
    data, pred, resp, _ = make_instance(101, d=25, n=6, m=3)
    select_best(data, pred, resp, 2, method="cond-uncorrelation")
    total = math.comb(6, 2)
    assert calls["triangulate"] == total
    assert calls["tail"] == total * 3


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
    factored, so a subset the scan scored never fails when refitted."""
    data, pred, resp, k = _collinear_shifted_instance(seed)
    tables = gram_products(data, pred, resp)
    for method in ("hat-a", "hat-b"):
        for t, r in enumerate(select_best(data, pred, resp, k, method=method)):
            beta = solve_symmetric(assemble_xtx(tables, r.subset),
                                   assemble_xty(tables, r.subset, t))
            assert r.coefficients.beta0 == beta[0]
            assert r.coefficients.betas == tuple(beta[1:])
