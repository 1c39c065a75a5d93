"""Exhaustive subset search over all k-of-n predictor subsets.

Candidates are enumerated in lexicographic index order. Per subset the
determinant-ratio methods pay one predictor factorisation and then a
k^2 tail per responder; the least-squares baselines pay a full fit
including a pass over all d observations. Subsets whose predictor block
is numerically collinear are skipped, and the skip decision depends only
on the predictors, never on the responder.

The scan is embarrassingly parallel. Each worker reduces its share of
the stream into a small candidate window per responder and the windows
are merged at the end; the merge is associative, so the reported winner
is identical for any worker count or partition.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import hat
from .errors import (
    InvalidSparsityError,
    LimitExceededError,
    NoValidSubsetError,
    SingularMatrixError,
    UnknownMethodError,
)
from .gauss import solve_symmetric
from .kernels import (
    RegressionCoefficients,
    coefficients_from_correlations,
    conditional_uuc,
    omega_sq_stacked,
    triangulate,
)
from .stats import CorrelationModel, ObservationMatrix, build_correlation_model
from .tolerances import DEFAULT_PAIR_LIMIT, TIE_EPS

__all__ = [
    "METHODS",
    "SelectionResult",
    "ArgminWindow",
    "enumerate_subsets",
    "slice_correlations",
    "select_best",
]

METHODS = ("cond-uncorrelation", "algorithm1", "hat-a", "hat-b")


def enumerate_subsets(n: int, k: int):
    """All k-element index subsets of range(n), lexicographic, as tuples."""
    if not 1 <= k <= n:
        raise InvalidSparsityError(f"subset size k={k} not in 1..{n}")
    return itertools.combinations(range(n), k)


def slice_correlations(model: CorrelationModel, subset, responder: int):
    """Extract one subset's predictor block and responder vector.

    Entries come straight out of the precomputed model, so they are
    bit-identical to computing the correlations pairwise on raw columns.
    Returns (rx, rho) as fresh nested lists safe to consume.
    """
    rx, rhos = _slice(model, subset)
    return rx, rhos[responder]


def _slice(model: CorrelationModel, subset):
    """Predictor block of one subset and every responder's vector on it.

    The single reader of the model's nested-list copies, so every scorer,
    the coefficient recovery and the counting harness see the same entries.
    """
    rx = [[model.rx_rows[i][j] for j in subset] for i in subset]
    return rx, [[row[j] for j in subset] for row in model.ry_rows]


def _stack(rx, rho):
    """Stacked (k+1) x (k+1) correlation matrix, responder last; ``rx`` is
    copied, not consumed."""
    return [row + [r] for row, r in zip(rx, rho)] + [rho + [1.0]]


# ---------------------------------------------------------------------------
# deterministic windowed argmin
# ---------------------------------------------------------------------------

class ArgminWindow:
    """Running argmin over (score, subset) with a small tie window.

    The final winner is the lexicographically smallest subset among all
    candidates scoring within ``eps`` of the minimum. Rather than trust
    pairwise epsilon comparisons (which are not associative), the window
    keeps every candidate that could still win: one is dropped only when
    some kept candidate has both a score no larger and a smaller subset.
    Merging two windows therefore yields the same winner as scanning the
    concatenated stream, for any split.
    """

    __slots__ = ("eps", "entries")

    def __init__(self, eps: float = TIE_EPS):
        self.eps = eps
        self.entries: list[tuple[float, tuple[int, ...]]] = []

    def add(self, score: float, subset: tuple[int, ...]) -> None:
        entries = self.entries
        if entries:
            lo = min(s for s, _ in entries)
            if score < lo:
                lo = score
                self.entries = entries = [e for e in entries if e[0] <= lo + self.eps]
            elif score > lo + self.eps:
                return
        for s, t in entries:
            if s <= score and t < subset:
                return
        self.entries = [e for e in entries if not (e[0] >= score and e[1] > subset)]
        self.entries.append((score, subset))

    def merge(self, other: "ArgminWindow") -> None:
        for s, t in other.entries:
            self.add(s, t)

    def winner(self) -> tuple[float, tuple[int, ...]]:
        if not self.entries:
            raise NoValidSubsetError("no subset survived the scan")
        lo = min(s for s, _ in self.entries)
        best = min(t for s, t in self.entries if s <= lo + self.eps)
        score = next(s for s, t in self.entries if t == best)
        return score, best


# ---------------------------------------------------------------------------
# the subset scan
# ---------------------------------------------------------------------------

def _scan(score, subsets, m):
    """Reduce a subset stream into one argmin window per responder.

    ``score(subset)`` returns the m responder scores or raises
    SingularMatrixError; the methods only ever raise on predictor pivots,
    so a raise drops the whole subset and counts it as skipped.
    """
    windows = [ArgminWindow() for _ in range(m)]
    skipped = 0
    for subset in subsets:
        try:
            scores = score(subset)
        except SingularMatrixError:
            skipped += 1
            continue
        for t in range(m):
            windows[t].add(scores[t], subset)
    return windows, skipped


# ---------------------------------------------------------------------------
# selection driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionResult:
    """Winner for one responder: where it is, how good it is, and the fit."""

    responder_pos: int
    responder_column: int
    subset: tuple[int, ...]
    subset_columns: tuple[int, ...]
    omega_sq_cond: float
    mse: float
    r_squared: float
    coefficients: RegressionCoefficients
    skipped_singular: int
    subsets_evaluated: int


def _subset_chunks(n, k, workers, total):
    """Split the lexicographic stream into contiguous per-worker slices."""
    bounds = [round(w * total / workers) for w in range(workers + 1)]
    for w in range(workers):
        lo, hi = bounds[w], bounds[w + 1]
        if lo < hi:
            yield itertools.islice(itertools.combinations(range(n), k), lo, hi)


def select_best(
    data: ObservationMatrix,
    predictors,
    responders,
    k: int,
    method: str = "cond-uncorrelation",
    workers: int = 1,
    pair_limit: int | None = DEFAULT_PAIR_LIMIT,
) -> list[SelectionResult]:
    """Exact best subset of size k for every responder, by full enumeration.

    Parameters
    ----------
    data : ObservationMatrix
    predictors, responders : sequences of disjoint column indices
    k : subset size, 1 <= k <= min(n, d-1)
    method : one of METHODS; in exact arithmetic all four select the same
        subsets, they just get there at very different cost
    workers : worker threads for the scan; the result does not depend on it
    pair_limit : cap on scored (subset, responder) pairs, None or 0 for
        unlimited

    Returns one SelectionResult per responder, in responder order.
    """
    if method not in METHODS:
        raise UnknownMethodError(
            f"unknown method {method!r}; expected one of {', '.join(METHODS)}"
        )
    pred = tuple(int(c) for c in predictors)
    resp = tuple(int(c) for c in responders)
    n, m = len(pred), len(resp)
    if not 1 <= k <= n:
        raise InvalidSparsityError(f"subset size k={k} not in 1..{n}")
    if k > data.d - 1:
        raise InvalidSparsityError(
            f"k={k} exceeds d-1={data.d - 1}; centering makes such fits singular"
        )
    total = math.comb(n, k)
    if pair_limit and total * m > pair_limit:
        raise LimitExceededError(
            f"{total} subsets x {m} responders = {total * m} scored pairs "
            f"exceeds the limit of {pair_limit}; raise --limit to proceed"
        )
    workers = max(1, min(int(workers), total))

    model = build_correlation_model(data, pred, resp)
    tables = None
    if method in ("hat-a", "hat-b"):
        tables = hat.gram_products(data, pred, resp)
        cols = [[1.0] * data.d] + [data.column_list(c) for c in pred]
        ys = [data.column_list(c) for c in resp]
        fit = hat.scan_fit_a if method == "hat-a" else hat.scan_fit_b
        d = data.d

        def score(subset):
            xtx = hat.assemble_xtx(tables, subset)
            xtys = [hat.assemble_xty(tables, subset, t) for t in range(m)]
            sub_cols = [cols[0]] + [cols[j + 1] for j in subset]
            return [sse / d for sse in fit(xtx, xtys, sub_cols, ys, d)[0]]
    elif method == "algorithm1":
        def score(subset):
            rx, rhos = _slice(model, subset)
            return [omega_sq_stacked(_stack(rx, rho)) for rho in rhos]
    else:
        def score(subset):
            rx, rhos = _slice(model, subset)
            cache = triangulate(rx)
            return [conditional_uuc(cache, rho).omega_sq for rho in rhos]
    scan = lambda subsets: _scan(score, subsets, m)

    if workers == 1:
        windows, skipped = scan(enumerate_subsets(n, k))
    else:
        chunks = list(_subset_chunks(n, k, workers, total))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(scan, chunks))
        windows = [ArgminWindow() for _ in range(m)]
        skipped = 0
        for part_windows, part_skipped in parts:
            skipped += part_skipped
            for t in range(m):
                windows[t].merge(part_windows[t])

    if skipped == total:
        raise NoValidSubsetError(
            f"all {total} candidate subsets of size {k} were numerically collinear"
        )
    return [
        _finalise(model, tables, windows[t], t, skipped, total - skipped)
        for t in range(m)
    ]


def _finalise(model, tables, window, t, skipped, evaluated) -> SelectionResult:
    score, subset = window.winner()
    sigma_y = model.resp_sigma[t]
    sigma_y_sq = sigma_y * sigma_y
    if tables is not None:
        # the scan already factored this exact matrix without a skip
        mse = score
        omega = mse / sigma_y_sq
        beta = solve_symmetric(hat.assemble_xtx(tables, subset),
                               hat.assemble_xty(tables, subset, t))
        coeff = RegressionCoefficients(beta0=beta[0], betas=tuple(beta[1:]))
    else:
        omega = score
        mse = sigma_y_sq * omega
        rx, rho = slice_correlations(model, subset, t)
        coeff = coefficients_from_correlations(
            rx, rho, sigma_y,
            [model.pred_sigma[j] for j in subset],
            model.resp_mean[t],
            [model.pred_mean[j] for j in subset],
        )
    return SelectionResult(
        responder_pos=t,
        responder_column=model.responders[t],
        subset=subset,
        subset_columns=tuple(model.predictors[j] for j in subset),
        omega_sq_cond=omega,
        mse=mse,
        r_squared=1.0 - omega,
        coefficients=coeff,
        skipped_singular=skipped,
        subsets_evaluated=evaluated,
    )
