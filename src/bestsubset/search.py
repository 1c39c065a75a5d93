"""Exhaustive subset search over all k-of-n predictor subsets.

Candidates are enumerated in lexicographic index order. The production
method, cond-uncorrelation, walks the subset tree level by level: each
j-subset keeps its LDL^T factor, and every extension by one more column
reuses that factor for a rank-one step, a block of extensions at a time
in numpy. The reference methods score each subset on its own in pure
Python: algorithm1 triangulates the stacked matrix, and the
least-squares baselines pay a full fit including a pass over all d
observations. Subsets whose predictor block is numerically collinear are
skipped, and the skip decision depends only on the predictors, never on
the responder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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
from .tolerances import DEFAULT_PAIR_LIMIT, EPS_PIV, TIE_EPS, _clamp

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
    Returns (rx, rho) as fresh nested lists safe to consume, converting
    only the k rows and the one responder row it reads.
    """
    rx_rows = {i: model.rx[i].tolist() for i in subset}
    rx, (rho,) = _slice(rx_rows, [model.ry[responder].tolist()], subset)
    return rx, rho


def _slice(rx_rows, ry_rows, subset):
    """Predictor block of one subset and every responder's vector on it.

    ``rx_rows``/``ry_rows`` hold rows of the model's ``rx``/``ry`` as
    lists, converted never per subset: by algorithm1's scorer, the whole
    model once per call; by :func:`slice_correlations`, the rows it reads.
    Every scalar scorer and the coefficient recovery read the model here.
    """
    rx = [[rx_rows[i][j] for j in subset] for i in subset]
    return rx, [[row[j] for j in subset] for row in ry_rows]


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
    candidates scoring within ``TIE_EPS`` of the minimum. Rather than trust
    pairwise epsilon comparisons (which are not associative), the window
    keeps every candidate that could still win: one is dropped only when
    some kept candidate has both a score no larger and a smaller subset.
    The winner therefore does not depend on the order of the stream.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[tuple[float, tuple[int, ...]]] = []

    def add(self, score: float, subset: tuple[int, ...]) -> None:
        entries = self.entries
        if entries:
            lo = min(s for s, _ in entries)
            if score < lo:
                lo = score
                self.entries = entries = [e for e in entries if e[0] <= lo + TIE_EPS]
            elif score > lo + TIE_EPS:
                return
        for s, t in entries:
            if s <= score and t < subset:
                return
        self.entries = [e for e in entries if not (e[0] >= score and e[1] > subset)]
        self.entries.append((score, subset))

    def winner(self) -> tuple[float, tuple[int, ...]]:
        if not self.entries:
            raise NoValidSubsetError("no subset survived the scan")
        lo = min(s for s, _ in self.entries)
        best = min(t for s, t in self.entries if s <= lo + TIE_EPS)
        score = next(s for s, t in self.entries if t == best)
        return score, best


# ---------------------------------------------------------------------------
# the subset scans
# ---------------------------------------------------------------------------

def _scan(score, subsets, m):
    """Reduce a subset stream into one argmin window per responder.

    The scan of the reference methods (algorithm1, hat-a, hat-b).
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


# Subsets handled per numpy pass of the batched scan. Each tree level
# holds at most this many nodes at a time, so the working set is about
# BLOCK * k * (n + m) floats per level whatever C(n, k) is.
BLOCK = 512


def _scan_batched(rx, ry, k):
    """Reduce every k-subset's conditional squared UUC into argmin windows.

    ``rx`` is the n x n predictor correlation matrix and ``ry`` the m x n
    responder rows. The subset tree is walked depth first, one block of
    extensions at a time, in lexicographic order. A j-subset S carries,
    in LDL^T form (no square roots):

    * ``u = L^-1 R[S, :]`` (j x n), the Schur-updated rows of R;
    * ``v = L^-1 rho[S, :]`` (j x m), the responders' forward recurrence;
    * ``dinv``, the j pivot reciprocals;
    * ``omega``, the m conditional squared UUCs of S.

    Extending S by c costs O(j (n + m)): with ``g = u[:, c] * dinv`` the
    Schur pivot is ``1 - g . u[:, c]``, the new v row ``rho_c - g . v`` and
    omega drops by its square over the pivot. A pivot below EPS_PIV skips
    the extension and every subset below it, as in the scalar kernel.
    Leaf omega^2 outside [0, 1] go through the shared range check before
    the argmin, so perfect fits tie at 0.0. Each block then hands the
    windows only its leaves within TIE_EPS of the block minimum; every
    possible winner is among them.

    Returns (windows, skipped) like :func:`_scan`.
    """
    m, n = ry.shape
    rho = np.ascontiguousarray(ry.T)
    windows = [ArgminWindow() for _ in range(m)]
    evaluated = 0

    def reduce(subsets, omega):
        nonlocal evaluated
        evaluated += len(subsets)
        for i, t in zip(*np.nonzero(~((omega >= 0.0) & (omega <= 1.0)))):
            omega[i, t] = _clamp(float(omega[i, t]), 0.0, 1.0, "conditional_uuc")
        near = omega <= omega.min(axis=0) + TIE_EPS
        for i, t in zip(*np.nonzero(near)):
            windows[t].add(float(omega[i, t]), tuple(subsets[i].tolist()))

    def extend(subsets, u, v, dinv, omega):
        j = subsets.shape[1]
        last = subsets[:, -1] if j else np.full(len(subsets), -1)
        # children c of S run from max(S) + 1 to the largest column that
        # still leaves room for the k - j - 1 columns after it
        counts = n - k + j - last
        parent = np.repeat(np.arange(len(last)), counts)
        first = np.cumsum(counts) - counts
        cols = last[parent] + 1 + np.arange(len(parent)) - first[parent]
        for lo in range(0, len(parent), BLOCK):
            p, c = parent[lo:lo + BLOCK], cols[lo:lo + BLOCK]
            uc = u[p, :, c]
            g = uc * dinv[p]
            pivot = 1.0 - np.einsum("ij,ij->i", g, uc)
            ok = np.abs(pivot) >= EPS_PIV
            if not ok.all():
                p, c, g, pivot = p[ok], c[ok], g[ok], pivot[ok]
                if not len(p):
                    continue
            vp = v[p]
            vc = rho[c] - np.einsum("ij,ijt->it", g, vp)
            child = np.column_stack((subsets[p], c))
            child_omega = omega[p] - vc * vc / pivot[:, None]
            if j + 1 == k:
                reduce(child, child_omega)
                continue
            up = u[p]
            row = rx[c] - np.einsum("ij,ijq->iq", g, up)
            extend(child,
                   np.concatenate((up, row[:, None, :]), axis=1),
                   np.concatenate((vp, vc[:, None, :]), axis=1),
                   np.column_stack((dinv[p], 1.0 / pivot)),
                   child_omega)

    # the walk starts from the empty subset: no factor yet, and omega 1
    extend(np.empty((1, 0), dtype=np.intp), np.empty((1, 0, n)),
           np.empty((1, 0, m)), np.empty((1, 0)), np.ones((1, m)))
    return windows, math.comb(n, k) - evaluated


# ---------------------------------------------------------------------------
# selection driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionResult:
    """Winner for one responder: where it is, how good it is, and the fit."""

    responder_pos: int
    responder_column: int
    responder_sigma: float
    subset: tuple[int, ...]
    subset_columns: tuple[int, ...]
    omega_sq_cond: float
    mse: float
    r_squared: float
    coefficients: RegressionCoefficients
    skipped_singular: int
    subsets_evaluated: int


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
        subsets, they just get there at very different cost.
        cond-uncorrelation walks the subset tree in numpy blocks, sharing
        each prefix's factor with all of its extensions, and re-scores
        only the winners with the scalar kernels; the other three score
        every subset on its own in pure Python
    workers : accepted and ignored; the scan runs on one thread (a
        2-thread pool measured 0.53-1.00x on the pure-Python scan). Kept
        only for the ``search.workers2_speedup`` probe in
        ``perfbench/layers.py``, and deleted in the change after the one
        that retires that probe
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
        # per subset, lists slice faster than numpy; dropped on return
        rx_rows, ry_rows = model.rx.tolist(), model.ry.tolist()

        def score(subset):
            rx, rhos = _slice(rx_rows, ry_rows, subset)
            return [omega_sq_stacked(_stack(rx, rho)) for rho in rhos]

    if method == "cond-uncorrelation":
        windows, skipped = _scan_batched(model.rx, model.ry, k)
    else:
        windows, skipped = _scan(score, enumerate_subsets(n, k), m)
    if skipped == total:
        raise NoValidSubsetError(
            f"all {total} candidate subsets of size {k} were numerically collinear"
        )
    return [_finalise(model, method, tables, windows[t], t, skipped, total - skipped)
            for t in range(m)]


def _finalise(model, method, tables, window, t, skipped, evaluated) -> SelectionResult:
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
        rx, rho = slice_correlations(model, subset, t)
        if method == "cond-uncorrelation":
            # the scalar kernels score the winner, so the reported figures
            # do not depend on the batched scan's summation order
            score = conditional_uuc(triangulate([row[:] for row in rx]), rho).omega_sq
        omega = score
        mse = sigma_y_sq * omega
        coeff = coefficients_from_correlations(
            rx, rho, sigma_y,
            [model.pred_sigma[j] for j in subset],
            model.resp_mean[t],
            [model.pred_mean[j] for j in subset],
        )
    return SelectionResult(
        responder_pos=t,
        responder_column=model.responders[t],
        responder_sigma=sigma_y,
        subset=subset,
        subset_columns=tuple(model.predictors[j] for j in subset),
        omega_sq_cond=omega,
        mse=mse,
        r_squared=1.0 - omega,
        coefficients=coeff,
        skipped_singular=skipped,
        subsets_evaluated=evaluated,
    )
