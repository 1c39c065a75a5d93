"""Exhaustive subset search over all k-of-n predictor subsets.

Candidates are enumerated in lexicographic index order. The production
method, cond-uncorrelation, walks the subset tree level by level: each
j-subset keeps its LDL^T factor, and every extension by one more column
reuses that factor for a rank-one step, a block of extensions at a time
in numpy. The least-squares baselines (hat-a, hat-b) score blocks of
subsets in numpy too, but each subset pays its own full fit, including a
pass over all d observations; every score is bit-identical to the scalar
fit of :mod:`bestsubset.hat`. algorithm1 scores each subset on its own in
pure Python, triangulating the stacked matrix. Subsets whose predictor
block is numerically collinear are skipped, and the skip decision depends
only on the predictors, never on the responder.
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
from .gauss import back_substitute, forward_apply, solve_symmetric
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

    The scan of algorithm1, and the reference the batched scans are
    tested against. ``score(subset)`` returns the m responder scores or
    raises SingularMatrixError; the methods only ever raise on predictor
    pivots, so a raise drops the whole subset and counts it as skipped.
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


def _reduce(windows, subsets, scores):
    """Feed one block of scored subsets to the per-responder windows.

    ``subsets`` is b x k, ``scores`` b x m, skipped subsets already left
    out. Only leaves within TIE_EPS of the block's minimum are handed
    on; every possible winner is among them, so the lexicographic
    tie-break stays exact across blocks. A NaN score is never handed on:
    it could not win a window anyway, unless it came first, where it
    would leave no winner at all.
    """
    if not len(scores):
        return
    near = scores <= np.fmin.reduce(scores, axis=0) + TIE_EPS
    for i, t in zip(*np.nonzero(near)):
        windows[t].add(float(scores[i, t]), tuple(subsets[i].tolist()))


# Subsets handled per numpy pass of the tree walk. Each tree level
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
    the argmin, so perfect fits tie at 0.0; :func:`_reduce` then feeds
    the windows.

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
        _reduce(windows, subsets, omega)

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


# Floats per temporary of the least-squares scan: a block holds about
# LSQ_FLOATS / (max(m, k + 1) * d) subsets. Blocks four times larger
# raised the peak RSS of `verify` at d=1000, m=5 from 31.2 to 34.8 MB,
# with no gain in speed.
LSQ_FLOATS = 2**15


def _scan_lsq(tables, rows, k, method):
    """Reduce every k-subset's least-squares MSE into argmin windows.

    ``rows`` are the rows [1; X; Y] of ``tables``. The batched form of
    scoring each subset with ``hat.scan_fit_a`` (method "hat-a") or
    ``hat.scan_fit_b`` ("hat-b") and dividing the sums of squares by d, a
    block of lexicographic subsets at a time. Returns (windows, skipped)
    like :func:`_scan`.
    """
    d, m = tables.d, len(rows) - 1 - tables.n
    block = max(1, LSQ_FLOATS // (max(m, k + 1) * d))
    windows = [ArgminWindow() for _ in range(m)]
    skipped = 0
    stream = enumerate_subsets(tables.n, k)
    while True:
        subsets = np.array(list(itertools.islice(stream, block)), dtype=np.intp)
        if not len(subsets):
            return windows, skipped
        scores, singular = _lsq_block(tables, rows, subsets, method)
        skipped += int(singular.sum())
        _reduce(windows, subsets[~singular], scores[~singular])


def _lsq_block(tables, rows, subsets, method):
    """Least-squares scores of one block of subsets, per responder.

    Returns (scores, singular): the b x m sums of squared residuals over
    d, and the mask of the subsets whose normal matrix has a pivot below
    EPS_PIV (their scores mean nothing). The normal matrices and X^T y are
    one fancy index each into ``tables.g``; every later step is the scalar
    fit's own operation, in its order, applied elementwise across the
    block, so every score is bit-identical to ``hat.scan_fit_a``/
    ``scan_fit_b``: the solves are ``gauss.forward_apply``/
    ``back_substitute`` themselves, and the residual pass sums ``e * e``
    along d with the sequential ``np.add.accumulate``.
    """
    b, k = subsets.shape
    q, d, n = k + 1, tables.d, tables.n
    # q x b positions in ``rows``: the all-ones row, then the subset
    pos = np.vstack((np.zeros(b, dtype=np.intp), subsets.T + 1))
    y = rows[1 + n:]
    # entry (i, j) of the normal matrix is a b x 1 column, so it
    # broadcasts against the b x m and b x d right hand sides
    a = tables.g[pos[:, None, :], pos[None, :, :], None]
    xty = list(tables.g[pos[:, :, None], 1 + n + np.arange(len(y))])
    cols = list(rows[pos])
    # skipped subsets divide by tiny pivots, and Python floats overflow
    # to inf and NaN without a warning: the block runs as silently
    with np.errstate(all="ignore"):
        mult, recips, singular = _eliminate_block(a, q)
        if method == "hat-a":
            forward_apply(mult, xty, q)
            basis, vec = cols, back_substitute(a, recips, xty, q)
        else:
            forward_apply(mult, cols, q)
            basis, vec = back_substitute(a, recips, cols, q), xty
        acc = np.zeros((b, len(y), d))
        for j in range(q):
            acc += basis[j][:, None, :] * vec[j][:, :, None]
        np.subtract(y, acc, out=acc)
        np.multiply(acc, acc, out=acc)
        np.add.accumulate(acc, axis=2, out=acc)
        return acc[:, :, -1] / d, singular.ravel()


def _eliminate_block(a, q):
    """``gauss.factor_symmetric`` across a block, in place.

    ``a`` is q x q x b x 1. Where the scalar elimination raises on a
    pivot below EPS_PIV, this marks the subset in the returned b x 1
    ``singular`` mask and carries on; later steps of that subset are
    never read.
    """
    mult = [[None] * q for _ in range(q)]
    recips = [None] * q
    singular = np.zeros(a.shape[2:], dtype=bool)
    for i in range(q):
        pivot = a[i, i]
        singular |= np.abs(pivot) < EPS_PIV
        recip = 1.0 / pivot
        recips[i] = recip
        for j in range(i + 1, q):
            temp = a[i, j] * recip
            mult[i][j] = temp
            a[j, j:] = a[j, j:] - a[i, j:] * temp
    return mult, recips, singular


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
        only the winners with the scalar kernels; hat-a and hat-b fit
        every subset on its own, a numpy block of subsets at a time;
        algorithm1 scores every subset on its own in pure Python
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
    if method == "cond-uncorrelation":
        windows, skipped = _scan_batched(model.rx, model.ry, k)
    elif method == "algorithm1":
        # per subset, lists slice faster than numpy; dropped on return
        rx_rows, ry_rows = model.rx.tolist(), model.ry.tolist()

        def score(subset):
            rx, rhos = _slice(rx_rows, ry_rows, subset)
            return [omega_sq_stacked(_stack(rx, rho)) for rho in rhos]

        windows, skipped = _scan(score, enumerate_subsets(n, k), m)
    else:
        rows = hat._stacked(data, pred, resp)
        tables = hat._checked_gram(rows, pred, resp)
        windows, skipped = _scan_lsq(tables, rows, k, method)
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
