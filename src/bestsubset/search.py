"""Exhaustive subset search over all k-of-n predictor subsets.

Every method streams blocks of admissible subsets with their omega^2
into one argmin driver, which keeps the per-responder windows and counts
the subsets scored; the rest of the C(n, k) were skipped. The production
method, cond-uncorrelation, walks the subset tree level by level: each
j-subset keeps its LDL^T factor, and every extension by one more column
reuses that factor for a rank-one step, a block of extensions at a time
in numpy. The per-subset methods stream lexicographic blocks: algorithm1
triangulates each subset's stacked matrix per responder in
``gauss._eliminate``, and the least-squares baselines (hat-a, hat-b)
pay each subset's full fit in ``hat._lsq_block``, including a pass over
all d observations; this module only sizes their blocks, and the fit of
``hat.fit_multi`` reports their winners. Every block score is
bit-identical to its scalar kernel (``kernels.omega_sq_stacked``,
``hat.scan_fit_a``/``scan_fit_b``), and every window compares omega^2,
so the tie rule does not depend on the responders' units. Subsets whose
predictor block is numerically collinear are skipped, and the skip
decision, ``gauss._collinear``, depends only on the predictors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import hat
from .errors import (
    InvalidSparsityError,
    LimitExceededError,
    NoValidSubsetError,
    UnknownMethodError,
)
from .gauss import _collinear, _eliminate
from .kernels import (
    RegressionCoefficients,
    coefficients_from_correlations,
    conditional_uuc,
    triangulate,
)
from .stats import CorrelationModel, ObservationMatrix, build_correlation_model
from .tolerances import DEFAULT_PAIR_LIMIT, TIE_EPS, _clamp

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
    only the entries it reads.
    """
    idx = list(subset)
    return model.rx[np.ix_(idx, idx)].tolist(), model.ry[responder, idx].tolist()


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

def _argmin(blocks, m):
    """Reduce a stream of scored blocks into the m per-responder windows.

    Each block is (subsets, scores): b x k admissible subsets and their
    b x m omega^2, every skipped subset already left out, so a scan's
    skip count is C(n, k) minus the ``scored`` returned with the windows.
    Only leaves within TIE_EPS of a block's minimum are handed on; every
    possible winner is among them, so the lexicographic tie-break stays
    exact across blocks. A NaN score is never handed on: it could not
    win a window anyway, unless it came first, where it would leave no
    winner at all. Returns (windows, scored).
    """
    windows = [ArgminWindow() for _ in range(m)]
    scored = 0
    for subsets, scores in blocks:
        if not len(scores):
            continue
        scored += len(scores)
        near = scores <= np.fmin.reduce(scores, axis=0) + TIE_EPS
        for i, t in zip(*np.nonzero(near)):
            windows[t].add(float(scores[i, t]), tuple(subsets[i].tolist()))
    return windows, scored


def _range_check(omega, what):
    """``_clamp`` the b x m omega^2 outside [0, 1] in (subset, responder) order, in place."""
    for i, t in zip(*np.nonzero(~((omega >= 0.0) & (omega <= 1.0)))):
        omega[i, t] = _clamp(float(omega[i, t]), 0.0, 1.0, what)


# Subsets handled per numpy pass of the tree walk. Each tree level
# holds at most this many nodes at a time, so the working set is about
# BLOCK * k * (n + m) floats per level whatever C(n, k) is.
BLOCK = 512


def _tree_blocks(rx, ry, k):
    """Blocks of admissible k-subsets and their conditional squared UUCs.

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
    omega drops by its square over the pivot. A pivot ``gauss._collinear``
    rejects skips the extension and every subset below it.
    Leaf omega^2 outside [0, 1] go through the shared range check before
    a leaf block is yielded, so perfect fits tie at 0.0 in :func:`_argmin`.
    """
    m, n = ry.shape
    rho = np.ascontiguousarray(ry.T)

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
            ok = ~_collinear(j, pivot)
            if not ok.all():
                p, c, g, pivot = p[ok], c[ok], g[ok], pivot[ok]
                if not len(p):
                    continue
            vp = v[p]
            vc = rho[c] - np.einsum("ij,ijt->it", g, vp)
            child = np.column_stack((subsets[p], c))
            child_omega = omega[p] - vc * vc / pivot[:, None]
            if j + 1 == k:
                _range_check(child_omega, "conditional_uuc")
                yield child, child_omega
                continue
            up = u[p]
            row = rx[c] - np.einsum("ij,ijq->iq", g, up)
            yield from extend(child,
                              np.concatenate((up, row[:, None, :]), axis=1),
                              np.concatenate((vp, vc[:, None, :]), axis=1),
                              np.column_stack((dinv[p], 1.0 / pivot)),
                              child_omega)

    # the walk starts from the empty subset: no factor yet, and omega 1
    yield from extend(np.empty((1, 0), dtype=np.intp), np.empty((1, 0, n)),
                      np.empty((1, 0, m)), np.empty((1, 0)), np.ones((1, m)))


# Floats per temporary of the block scans: a block holds about
# LSQ_FLOATS / ((k + 1) * m) subsets for algorithm1 and
# LSQ_FLOATS / (max(m, k + 1) * d) for hat-*. Blocks four times larger
# raised the peak RSS of `verify` at d=1000, m=5 from 31.2 to 34.8 MB,
# with no gain in speed.
LSQ_FLOATS = 2**15


def _lex_blocks(score_block, n, k, block):
    """Blocks of admissible k-subsets and their scores, in lexicographic order.

    ``score_block`` takes a b x k array of subsets and returns their
    b x m scores and the b-mask of those with a predictor pivot that
    ``gauss._collinear`` rejects, which are dropped unread.
    """
    stream = enumerate_subsets(n, k)
    while True:
        subsets = np.array(list(itertools.islice(stream, max(block, 1))), dtype=np.intp)
        if not len(subsets):
            return
        scores, singular = score_block(subsets)
        yield subsets[~singular], scores[~singular]


def _alg1_block(rx, ry, subsets):
    """algorithm1's omega^2 of one block of subsets, for :func:`_lex_blocks`.

    The stacked matrices, responder last, form one q x q x b x m array in
    ``rx.dtype`` (``opcount`` runs this on counting scalars). After
    ``gauss._eliminate``'s first k pivots, the last diagonal entry is
    ``kernels.omega_sq_stacked``'s raw ratio bit for bit, range-checked alike.
    """
    b, k = subsets.shape
    a = np.empty((k + 1, k + 1, b, len(ry)), dtype=rx.dtype)
    s = subsets.T
    a[:k, :k] = rx[s[:, None, :], s[None, :, :], None]
    a[:k, k] = a[k, :k] = ry[:, s].transpose(1, 2, 0)
    a[k, k] = 1.0
    # skipped subsets divide by tiny pivots: their entries are never read
    with np.errstate(all="ignore"):
        singular = _eliminate(a, k + 1)[2][:, 0]
    a[k, k][singular] = 0.0
    _range_check(a[k, k], "omega_sq_stacked")
    return a[k, k], singular


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
        only the winners with the paper's Algorithm 2 kernels, whose
        figures are reported (the walk's own omega^2, the same at every
        BLOCK, differs from theirs in the last bits); algorithm1 triangulates
        every (subset, responder) pair's stacked matrix, and hat-a and
        hat-b fit every subset, a numpy block of subsets at a time, and
        report each winner's ``hat.fit_multi``. Every tie window compares
        omega^2 (for hat-*, MSE over sigma_y^2)
    workers : accepted and ignored; the scan runs on one thread (a
        2-thread pool measured 0.53-1.00x on the former pure-Python
        algorithm1 scan). Kept only for the ``search.workers2_speedup``
        probe in ``perfbench/layers.py``, and deleted in the change after
        the one that retires that probe
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
    if method == "cond-uncorrelation":
        blocks = _tree_blocks(model.rx, model.ry, k)
    elif method == "algorithm1":
        score = partial(_alg1_block, model.rx, model.ry)
        blocks = _lex_blocks(score, n, k, LSQ_FLOATS // ((k + 1) * m))
    else:
        score = partial(hat._lsq_block, hat.gram_products(data, pred, resp),
                        method=method, sigma_sq=np.square(model.resp_sigma))
        blocks = _lex_blocks(score, n, k, LSQ_FLOATS // (max(m, k + 1) * data.d))
    windows, scored = _argmin(blocks, m)
    skipped = total - scored
    if not scored:
        raise NoValidSubsetError(
            f"all {total} candidate subsets of size {k} were numerically collinear"
        )
    winners = [w.winner() for w in windows]
    return [_finalise(data, model, method, *winners[t], t, skipped, scored)
            for t in range(m)]


def _finalise(data, model, method, score, subset, t, skipped, evaluated) -> SelectionResult:
    sigma_y = model.resp_sigma[t]
    if method in ("hat-a", "hat-b"):
        # the windows hold MSE / sigma^2; the winner's fit repeats the scan's
        # inner products and elimination bit for bit, so it is never singular
        design = hat.DesignMatrix([data.column(model.predictors[j]) for j in subset])
        fit, = hat.fit_multi(design, [data.column(model.responders[t])], method[-1])
        mse, coeff = fit.mse, RegressionCoefficients(fit.beta[0], fit.beta[1:])
    else:
        rx, rho = slice_correlations(model, subset, t)
        if method == "cond-uncorrelation":
            # the walk's rank-one steps round unlike the paper's Algorithm 2,
            # whose kernels score the winner, so the figures are Algorithm 2's
            score = conditional_uuc(triangulate([row[:] for row in rx]), rho).omega_sq
        mse = sigma_y * sigma_y * score
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
        omega_sq_cond=score,
        mse=mse,
        r_squared=1.0 - score,
        coefficients=coeff,
        skipped_singular=skipped,
        subsets_evaluated=evaluated,
    )
