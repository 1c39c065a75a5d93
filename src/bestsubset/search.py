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
all d observations; this module only sizes their blocks. Every block
score is bit-identical to its scalar kernel (``kernels.omega_sq_stacked``,
``hat.scan_fit_a``/``scan_fit_b``), and every window compares omega^2,
so the tie rule does not depend on the responders' units. Subsets whose
predictor block is numerically collinear are skipped, and the skip
decision, ``gauss._collinear``, depends only on the predictors.
Each winner reports the omega^2 that won its window, and its MSE and
R^2 from that score; only coefficients are solved, for all m winners in
one block solve of their correlations, or for hat-* by ``hat`` on the
scan's own Gram tables, which this module never reads.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import NamedTuple

import numpy as np

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
    mse_from_uuc,
    r_squared_from_uuc,
)
from .stats import DOT_FLOATS, CorrelationModel, ObservationMatrix, build_correlation_model
from .tolerances import DEFAULT_PAIR_LIMIT, TIE_EPS, _clamp_all

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
    _check_request(n, math.inf, (k,), 0, None)  # 1 <= k <= n, at any row count
    return itertools.combinations(range(n), k)


def slice_correlations(model: CorrelationModel, subset, responder: int):
    """One subset's predictor block and responder vector (rx, rho), fresh
    nested lists straight out of the model, so bit-identical to pairwise
    correlations of the raw columns; a model built for k = 1 has no ``rx``,
    so it gives [[1.0]] for one predictor and raises ValueError for more.
    The per-responder reference of :func:`select_best`'s block solve."""
    idx = list(subset)
    if model.rx is None and len(idx) > 1:
        raise ValueError(f"a model built for k = 1 has no rx for a {len(idx)}-subset")
    rx = [[1.0]] if model.rx is None else model.rx[np.ix_(idx, idx)].tolist()
    return rx, model.ry[responder, idx].tolist()


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
        # ``add`` keeps only entries within TIE_EPS of the minimum
        return min(self.entries, key=lambda e: e[1])


# ---------------------------------------------------------------------------
# the subset scans
# ---------------------------------------------------------------------------

def _argmin(blocks, m):
    """Reduce a stream of scored blocks into the m per-responder windows.

    Each block is (subsets, scores): b x k admissible subsets and their
    b x m omega^2, every skipped subset already left out, so a scan's skip
    count is C(n, k) minus the ``scored`` returned with the windows. A block
    from any scan may be empty, and is skipped. Only leaves within TIE_EPS
    of their responder's running minimum, over this block and every one
    before it, are handed on. A score above it is above the final minimum
    plus TIE_EPS, so it can never win, nor can anything it would dominate:
    every possible winner is handed on, and the lexicographic tie-break
    stays exact across blocks. A NaN score is never handed on: it could not
    win a window anyway, unless it came first, where it would leave no
    winner at all. Returns (windows, scored).
    """
    windows = [ArgminWindow() for _ in range(m)]
    scored = 0
    lo = np.full(m, np.inf)  # each responder's running minimum
    for subsets, scores in blocks:
        if not len(scores):
            continue
        scored += len(scores)
        np.fmin(lo, np.fmin.reduce(scores, axis=0), out=lo)
        near = scores <= lo + TIE_EPS
        for i, t in zip(*np.nonzero(near)):
            windows[t].add(float(scores[i, t]), tuple(subsets[i].tolist()))
        # the scan builds the next block only after this one is freed
        del subsets, scores, near
    return windows, scored


# Subsets handled per numpy pass of the tree walk. The walk holds one
# block of at most this many nodes per level while it walks the levels
# below it, and a node of size s holds s * (n + m) + m floats of state, so
# the k levels hold about BLOCK * k * (k + 1) * (n + m) / 2 floats whatever
# C(n, k) is.
BLOCK = 512


def _tree_blocks(rx, ry, k):
    """Blocks of admissible k-subsets and their conditional squared UUCs.

    ``rx`` is the n x n predictor correlation matrix and ``ry`` the m x n
    responder rows. The subset tree is walked depth first, one block of
    extensions at a time, in lexicographic order. A block of b j-subsets S
    carries, in LDL^T form (no square roots):

    * ``u = L^-1 R[S, :]``, b x j x n, the Schur-updated rows of R;
    * ``v = L^-1 rho[S, :]``, b x j x m, the responders' forward recurrence;
    * ``dinv``, b x j, the pivot reciprocals;
    * ``omega``, b x m, the conditional squared UUCs of S.

    Extending S by c costs O(j (n + m)): with ``g = u[:, c] * dinv`` the
    Schur pivot is ``1 - g . u[:, c]``, the new v row ``rho_c - g . v`` and
    omega drops by its square over the pivot. A pivot ``gauss._collinear``
    rejects skips the extension and every subset below it, so a block may be
    empty: nothing is walked below it, and an empty leaf block is yielded
    for :func:`_argmin` to skip. A child's state is written once, into
    arrays of the child's block: its parent's rows are copied into the first
    j rows, one row index at a time, and the new row is computed from them
    into row j. While the walk descends, a level holds just that state, so
    the walk's working set is the sum of one block's state per level. A leaf
    block reads its parents' v rows, and an inner block the rows ``rx[c]``,
    ``stats.DOT_FLOATS`` floats at a time, the inner-product kernel's
    budget; a leaf block keeps only its subsets and omega^2 (``rx`` is never
    read at k = 1, so it may be None there); those outside [0, 1] go through
    the shared table clamp, ``tolerances._clamp_all``, before a leaf block
    is yielded, so perfect fits tie at 0.0 in :func:`_argmin`.
    """
    m, n = ry.shape
    rho = np.ascontiguousarray(ry.T)

    def children(subsets, u, v, dinv, omega, ends, i):
        # The parents' children numbered i, in order: ``ends`` counts the
        # children of each parent and those before it, and a parent's
        # last child is column n - k + j. Returns the admissible ones, as
        # (subsets, omega) at the leaves and with their u, v and dinv
        # above them; the block is empty if none is admissible.
        j = subsets.shape[1]
        p = np.searchsorted(ends, i, side="right")
        c = i + (n - k + j + 1) - ends[p]
        uc = u[p, :, c]
        g = uc * dinv[p]
        pivot = 1.0 - np.einsum("ij,ij->i", g, uc)
        ok = ~_collinear(j, pivot)
        if not ok.all():
            p, c, g, pivot = p[ok], c[ok], g[ok], pivot[ok]
        b = len(p)
        child = np.empty((b, j + 1), dtype=np.intp)
        child[:, :j] = subsets[p]
        child[:, j] = c
        if j + 1 == k:  # the parents' v rows of a few leaves at a time
            vc = np.empty((b, m))
            step = max(DOT_FLOATS // (max(j, 1) * m), 1)
            for lo in range(0, b, step):
                s = slice(lo, lo + step)
                np.einsum("ij,ijt->it", g[s], v[p[s]], out=vc[s])
            np.subtract(rho[c], vc, out=vc)
            np.multiply(vc, vc, out=vc)  # a leaf keeps omega^2, not its v row
            vc /= pivot[:, None]
            np.subtract(omega[p], vc, out=vc)
            _clamp_all(vc, 0.0, 1.0, lambda i, t: "conditional_uuc")
            return child, vc
        cu = np.empty((b, j + 1, n))
        cv = np.empty((b, j + 1, m))
        for r in range(j):
            cu[:, r] = u[p, r]
            cv[:, r] = v[p, r]
        np.einsum("ij,ijt->it", g, cv[:, :j], out=cv[:, j])
        vc = np.subtract(rho[c], cv[:, j], out=cv[:, j])
        child_omega = np.multiply(vc, vc)
        child_omega /= pivot[:, None]
        np.subtract(omega[p], child_omega, out=child_omega)
        np.einsum("ij,ijq->iq", g, cu[:, :j], out=cu[:, j])
        step = max(DOT_FLOATS // n, 1)
        for lo in range(0, b, step):  # the rows rx[c] a few at a time
            s = slice(lo, lo + step)
            np.subtract(rx[c[s]], cu[s, j], out=cu[s, j])
        cd = np.empty((b, j + 1))
        cd[:, :j] = dinv[p]
        np.divide(1.0, pivot, out=cd[:, j])
        return child, cu, cv, cd, child_omega

    def extend(subsets, u, v, dinv, omega):
        j = subsets.shape[1]
        # children c of S run from max(S) + 1 to the largest column that
        # still leaves room for the k - j - 1 columns after it
        ends = np.cumsum(n - k + j - (subsets[:, -1] if j else -1))
        total = int(ends[-1])
        for lo in range(0, total, BLOCK):
            block = children(subsets, u, v, dinv, omega, ends,
                             np.arange(lo, min(lo + BLOCK, total)))
            if j + 1 == k:
                yield block
            elif len(block[0]):  # nothing to walk below an empty block
                yield from extend(*block)
            # the next block's state is built only after this one is freed
            del block

    # the walk starts from the empty subset: no factor yet, and omega 1
    yield from extend(np.empty((1, 0), dtype=np.intp), np.empty((1, 0, n)),
                      np.empty((1, 0, m)), np.empty((1, 0)), np.ones((1, m)))


# Floats per temporary of the block scans: a block holds about
# LSQ_FLOATS / ((k + 1) * m) subsets for algorithm1 and
# LSQ_FLOATS / (max(m, k + 1) * d) for hat-*, whose scan allocates its
# scratch once, for its largest block. Blocks four times larger raised
# the peak RSS of `verify` at d=1000, m=5 from 30.9 to 33.2 MB, with no
# gain in speed.
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
    ``ry.dtype`` (``opcount`` runs this on counting scalars). ``rx`` may be
    None at k = 1, where each predictor block is [[1.0]]. After
    ``gauss._eliminate``'s first k pivots, the last diagonal entry is
    ``kernels.omega_sq_stacked``'s raw ratio bit for bit, range-checked alike.
    """
    b, k = subsets.shape
    a = np.empty((k + 1, k + 1, b, len(ry)), dtype=ry.dtype)
    s = subsets.T
    a[:k, :k] = 1.0 if rx is None else rx[s[:, None, :], s[None, :, :], None]
    a[:k, k] = a[k, :k] = ry[:, s].transpose(1, 2, 0)
    a[k, k] = 1.0
    # skipped subsets divide by tiny pivots: their entries are never read
    with np.errstate(all="ignore"):
        singular = _eliminate(a, k + 1)[2][:, 0]
    a[k, k][singular] = 0.0
    _clamp_all(a[k, k], 0.0, 1.0, lambda i, t: "omega_sq_stacked")
    return a[k, k], singular


# ---------------------------------------------------------------------------
# selection driver
# ---------------------------------------------------------------------------

def _check_request(n: int, d: int, ks, m: int, pair_limit: int | None, methods: int = 1) -> None:
    """Check a whole request before any of its scans: InvalidSparsityError
    at the first k of ``ks`` outside 1..min(n, d - 1), then
    LimitExceededError if scoring every k-of-n subset of every size against
    m responders, once per each of ``methods`` methods, exceeds
    ``pair_limit`` scored pairs (None or 0 for unlimited)."""
    for k in ks:
        if not 1 <= k <= n:
            raise InvalidSparsityError(f"subset size k={k} not in 1..{n}")
        if k > d - 1:
            raise InvalidSparsityError(
                f"k={k} exceeds d-1={d - 1}; centering makes such fits singular")
    total = sum(math.comb(n, k) for k in ks)
    pairs = total * m * methods
    if pair_limit and pairs > pair_limit:
        sizes = f" of sizes {ks[0]}..{ks[-1]}" if len(ks) > 1 else ""
        each = f" x {methods} methods" if methods > 1 else ""
        raise LimitExceededError(
            f"{total} subsets{sizes} x {m} responders{each} = {pairs} scored pairs "
            f"exceeds the limit of {pair_limit}; raise --limit to proceed"
        )


class SelectionResult(NamedTuple):
    """Winner for one responder: where it is, how good it is, and the fit.
    Its MSE and R^2 are read from the omega^2 that won its window."""

    responder_pos: int
    responder_column: int
    responder_sigma: float
    subset: tuple[int, ...]
    subset_columns: tuple[int, ...]
    omega_sq_cond: float
    coefficients: RegressionCoefficients
    skipped_singular: int
    subsets_evaluated: int

    @property
    def mse(self) -> float:
        return mse_from_uuc(self.responder_sigma * self.responder_sigma, self.omega_sq_cond)

    @property
    def r_squared(self) -> float:
        return r_squared_from_uuc(self.omega_sq_cond)


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
        each prefix's factor with all of its extensions; algorithm1
        triangulates every (subset, responder) pair's stacked matrix, and
        hat-a and hat-b fit every subset, a numpy block of subsets at a
        time. Every tie window compares omega^2 (for hat-*, MSE over
        sigma_y^2); each method reports the omega^2 that won the window,
        ``mse = sigma_y^2 * omega^2`` and ``r_squared = 1 - omega^2``,
        and one block solve gives all m winners' coefficients
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
    _check_request(n, data.d, (k,), m, pair_limit)
    total = math.comb(n, k)

    # of the model, hat-* read only the responders' sigma: no predictor block
    model = build_correlation_model(data, pred, resp, k=1 if method.startswith("hat") else k)
    if method == "cond-uncorrelation":
        blocks = _tree_blocks(model.rx, model.ry, k)
    elif method == "algorithm1":
        score = partial(_alg1_block, model.rx, model.ry)
        blocks = _lex_blocks(score, n, k, LSQ_FLOATS // ((k + 1) * m))
    else:
        from . import hat  # the baselines' module, loaded only for hat-*
        tables = hat.gram_products(data, pred, resp)
        # one scratch for the whole scan, sized for its largest block
        block = max(1, min(total, LSQ_FLOATS // (max(m, k + 1) * data.d)))
        score = partial(hat._lsq_block, tables, method=method,
                        sigma_sq=np.square(model.resp_sigma),
                        scratch=hat._scratch(tables, block, k))
        blocks = _lex_blocks(score, n, k, block)
    windows, scored = _argmin(blocks, m)
    skipped = total - scored
    if not scored:
        raise NoValidSubsetError(
            f"all {total} candidate subsets of size {k} were numerically collinear"
        )
    scores, subsets = zip(*(w.winner() for w in windows))
    # one block solve, winner t in column t; a collinear winner raises, not warns
    s = np.array(subsets).T
    with np.errstate(all="ignore"):
        if method.startswith("hat"):
            beta = hat._winners_betas(tables, s)
        else:
            rx = [[1.0]] if model.rx is None else model.rx[s[:, None], s[None, :]]
            c = coefficients_from_correlations(
                rx, model.ry[np.arange(m), s], model.resp_sigma, model.pred_sigma[s],
                model.resp_mean, model.pred_mean[s])
            beta = [c.beta0, *c.betas]
    return [SelectionResult(
        responder_pos=t,
        responder_column=model.responders[t],
        responder_sigma=sigma_y,
        subset=subset,
        subset_columns=tuple(model.predictors[j] for j in subset),
        omega_sq_cond=score,
        coefficients=RegressionCoefficients(b[0], tuple(b[1:])),
        skipped_singular=skipped,
        subsets_evaluated=scored,
    ) for t, (sigma_y, score, subset, b)
        in enumerate(zip(model.resp_sigma.tolist(), scores, subsets, np.array(beta).T.tolist()))]
