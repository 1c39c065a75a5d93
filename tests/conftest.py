"""Shared test helpers: independent oracles and instance generators."""

import numpy as np

from bestsubset import build_correlation_model, synthetic_observations
from bestsubset.kernels import conditional_uuc, triangulate
from bestsubset.search import _slice, enumerate_subsets


def det_cofactor(a):
    """Determinant by recursive cofactor expansion along the first row.

    Deliberately naive and completely independent of the elimination
    kernels; usable up to about 8x8 before factorial cost bites.
    """
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = 0.0
    sign = 1.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += sign * a[0][j] * det_cofactor(minor)
        sign = -sign
    return total


def random_correlation(rng, q):
    """A genuine correlation matrix from random data, as nested lists."""
    x = rng.standard_normal((max(q + 2, 12), q))
    x = x - x.mean(axis=0)
    x = x / np.sqrt((x * x).mean(axis=0))
    r = (x.T @ x) / x.shape[0]
    np.fill_diagonal(r, 1.0)
    return [[float(r[i, j]) for j in range(q)] for i in range(q)]


def make_instance(seed, d, n, m):
    """Synthetic data plus its correlation model and column split."""
    data = synthetic_observations(d, n + m, seed=seed)
    pred = list(range(n))
    resp = list(range(n, n + m))
    model = build_correlation_model(data, pred, resp)
    return data, pred, resp, model


def all_cond_scores(model, k):
    """Scores of every (subset, responder) pair via the cached kernel.

    Returns {subset: [omega_sq per responder]}. Singular subsets are
    omitted.
    """
    out = {}
    rx_rows, ry_rows = model.rx.tolist(), model.ry.tolist()
    for subset in enumerate_subsets(model.n, k):
        rx, rhos = _slice(rx_rows, ry_rows, subset)
        try:
            cache = triangulate(rx)
        except Exception:
            continue
        out[subset] = [conditional_uuc(cache, rho).omega_sq for rho in rhos]
    return out


def guarded_instance(base_seed, rng_shape, min_rel_gap=1e-9, max_tries=60):
    """Draw instances until every responder has a clear best-vs-second gap.

    rng_shape draws (d, n, k, m) from a seeded generator so the shapes
    vary per instance. Returns (seed, d, n, k, m, data, pred, resp,
    model, scores) for the first accepted draw.
    """
    for t in range(max_tries):
        seed = base_seed + 1009 * t
        d, n, k, m = rng_shape(seed)
        data, pred, resp, model = make_instance(seed, d, n, m)
        scores = all_cond_scores(model, k)
        if not scores:
            continue
        clear = True
        for ti in range(m):
            vals = sorted(s[ti] for s in scores.values())
            if len(vals) > 1:
                gap = vals[1] - vals[0]
                if gap <= min_rel_gap * max(vals[1], 1e-30):
                    clear = False
                    break
        if clear:
            return seed, d, n, k, m, data, pred, resp, model, scores
    raise RuntimeError("could not draw a gap-guarded instance")
