"""In-process timings of each module's public functions.

Everything here runs inside the benchmark process on the workload's own
data, after the traced CLI commands: per-call kernel costs over a fixed
sample of the workload's subsets, the least-squares baseline at the
workload's d, the argmin reduction fed the oracle's score stream, the
thread-pool speed-up, and exact operation counts from ``opcount``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from bestsubset import gauss, hat, kernels, opcount, search, stats

KERNEL_SAMPLE = 400  # subsets per kernel timing
HAT_SAMPLE = 6       # subsets per least-squares timing (each costs O(d))
REPS = 5             # each timing is the median of this many passes


def _per_call_us(fn, make_calls, reps=REPS) -> float:
    """Median over passes of the mean microseconds per ``fn(*args)`` call.

    ``make_calls`` builds a fresh argument list per pass, outside the
    timed region, because several kernels consume their inputs.
    """
    per = []
    for _ in range(reps):
        calls = make_calls()
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
        per.append((time.perf_counter() - t0) / len(calls))
    return statistics.median(per) * 1e6


def _stacked(rx, ry, s, t):
    k = len(s)
    a = np.empty((k + 1, k + 1))
    a[:k, :k] = rx[np.ix_(s, s)]
    a[:k, k] = a[k, :k] = ry[t, s]
    a[k, k] = 1.0
    return a.tolist()


def measure(workload, table: np.ndarray, oracle, seed: int) -> tuple[dict, list[str]]:
    """Per-layer values (no units) and any count that failed to repeat."""
    problems = []
    out = {}
    d, m, k = workload.d, workload.m, max(workload.ks)
    pred, resp = workload.predictors, workload.responders
    data = stats.ObservationMatrix(table)
    model = stats.build_correlation_model(data, pred, resp)
    rx, ry = model.rx, model.ry

    # fixed sample of admissible subsets of the largest size, from the seed
    admissible = np.flatnonzero(~np.isnan(oracle.omega[k][:, 0]))
    rng = np.random.default_rng(seed)
    pick = np.sort(rng.choice(admissible, min(KERNEL_SAMPLE, len(admissible)),
                              replace=False))
    sample = [list(map(int, s)) for s in oracle.subsets[k][pick]]
    blocks = [rx[np.ix_(s, s)] for s in sample]
    rhos = [[ry[t, s].tolist() for t in range(m)] for s in sample]

    # kernels
    out["kernels.triangulate_us"] = _per_call_us(
        kernels.triangulate, lambda: [(b.tolist(),) for b in blocks])
    caches = [kernels.triangulate(b.tolist()) for b in blocks]
    out["kernels.responder_us"] = _per_call_us(
        kernels.conditional_uuc,
        lambda: [(c, r) for c, rr in zip(caches, rhos) for r in rr])
    out["kernels.stacked_us"] = _per_call_us(
        kernels.omega_sq_stacked,
        lambda: [(_stacked(rx, ry, s, t),) for s in sample for t in range(m)])
    coeff_calls = [
        (b.tolist(), rhos[i][t], model.resp_sigma[t],
         [model.pred_sigma[j] for j in s], model.resp_mean[t],
         [model.pred_mean[j] for j in s])
        for i, (s, b) in enumerate(zip(sample[:50], blocks)) for t in range(m)
    ]
    out["kernels.coeff_us"] = _per_call_us(
        kernels.coefficients_from_correlations, lambda: coeff_calls)
    ops = [opcount.measure_counts("alg2", kk, m=m).total for kk in workload.ks]
    if ops != [opcount.measure_counts("alg2", kk, m=m).total for kk in workload.ks]:
        problems.append("kernels.ops_per_subset did not repeat")
    out["kernels.ops_by_k"] = ops
    out["kernels.ops_per_subset"] = ops[-1]
    out["cond_us_per_subset"] = (out["kernels.triangulate_us"]
                                 + m * out["kernels.responder_us"])

    # stats
    out["stats.correlations"] = rx.shape[0] * (rx.shape[0] - 1) // 2 + ry.size
    out["stats.model_bytes_mb"] = out["stats.correlations"] * 2 * d * 8 / 1e6

    # hat and gauss
    t0 = time.perf_counter()
    tables = hat.gram_products(data, pred, resp)
    out["hat.gram_s"] = time.perf_counter() - t0
    ys = [data.column_list(c) for c in resp]
    ones = [1.0] * d

    def fit_calls(subsets):
        return [(hat.assemble_xtx(tables, s),
                 [hat.assemble_xty(tables, s, t) for t in range(m)],
                 [ones] + [data.column_list(pred[j]) for j in s], ys, d)
                for s in subsets]

    hat_sample = sample[:HAT_SAMPLE]
    out["hat.us_per_subset_a"] = _per_call_us(
        hat.scan_fit_a, lambda: fit_calls(hat_sample), reps=3)
    out["hat.us_per_subset_b"] = _per_call_us(
        hat.scan_fit_b, lambda: fit_calls(hat_sample), reps=3)
    out["hat.ops_per_subset_a"] = opcount.measure_counts("hat-a", k, d=d, m=m).total
    out["hat.ops_per_subset_b"] = opcount.measure_counts("hat-b", k, d=d, m=m).total
    out["hat.speedup_b_over_cond"] = out["hat.us_per_subset_b"] / out["cond_us_per_subset"]
    out["gauss.factor_us"] = _per_call_us(
        gauss.factor_symmetric,
        lambda: [(hat.assemble_xtx(tables, s), k + 1) for s in sample])
    out["gauss.solve_us"] = _per_call_us(
        gauss.solve_symmetric,
        lambda: [(hat.assemble_xtx(tables, s), hat.assemble_xty(tables, s, 0))
                 for s in sample])

    # search: argmin reduction over the oracle's lexicographic score stream
    adds = 0
    t_add = 0.0
    for kk in workload.ks:
        for t in range(m):
            stream = oracle.stream(kk, t)
            window = search.ArgminWindow()
            t0 = time.perf_counter()
            for score, subset in stream:
                window.add(score, subset)
            t_add += time.perf_counter() - t0
            adds += len(stream)
    out["search.argmin_us_per_add"] = t_add / adds * 1e6

    # search: one worker against two, same instance, same answers
    wall = {1: 0.0, 2: 0.0}
    counts = {1: [], 2: []}
    for kk in workload.ks:
        for workers in (1, 2):
            t0 = time.perf_counter()
            res = search.select_best(data, pred, resp, kk, workers=workers)
            wall[workers] += time.perf_counter() - t0
            counts[workers].append([(r.subset, r.skipped_singular,
                                     r.subsets_evaluated) for r in res])
    if counts[1] != counts[2]:
        problems.append("select_best differs between workers=1 and workers=2")
    out["search.workers2_speedup"] = wall[1] / wall[2]
    out["search.counts_by_k"] = [
        (kk, c[0][1] + c[0][2], c[0][1]) for kk, c in zip(workload.ks, counts[1])
    ]
    return out, problems
