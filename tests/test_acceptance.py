"""Acceptance battery: the release gate for the selection engine.

Each test covers one numbered acceptance criterion end to end and emits
a single ``criterion NN ... PASS/FAIL`` line (visible under ``pytest -s``
or in the captured output of a failing test). The heavyweight fixture
runs a 200-instance four-method comparison once and is shared by the
criteria that quantify over "every instance".
"""

import math
import time

import numpy as np
import pytest

from conftest import det_cofactor, guarded_instance, random_correlation

from bestsubset import (
    DesignMatrix,
    column_stats,
    fit_single,
    measure_counts,
    predicted_counts,
    select_best,
    synthetic_observations,
)
from bestsubset.cli import run_bench
from bestsubset.kernels import conditional_uuc, triangulate
from bestsubset.opcount import OpTally
from bestsubset.search import METHODS, slice_correlations
from bestsubset.stats import ObservationMatrix, pearson

N_INSTANCES = 200


def _report(num, name, ok, detail=""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _shape(seed):
    r = np.random.default_rng(seed)
    d = int(r.integers(10, 51))
    n = int(r.integers(4, 11))
    k = int(r.integers(1, 5))
    m = int(r.integers(1, 4))
    return d, n, min(k, n, d - 1), m


@pytest.fixture(scope="module")
def battery():
    """200 gap-guarded random instances, scored by all four methods."""
    instances = []
    t0 = time.perf_counter()
    for i in range(N_INSTANCES):
        seed, d, n, k, m, data, pred, resp, model, scores = guarded_instance(
            3000 + 17 * i, _shape)
        results = {
            method: select_best(data, pred, resp, k, method=method)
            for method in METHODS
        }
        instances.append({
            "seed": seed, "d": d, "n": n, "k": k, "m": m,
            "data": data, "pred": pred, "resp": resp, "model": model,
            "scores": scores, "results": results,
        })
    elapsed = time.perf_counter() - t0
    return {"instances": instances, "elapsed_s": elapsed}


def _explicit_fit(inst, subset, t):
    """Plain least-squares refit of one winner, straight from the data."""
    data = inst["data"]
    design = DesignMatrix([data.column_list(inst["pred"][j]) for j in subset])
    y = data.column_list(inst["resp"][t])
    return design, y, fit_single(design, y)


def test_criterion_01_cross_method_argmin(battery):
    worst_rel = 0.0
    ok = True
    for inst in battery["instances"]:
        for t in range(inst["m"]):
            subsets = {m: inst["results"][m][t].subset for m in METHODS}
            if len(set(subsets.values())) != 1:
                ok = False
                break
            mses = [inst["results"][m][t].mse for m in METHODS]
            rel = (max(mses) - min(mses)) / max(max(abs(v) for v in mses), 1e-30)
            worst_rel = max(worst_rel, rel)
            if rel > 1e-9:
                ok = False
    ok = ok and len(battery["instances"]) >= 200 and battery["elapsed_s"] < 30.0
    _report(1, "argmin identical across all four methods", ok,
            f"{len(battery['instances'])} instances, worst mse spread "
            f"{worst_rel:.2e}, {battery['elapsed_s']:.1f} s")


def test_criterion_02_determinant_ratio_oracle():
    worst = 0.0
    checks = 0
    for i in range(100):
        rng = np.random.default_rng(9100 + i)
        k = int(rng.integers(1, 7))
        stacked = random_correlation(rng, k + 1)
        rx = [row[:k] for row in stacked[:k]]
        rho = [stacked[j][k] for j in range(k)]
        # the oracle reads rx before triangulate consumes it in place
        oracle = det_cofactor(stacked) / det_cofactor(rx)
        got = conditional_uuc(triangulate(rx), rho).omega_sq
        worst = max(worst, abs(got - oracle))
        checks += 1
    ok = checks >= 100 and worst <= 1e-10
    _report(2, "conditional omega^2 equals cofactor determinant ratio", ok,
            f"{checks} subsets, worst abs err {worst:.2e}")


def test_criterion_03_mse_identity(battery):
    worst = 0.0
    for inst in battery["instances"]:
        for t in range(inst["m"]):
            res = inst["results"]["cond-uncorrelation"][t]
            _, _, fit = _explicit_fit(inst, res.subset, t)
            rel = abs(res.mse - fit.mse) / max(fit.mse, 1e-30)
            worst = max(worst, rel)
    ok = worst <= 1e-9
    _report(3, "sigma_y^2 * omega^2 equals the explicit residual MSE", ok,
            f"worst rel err {worst:.2e}")


def test_criterion_04_r_squared_identities(battery):
    worst_fit = 0.0
    worst_omega = 0.0
    argmins_agree = True
    for inst in battery["instances"]:
        data = inst["data"]
        for t in range(inst["m"]):
            res = inst["results"]["cond-uncorrelation"][t]
            _, y, fit = _explicit_fit(inst, res.subset, t)
            yhat = [yi - ri for yi, ri in zip(y, fit.residual)]
            var_yhat = float(np.var(yhat))
            var_y = float(np.var(y))
            worst_fit = max(worst_fit, abs(res.r_squared - var_yhat / var_y))
            worst_omega = max(worst_omega,
                              abs(res.r_squared - (1.0 - res.omega_sq_cond)))
            # min MSE, max R^2 and min omega^2 pick the same subset
            sigma_sq = var_y
            table = [(s, v[t]) for s, v in inst["scores"].items()]
            by_omega = min((v, s) for s, v in table)[1]
            by_mse = min((sigma_sq * v, s) for s, v in table)[1]
            by_r2 = min((-(1.0 - v), s) for s, v in table)[1]
            if not (by_omega == by_mse == by_r2 == res.subset):
                argmins_agree = False
    ok = worst_fit <= 1e-9 and worst_omega <= 1e-12 and argmins_agree
    _report(4, "R^2 identities and shared argmin", ok,
            f"worst vs fit {worst_fit:.2e}, worst vs 1-omega^2 {worst_omega:.2e}")


def test_criterion_05_coefficient_recovery(battery):
    worst_beta = 0.0
    worst_mean = 0.0
    for inst in battery["instances"]:
        data = inst["data"]
        for t in range(inst["m"]):
            res = inst["results"]["cond-uncorrelation"][t]
            _, y, fit = _explicit_fit(inst, res.subset, t)
            got = [res.coefficients.beta0, *res.coefficients.betas]
            scale = max(max(abs(v) for v in fit.beta), 1e-12)
            worst_beta = max(worst_beta,
                             max(abs(a - b) for a, b in zip(got, fit.beta)) / scale)
            cols = [data.column_list(inst["pred"][j]) for j in res.subset]
            yhat = [
                res.coefficients.beta0
                + sum(b * c[i] for b, c in zip(res.coefficients.betas, cols))
                for i in range(data.d)
            ]
            mean_y = float(np.mean(y))
            drift = abs(float(np.mean(yhat)) - mean_y) / max(1.0, abs(mean_y))
            worst_mean = max(worst_mean, drift)
    ok = worst_beta <= 1e-9 and worst_mean <= 1e-9
    _report(5, "correlation-path coefficients match the normal equations", ok,
            f"worst beta rel err {worst_beta:.2e}, mean drift {worst_mean:.2e}")


def test_criterion_06_single_responder_counts_exact():
    t0 = time.perf_counter()
    exact = True
    for k in range(1, 9):
        for method in ("alg1", "alg2"):
            if measure_counts(method, k) != predicted_counts(method, k):
                exact = False
    spot = (measure_counts("alg2", 2) == OpTally(4, 5, 1)
            and measure_counts("alg2", 3) == OpTally(10, 13, 2))
    elapsed = time.perf_counter() - t0
    ok = exact and spot and elapsed < 1.0
    k2, k3 = measure_counts("alg2", 2), measure_counts("alg2", 3)
    _report(6, "single-responder op counts exact for k=1..8", ok,
            f"spot k=2 ({k2.adds}, {k2.muls}, {k2.divs}), "
            f"k=3 ({k3.adds}, {k3.muls}, {k3.divs}), {elapsed:.2f} s")


def test_criterion_07_multi_responder_counts_exact():
    exact = True
    for k in range(1, 9):
        for m in range(1, 6):
            if measure_counts("alg2", k, m=m) != predicted_counts("alg2", k, m=m):
                exact = False
        # the m=1 polynomial collapses onto the single-responder forms
        single = OpTally((k**3 + 3 * k**2 + 2 * k) // 6,
                         (k**3 + 6 * k**2 - k) // 6,
                         k - 1)
        if predicted_counts("alg2", k, m=1) != single:
            exact = False
    _report(7, "multi-responder op counts exact for m=1..5, k=1..8", exact)


def test_criterion_08_baseline_counts_and_d_slope():
    exact = True
    for k in range(1, 9):
        for d in (12, 30, 100):
            if measure_counts("hat-single", k, d=d) != \
                    predicted_counts("hat-single", k, d=d):
                exact = False
    for k in (1, 3, 5, 8):
        for d in (12, 40):
            for m in (1, 3, 5):
                for method in ("hat-a", "hat-b"):
                    if measure_counts(method, k, d=d, m=m) != \
                            predicted_counts(method, k, d=d, m=m):
                        exact = False
    k = 3
    ds = [100, 200, 400, 800]
    slope_a = np.polyfit(ds, [measure_counts("hat-single", k, d=d).adds
                              for d in ds], 1)[0]
    slope_m = np.polyfit(ds, [measure_counts("hat-single", k, d=d).muls
                              for d in ds], 1)[0]
    slopes_ok = (abs(slope_a - (k + 3)) <= 0.05 * (k + 3)
                 and abs(slope_m - (k + 2)) <= 0.05 * (k + 2))
    ok = exact and slopes_ok
    _report(8, "baseline counts exact, linear in d with slopes k+3 / k+2", ok,
            f"add slope {slope_a:.4f} (want {k + 3}), "
            f"mul slope {slope_m:.4f} (want {k + 2})")


def test_criterion_09_per_subset_speedup():
    t0 = time.perf_counter()
    report = run_bench(d=1000, n=15, k=3, m=10, seed=2026, limit=0)
    elapsed = time.perf_counter() - t0
    ratio = report["speedup_vs_hat_b"]["cond-uncorrelation"]
    ok = ratio >= 2.0 and report["winners_agree"] and elapsed < 60.0
    _report(9, "per-subset speedup over the projection baseline", ok,
            f"{ratio:.0f}x at d=1000 n=15 k=3 m=10, {elapsed:.1f} s")


def _check_scale_shift_invariance():
    """Every method's winners survive a change of units: x -> x s + c with
    s in 0.1..10 and c in -5..5 on every column, and x -> s (x + c) with
    the responders' s at both 1e-6 and 1e6 (times 0.1..10)."""
    data, pred, resp = _fresh_instance(seed=77, d=25, n=6, m=2)
    k = 2
    base = {m: [r.subset for r in select_best(data, pred, resp, k, method=m)]
            for m in METHODS}
    rng = np.random.default_rng(78)
    tables = [data.values * rng.uniform(0.1, 10.0, size=data.p)
              + rng.uniform(-5.0, 5.0, size=data.p)]
    for exponent in (-6, 6):
        # the shift is in the column's own units: a shift of 5 after a
        # scale of 1e-6 would be 5e6 standard deviations, and centring
        # such a column loses every digit of its spread
        scale = rng.uniform(0.1, 10.0, size=data.p)
        scale[resp] *= 10.0 ** exponent
        tables.append((data.values + rng.uniform(-5.0, 5.0, size=data.p)) * scale)
    for values in tables:
        data2 = ObservationMatrix(values)
        for method, winners in base.items():
            got = [r.subset for r in select_best(data2, pred, resp, k, method=method)]
            if got != winners:
                return False
    return True


def _fresh_instance(seed, d, n, m):
    data = synthetic_observations(d, n + m, seed=seed)
    return data, list(range(n)), list(range(n, n + m))


def _check_monotonicity():
    data, pred, resp = _fresh_instance(seed=5, d=30, n=7, m=1)
    from bestsubset import build_correlation_model
    model = build_correlation_model(data, pred, resp)
    rng = np.random.default_rng(6)
    for _ in range(20):
        order = list(rng.permutation(7))
        prev = None
        for size in range(1, 6):
            subset = tuple(sorted(order[:size]))
            rx, rho = slice_correlations(model, subset, 0)
            omega = conditional_uuc(triangulate(rx), rho).omega_sq
            if prev is not None and omega > prev + 1e-12:
                return False
            prev = omega
    return True


def _check_orthogonal_closed_form():
    # Sylvester construction: dropping the constant first column leaves
    # seven +/-1 columns with exactly zero mean and exact orthogonality
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    h = np.kron(h2, np.kron(h2, h2))[:, 1:]
    rng = np.random.default_rng(11)
    y = rng.normal(size=8)
    from bestsubset import build_correlation_model
    data = ObservationMatrix(np.column_stack([h, y]))
    model = build_correlation_model(data, list(range(7)), [7])
    for subset in ((0, 1), (2, 4, 6), (0, 1, 2, 3, 4)):
        rx, rho = slice_correlations(model, subset, 0)
        omega = conditional_uuc(triangulate(rx), rho).omega_sq
        closed = 1.0 - sum(pearson(h[:, j], y) ** 2 for j in subset)
        if abs(omega - closed) > 1e-12:
            return False
    return True


def _check_thread_independence():
    data, pred, resp = _fresh_instance(seed=13, d=40, n=8, m=3)
    ref = select_best(data, pred, resp, 3, method="cond-uncorrelation", workers=1)
    for workers in (2, 4, 7):
        got = select_best(data, pred, resp, 3, method="cond-uncorrelation",
                          workers=workers)
        for a, b in zip(ref, got):
            if a.subset != b.subset or a.mse != b.mse or \
                    a.omega_sq_cond != b.omega_sq_cond:
                return False
    return True


def _check_lossless_boundary():
    # k = d - 1 with an intercept interpolates every responder exactly
    data, pred, resp = _fresh_instance(seed=29, d=6, n=7, m=2)
    k = 5
    assert k == data.d - 1
    hat = select_best(data, pred, resp, k, method="hat-a")
    cond = select_best(data, pred, resp, k, method="cond-uncorrelation")
    for t in range(2):
        sigma_sq = column_stats(data.column(resp[t])).sigma ** 2
        if not hat[t].mse < 1e-18 * sigma_sq:
            return False
        design = DesignMatrix(
            [data.column_list(pred[j]) for j in cond[t].subset])
        refit = fit_single(design, data.column_list(resp[t]))
        if not refit.mse < 1e-18 * sigma_sq:
            return False
    return True


def test_criterion_10_property_battery():
    properties = {
        "scale-shift invariance": _check_scale_shift_invariance(),
        "omega^2 monotone in subset growth": _check_monotonicity(),
        "orthogonal closed form": _check_orthogonal_closed_form(),
        "thread-count independence": _check_thread_independence(),
        "lossless boundary k=d-1": _check_lossless_boundary(),
    }
    failed = [name for name, good in properties.items() if not good]
    _report(10, "property battery", not failed,
            f"{len(properties) - len(failed)}/{len(properties)} properties"
            + (f", failed: {', '.join(failed)}" if failed else ""))
