"""Independent numpy oracle for best-subset reports.

Scores every subset with ``np.corrcoef`` and one batched
``np.linalg.solve``: omega^2 = 1 - rho' R^-1 rho. It shares no code with
the package (it imports only numpy), so a bug in the package's kernels,
search or statistics cannot hide in both sides at once.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

# A subset is inadmissible when its predictor correlation block has an
# eigenvalue below this; exact collinearity gives ~1e-16, real data >1e-3.
SINGULAR_EIG = 1e-9
# Winner's omega^2 may exceed the oracle minimum by this much (ties).
ARGMIN_TOL = 1e-9
# Reported mse / sigma_y^2 must match the oracle omega^2 this closely.
OMEGA_TOL = 1e-8


class Oracle:
    """All omega^2 scores of one workload, per subset size."""

    def __init__(self, table: np.ndarray, n: int, m: int, ks):
        corr = np.corrcoef(table, rowvar=False)
        rx, ry = corr[:n, :n], corr[n:, :n]
        self.var_y = table[:, n:].var(axis=0)
        self.subsets = {}  # k -> (C, k) int array, lexicographic
        self.omega = {}    # k -> (C, m), NaN where inadmissible
        for k in ks:
            s = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
            rs = rx[s[:, :, None], s[:, None, :]]
            rho = ry.T[s]  # (C, k, m)
            ok = np.linalg.eigvalsh(rs)[:, 0] > SINGULAR_EIG
            omega = np.full((len(s), m), np.nan)
            w = np.linalg.solve(rs[ok], rho[ok])
            omega[ok] = 1.0 - np.einsum("ckm,ckm->cm", rho[ok], w)
            self.subsets[k] = s
            self.omega[k] = omega

    def stream(self, k: int, t: int):
        """(omega^2, subset) of every admissible subset, lexicographic."""
        s, col = self.subsets[k], self.omega[k][:, t]
        keep = ~np.isnan(col)
        return list(zip(col[keep].tolist(), map(tuple, s[keep].tolist())))

    def check_winner(self, k, t, subset, mse) -> str | None:
        """None if (subset, mse) is a correct answer for responder t."""
        s, col = self.subsets[k], self.omega[k][:, t]
        idx = _row_of(s, subset)
        score = math.nan if idx is None else float(col[idx])
        if math.isnan(score):
            return f"k={k} responder {t}: {subset} is not an admissible subset"
        best = float(np.nanmin(col))
        if score > best + ARGMIN_TOL:
            return (f"k={k} responder {t}: winner {subset} has omega^2 "
                    f"{score!r}, oracle minimum is {best!r}")
        var_y = float(self.var_y[t])
        if abs(mse / var_y - score) > OMEGA_TOL:
            return (f"k={k} responder {t}: mse {mse!r} does not match oracle "
                    f"{score * var_y!r}")
        return None


def _row_of(s: np.ndarray, subset) -> int | None:
    if len(subset) != s.shape[1]:
        return None
    hit = np.flatnonzero((s == np.asarray(subset)).all(axis=1))
    return int(hit[0]) if len(hit) else None


def _label_index(label, names, base):
    """Column position (relative to ``base``) of a report label."""
    col = names.index(label) if names is not None else int(label)
    return col - base


def check_report(text: str, workload, oracle: Oracle, names) -> list[str]:
    """Problems with one CLI report (empty list when it is correct)."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    n = workload.n
    if workload.verify:
        if report.get("pass") is not True:
            problems.append("verify report does not pass")
        checks = report.get("checks", [])
        if len(checks) != workload.m:
            problems.append(f"expected {workload.m} checks, got {len(checks)}")
        for c in checks:
            t = _label_index(c["responder"], names, n)
            for method, subset in c["subsets"].items():
                sub = tuple(_label_index(x, names, 0) for x in subset)
                err = oracle.check_winner(workload.k, t, sub, c["mse"][method])
                if err:
                    problems.append(f"{method}: {err}")
        return problems
    records = report.get("records", [])
    seen = set()
    for rec in records:
        t = _label_index(rec["responder"], names, n)
        sub = tuple(_label_index(x, names, 0) for x in rec["subset"])
        seen.add((rec["k"], t))
        err = oracle.check_winner(rec["k"], t, sub, rec["mse"])
        if err:
            problems.append(err)
    want = {(k, t) for k in workload.ks for t in range(workload.m)}
    if seen != want or len(records) != len(want):
        problems.append(f"report has {len(records)} records for "
                        f"{len(seen)} (k, responder) pairs, expected {len(want)}")
    return problems


def canonical(text: str) -> str | None:
    """Report with its wall-clock field removed, for determinism checks."""
    try:
        report = json.loads(text)
    except ValueError:
        return None
    report.pop("wall_time_s", None)
    return json.dumps(report, sort_keys=True)
