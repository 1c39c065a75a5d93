"""The four benchmark workloads: seeded CSV generators and CLI command lines.

Each workload is one CSV plus one ``bestsubset`` command over it. The CSV
is a pure function of the seed, so the same seed always yields the same
bytes. Values are written with ``repr`` so they round-trip exactly: the
oracle works on the very float64 array the CLI will parse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n: int
    m: int
    k: int
    sweep: bool
    verify: bool
    header: bool
    why: str

    @property
    def ks(self) -> list[int]:
        return list(range(1, self.k + 1)) if self.sweep else [self.k]

    @property
    def predictors(self) -> list[int]:
        return list(range(self.n))

    @property
    def responders(self) -> list[int]:
        return list(range(self.n, self.n + self.m))

    @property
    def subsets(self) -> int:
        """Subsets one command enumerates, summed over every k it runs."""
        return sum(math.comb(self.n, k) for k in self.ks)

    @property
    def pairs(self) -> int:
        """Scored (subset, responder) pairs, from the input shape alone.

        ``verify`` scores every pair once per method, four methods.
        """
        return self.subsets * self.m * (4 if self.verify else 1)

    def cli_args(self, csv_path: str) -> list[str]:
        args = [
            "verify" if self.verify else "select",
            "--input", csv_path,
            "--predictors", f"0-{self.n - 1}",
            "--responders", f"{self.n}-{self.n + self.m - 1}",
            "--k", str(self.k),
        ]
        if self.sweep:
            args.append("--sweep")
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan-noise", d=1000, n=24, m=10, k=4, sweep=False, verify=False,
            header=False,
            why="1000x34 noise, n=24 m=10, select --k 4: scan, kernels and "
                "argmin do most of the work; nothing for pruning to cut",
        ),
        Workload(
            "scan-planted-sweep", d=1000, n=19, m=4, k=5, sweep=True,
            verify=False, header=True,
            why="1000x23 correlated triples + affine copy, m=4 planted, "
                "select --k 5 --sweep: five model builds, singular skips, "
                "signal pruning can use",
        ),
        Workload(
            "ingest-wide", d=2000, n=300, m=2, k=1, sweep=False,
            verify=False, header=True,
            why="2000x302 (11 MB) mixed-scale CSV, select --k 1: CSV "
                "ingest and correlation model do nearly all the work",
        ),
        Workload(
            "verify-desk", d=1000, n=10, m=5, k=3, sweep=False, verify=True,
            header=False,
            why="1000x15 noise, n=10 m=5, verify --k 3: the only workload "
                "running hat and gauss, at the paper's desk-scale d",
        ),
    )
}


def _seed_for(workload: Workload, seed: int) -> np.random.Generator:
    # Mix the workload name in so the workloads of one seed are unrelated.
    salt = sum(ord(c) * 131 ** i for i, c in enumerate(workload.name)) % 2**32
    return np.random.default_rng([seed, salt])


def generate(workload: Workload, seed: int) -> np.ndarray:
    """The d x (n+m) observation table of one workload, from the seed."""
    rng = _seed_for(workload, seed)
    d, n, m = workload.d, workload.n, workload.m
    if workload.name == "scan-planted-sweep":
        # Correlated triples (r ~ 0.8 within a triple), then the last
        # predictor an exact affine copy of column 0, so every subset
        # holding both is singular.
        triples = (n - 1) // 3
        base = rng.standard_normal((d, triples))
        x = np.repeat(base, 3, axis=1) + 0.5 * rng.standard_normal((d, 3 * triples))
        x = np.column_stack([x, 3.0 * x[:, 0] - 2.0])
        ys = []
        for _ in range(m):
            # Planted sets avoid column 0 and its copy, whose scores tie.
            cols = rng.choice(np.arange(1, n - 1), size=4, replace=False)
            beta = rng.choice([-1.0, 1.0], size=4) * rng.uniform(1.0, 2.0, 4)
            ys.append(x[:, cols] @ beta + 1.5 * rng.standard_normal(d))
        return np.column_stack([x] + ys)
    if workload.name == "ingest-wide":
        z = rng.standard_normal((d, n + m))
        # each responder leans on one predictor, so its k=1 winner is clear
        for t in range(m):
            z[:, n + t] += 0.3 * z[:, rng.integers(n)]
        scale = 10.0 ** rng.uniform(-1.0, 2.0, n + m)
        shift = rng.uniform(-1e3, 1e3, n + m)
        return z * scale + shift
    return rng.standard_normal((d, n + m))


def write_csv(workload: Workload, table: np.ndarray, path: str) -> None:
    lines = []
    if workload.header:
        lines.append(",".join([f"x{j}" for j in range(workload.n)]
                              + [f"y{t}" for t in range(workload.m)]))
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
