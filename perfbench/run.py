"""bestsubset benchmark: CSV-to-report CLI timings, and a traced layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan-noise --seed 1 --seconds 20 --trace 0

The workload CSV is generated from the seed into ``.perfbench_work/`` and
removed at the end. With ``--trace 0`` the loop runs, for ``--seconds``
and at least 14 times, one ``python -m bestsubset.cli`` command (spawn
to exit, stdout checked against the numpy oracle), and after every
second command one set-up child (import, ``cli.ingest_csv``,
``stats.build_correlation_model``); it reports the end-to-end metrics. With ``--trace 1`` the loop instead
alternates an untraced command with a traced one (see ``spans.py``), then
times each module in-process (see ``layers.py``), and reports the
per-layer metrics. Children run one at a time with one BLAS thread.

Human-readable provenance and metrics come first; the last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
HERE = os.path.dirname(os.path.abspath(__file__))

# One BLAS thread everywhere, ours and the children's, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from oracle import Oracle, canonical, check_report  # noqa: E402
from spans import own_seconds  # noqa: E402
from workloads import WORKLOADS, generate, write_csv  # noqa: E402

# CLI commands per untraced run, whatever --seconds says: enough that the
# highest percentile with 10 samples beyond it is not just the minimum.
MIN_SAMPLES = 14
MIN_PAIRS = 2       # untraced/traced pairs in a traced run
# A run must end within 180 s even if the program turns out very slow: no
# child starts after LOOP_STOP seconds, and one still running KILL_GRACE
# seconds later is killed.
LOOP_STOP = 100
KILL_GRACE = 50

SETUP_CODE = (
    "import sys\n"
    "from bestsubset import cli, stats\n"
    "n, m = int(sys.argv[2]), int(sys.argv[3])\n"
    "data, names = cli.ingest_csv(sys.argv[1])\n"
    "model = stats.build_correlation_model(data, range(n), range(n, n + m))\n"
    "print(model.n, model.m)\n"
)

NOTES = {
    "stats.model_bytes_mb": "computed: 2*d*8 bytes per correlation",
    "search.scan_s": "derived: select time minus the model, gram and "
                     "coefficient calls inside it",
    "kernels.mops_per_s": "derived: ops/subset * subsets / search.scan_s",
}


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

class Child:
    """One finished child process: wall seconds, exit code, peak RSS and
    stdout. It is started through ``launch.py``."""

    def __init__(self, argv: list[str], deadline: float):
        out_path = os.path.join(WORK, "stdout")
        timeout = max(1.0, deadline + KILL_GRACE - time.perf_counter())
        launcher = [sys.executable, "-S", os.path.join(HERE, "launch.py"),
                    str(timeout), out_path, "--"] + argv
        done = subprocess.run(launcher, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, check=True)
        meta = json.loads(done.stdout)
        self.wall, self.code = meta["wall"], meta["code"]
        self.rss_mb = meta["rss_kb"] / 1024.0  # Linux reports KiB
        with open(out_path) as fh:
            self.stdout = fh.read()


class Checker:
    """Counts CLI commands and the ones that failed, and says why."""

    def __init__(self, workload, oracle, names):
        self.workload, self.oracle, self.names = workload, oracle, names
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._canonical = None

    def check(self, child: Child) -> None:
        self.attempted += 1
        problems = []
        if child.code != 0:
            problems.append(f"exit code {child.code}")
        else:
            try:
                problems += check_report(child.stdout, self.workload,
                                         self.oracle, self.names)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                problems.append(f"malformed report: {exc!r}")
            canon = canonical(child.stdout)
            if self._canonical is None:
                self._canonical = canon
            elif canon != self._canonical:
                problems.append("report differs from the first one of this run")
        if problems:
            self.failed += 1
            self.problems += problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, as (value, pct).

    With fewer than 11 samples (a run cut short by the deadline) there
    is none; the maximum is returned.
    """
    xs = sorted(samples)
    i = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def end_to_end(workload, csv_path, checker, seconds, deadline):
    """End-to-end metrics, plus a note with the sample count and tail."""
    cli = [sys.executable, "-m", "bestsubset.cli"] + workload.cli_args(csv_path)
    setup = [sys.executable, "-c", SETUP_CODE, csv_path,
             str(workload.n), str(workload.m)]
    runs, setups, rss = [], [], []
    start = time.perf_counter()
    while ((len(runs) < MIN_SAMPLES or time.perf_counter() - start < seconds)
           and time.perf_counter() < deadline):
        child = Child(cli, deadline)
        checker.check(child)
        runs.append(child.wall)
        rss.append(child.rss_mb)
        if len(runs) % 2:
            child = Child(setup, deadline)
            if child.stdout.split() != [str(workload.n), str(workload.m)]:
                checker.problems.append(f"set-up child failed (exit {child.code})")
            setups.append(child.wall)
    if len(runs) < MIN_SAMPLES:
        checker.problems.append(f"only {len(runs)} commands before the deadline")
    run_s = statistics.median(runs)
    tail_s, pct = tail(runs)
    metrics = {
        "run_s": run_s,
        "pairs_per_s": workload.pairs / run_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "ok_ratio": (checker.attempted - checker.failed) / checker.attempted,
    }
    # Not gated: with this few samples the "tail" is a low order statistic
    # whose run-to-run spread exceeded the largest bound allowed.
    return metrics, {"run_s": f"median of {len(runs)} samples; run_s_tail, "
                              f"p{pct:.0f}, = {tail_s:.6g} s"}


def _from_spans(spans: list[dict], csv_mb: float) -> dict:
    """Per-layer values of one traced command."""
    total: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    cond_scan_s = 0.0
    own_by_span = own_seconds(spans)
    for s in spans:
        name, secs = s["name"], own_by_span[(s["run"], s["id"])]
        total[name] = total.get(name, 0.0) + s["end"] - s["start"]
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + secs
        if name == "search.select" and s["attrs"]["method"] == "cond-uncorrelation":
            cond_scan_s += secs
    ingest = total.get("cli.ingest", 0.0)
    return {
        "cli.ingest_s": ingest,
        "cli.ingest_mb_per_s": csv_mb / ingest if ingest else 0.0,
        "cli.render_s": total.get("cli.render", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "stats.model_s": total.get("stats.model", 0.0),
        "search.select_s": total.get("search.select", 0.0),
        "search.scan_s": layer_self.get("search", 0.0),
        "kernels.self_s": layer_self.get("kernels", 0.0),
        "hat.self_s": layer_self.get("hat", 0.0),
        "cond_scan_s": cond_scan_s,
        "counts": [(s["attrs"]["k"], s["attrs"]["method"], s["attrs"]["subsets"],
                    s["attrs"]["skipped"])
                   for s in spans if s["name"] == "search.select"],
    }


def per_layer(workload, table, oracle, csv_path, checker, seconds, seed,
              deadline):
    """Per-layer metrics from traced commands and in-process timings."""
    import layers  # imports bestsubset, so only once SRC is on sys.path

    cli = [sys.executable, "-m", "bestsubset.cli"] + workload.cli_args(csv_path)
    spans_path = os.path.join(WORK, "spans.json")
    csv_mb = os.path.getsize(csv_path) / 1e6
    plain, traced, per_run = [], [], []
    start = time.perf_counter()
    while ((len(traced) < MIN_PAIRS or time.perf_counter() - start < seconds)
           and time.perf_counter() < deadline):
        child = Child(cli, deadline)
        checker.check(child)
        plain.append(child.wall)
        argv = [sys.executable, os.path.join(HERE, "spans.py"), spans_path,
                str(len(traced))] + workload.cli_args(csv_path)
        child = Child(argv, deadline)
        checker.check(child)
        traced.append(child.wall)
        if child.code == 0:
            with open(spans_path) as fh:
                per_run.append(_from_spans(json.load(fh), csv_mb))
    if not per_run:
        raise SystemExit("error: every traced command failed")
    if any(r["counts"] != per_run[0]["counts"] for r in per_run):
        checker.problems.append("select counts differ between traced commands")

    out = {}
    for key in per_run[0]:
        if key != "counts":
            out[key] = statistics.median(r[key] for r in per_run)
    micro, problems = layers.measure(workload, table, oracle, seed)
    checker.problems += problems
    out.update(micro)

    counts = per_run[0]["counts"]
    cond = {k: (sub, skip) for k, method, sub, skip in counts
            if method == "cond-uncorrelation"}
    if cond != {k: (sub, skip) for k, sub, skip in micro["search.counts_by_k"]}:
        checker.problems.append("traced select counts differ from in-process ones")
    out["search.subsets"] = sum(c[2] for c in counts)
    out["search.skipped"] = sum(c[3] for c in counts)
    out["search.useful_ratio"] = 1.0 - out["search.skipped"] / out["search.subsets"]
    out["search.us_per_subset"] = out["search.scan_s"] / out["search.subsets"] * 1e6
    evaluated = {k: sub - skip for k, (sub, skip) in cond.items()}
    ops = dict(zip(workload.ks, micro["kernels.ops_by_k"]))
    out["kernels.mops_per_s"] = (
        sum(ops[k] * evaluated[k] for k in evaluated) / out.pop("cond_scan_s") / 1e6)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out, {}


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed) -> dict:
    return {
        "workload": workload.name,
        "command": "python -m bestsubset.cli " + " ".join(workload.cli_args("<csv>")),
        "shape": f"d={workload.d} n={workload.n} m={workload.m} "
                 f"k={workload.ks} pairs={workload.pairs}",
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bestsubset", "cli.py")):
        sys.stderr.write(f"error: no bestsubset package under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    deadline = time.perf_counter() + LOOP_STOP
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    csv_path = os.path.join(WORK, f"{workload.name}-{args.seed}.csv")
    try:
        table = generate(workload, args.seed)
        write_csv(workload, table, csv_path)
        names = ([f"x{j}" for j in range(workload.n)]
                 + [f"y{t}" for t in range(workload.m)]) if workload.header else None
        oracle = Oracle(table, workload.n, workload.m, workload.ks)
        checker = Checker(workload, oracle, names)
        # compile the package's bytecode before anything is timed
        warm = Child([sys.executable, "-c", "import bestsubset.cli"], deadline)
        if warm.code != 0:
            sys.stderr.write("error: cannot import bestsubset.cli\n")
            return 2
        if args.trace:
            metrics, notes = per_layer(workload, table, oracle, csv_path, checker,
                                       args.seconds, args.seed, deadline)
        else:
            metrics, notes = end_to_end(workload, csv_path, checker,
                                        args.seconds, deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for key, value in provenance(workload, args.seed).items():
        print(f"# {key}: {value}")
    print(f"# CLI commands: {checker.attempted} attempted, {checker.failed} failed "
          f"(failed_ratio {checker.failed / checker.attempted:.4g})")
    for problem in dict.fromkeys(checker.problems):
        print(f"# FAILED: {problem}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, unit in units.items():
        note = notes.get(name) or NOTES.get(name)
        note = f"  ({note})" if note else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")
    result = {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
