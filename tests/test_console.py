"""The command line as a user runs it: each command in its own process,
``python -m bestsubset.cli``, where a numpy DeprecationWarning or
RuntimeWarning fails the command (``PYTHONWARNINGS=error``)."""

import json
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

import bestsubset
from bestsubset.search import METHODS

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GOLDEN = pathlib.Path(__file__).parent / "golden"


def _run(*args):
    """``bestsubset *args`` run to its end, stdout and stderr as bytes.
    BLAS starts its own threads, so a fork in a process with threads
    warns (Python 3.12+) unless ingest keeps that warning quiet."""
    src = str(pathlib.Path(bestsubset.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    env["PYTHONWARNINGS"] = "error"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "bestsubset.cli", *args],
                          env=env, capture_output=True, timeout=300)


def _bestsubset(*args):
    """``bestsubset *args``'s stdout; it must exit 0 with nothing on stderr."""
    done = _run(*args)
    assert (done.returncode, done.stderr) == (0, b"")
    return done.stdout.decode()


def _csv(path, x):
    """``x`` written to ``path`` as CSV, every double to 17 digits."""
    np.savetxt(path, x, fmt="%.17g", delimiter=",")
    return str(path)


def test_a_split_csv_reports_as_one_parse(tmp_path):
    """A 4.7 MB CSV is parsed in parts by forked parsers while BLAS's
    threads run. The same names quoted, as spreadsheet exports write them,
    or after a UTF-8 byte-order mark, give the same report but for its
    wall time."""
    rng = random.Random(1)
    rows = "\n".join(",".join(repr(rng.gauss(0, 1)) for _ in range(40))
                     for _ in range(6000)) + "\n"
    path = tmp_path / "large.csv"  # one name: the report names its input
    reports = []
    for bom, quote in (("", ""), ("", '"'), ("\ufeff", "")):
        header = ",".join(f"{quote}x{j}{quote}" for j in range(40)) + "\n"
        path.write_text(bom + header + rows, encoding="utf-8", newline="")
        report = json.loads(_bestsubset("select", "--input", str(path), "--predictors", "0-37",
                                        "--responders", "38-39", "--k", "1", "--format", "json"))
        report.pop("wall_time_s")
        reports.append(report)
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


@pytest.mark.parametrize("args", [
    # verify at the paper's desk scale, and on a deeper subset tree
    "verify --d 1000 --n 10 --m 5 --k 3 --format text",
    "verify --d 200 --n 24 --m 10 --k 4 --format text",
    "select --d 200 --n 12 --m 3 --k 3 --method hat-b --sweep",
    # the Gram table of hat-* pairs no responders: 2000 against [1; X],
    # and one block solve on it gives all 2000 winners' coefficients
    "select --d 200 --n 20 --m 2000 --k 2 --method hat-a --format csv",
    "select --d 200 --n 20 --m 2000 --k 2 --method hat-b --format csv",
    # 42 columns of 4000 rows at k = 2: the third tile of 16 holds
    # predictors 32-39 and both responders, so the square's diagonal tile,
    # its mirror and the responders' rows share one table
    "select --d 4000 --n 40 --m 2 --k 2 --format text",
    "select --d 4000 --n 40 --m 2 --k 2 --method hat-b --format text",
    # the one row builder, a multi-tile Gram table and each winner's solve on it
    "select --d 4000 --n 120 --m 2 --k 1 --method hat-b --format text",
    # the one report writer's CSV and JSON branches for verify, bench and count-ops
    "verify --d 200 --n 8 --m 3 --k 2 --format csv",
    "bench --d 60 --n 6 --k 2 --m 2 --format csv",
    "count-ops --k 3 --m 2 --format json",
])
def test_a_command_runs_clean(args):
    """Exit 0, and no numpy warning on the way."""
    _bestsubset(*args.split())


def test_count_ops_prints_the_golden_table():
    """The command counts the hat-* scans' block kernel to the golden
    table, byte for byte."""
    done = _run("count-ops", "--k", "8", "--m", "5", "--d", "30", "--format", "csv")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (_GOLDEN / "count_ops_k8_m5_d30.csv").read_bytes()


def test_a_report_larger_than_a_pipe_buffer_arrives_whole():
    """The command exits through ``cli.run``, and 2000 winners' CSV still
    arrives whole: a header and 2000 rows."""
    out = _bestsubset("select", "--d", "200", "--n", "20", "--m", "2000", "--k", "2",
                      "--method", "algorithm1", "--format", "csv")
    assert out.count("\n") == 2001


@pytest.fixture(scope="module")
def dup_csv(tmp_path_factory):
    """200 rows of 14 columns, column 1 a copy of column 0."""
    x = np.random.default_rng(5).standard_normal((200, 14))
    x[:, 1] = x[:, 0]
    return _csv(tmp_path_factory.mktemp("dup") / "dup.csv", x)


@pytest.mark.parametrize("method", METHODS)
def test_every_method_skips_the_subsets_holding_a_copy(dup_csv, method):
    """Column 1 copies column 0: every method skips the C(10, k - 2)
    subsets holding both, 0, 1 and 10 at k = 1, 2 and 3."""
    out = _bestsubset("select", "--input", dup_csv, "--predictors", "0-11",
                      "--responders", "12-13", "--k", "3", "--sweep", "--method", method,
                      "--format", "csv")
    fields = [line.split(",") for line in out.splitlines()[1:]]
    assert sorted({f"{f[0]},{f[8]}" for f in fields}) == ["1,0", "2,1", "3,10"]


def test_an_overflowing_responder_is_exit_11(tmp_path):
    """A responder whose squared norm overflows is exit 11 for hat-a,
    with no numpy overflow warning raised before the error."""
    x = np.random.default_rng(3).standard_normal((20, 5))
    x[:, 4] = 1e160 + 1e150 * x[:, 4]
    done = _run("select", "--input", _csv(tmp_path / "overflow.csv", x), "--predictors", "0-3",
                "--responders", "4", "--k", "1", "--method", "hat-a")
    assert done.returncode == 11
    assert b"Warning" not in done.stderr
