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
    "select --d 60 --n 6 --m 2 --k 2 --format text",
    "count-ops --k 4 --m 2",
    # tree-walk levels of several blocks, with many responders
    "select --d 200 --n 20 --m 300 --k 4 --format csv",
    # the model builds no predictor block at k = 1, and no responder
    # pairs: 3000 predictors at k = 1, and 4000 responders at k = 2
    "select --d 100 --n 3000 --m 2 --k 1 --format csv",
    "select --d 1000 --n 20 --m 4000 --k 2 --format csv",
    # 122 columns of 4000 rows: the correlation model takes 8 tiles of 16
    "select --d 4000 --n 120 --m 2 --k 1 --format text",
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


def test_a_header_may_name_a_column_nan(tmp_path):
    """A header may name a column NaN: it is still a header, and the
    column it names can win."""
    path = tmp_path / "nanhead.csv"
    path.write_text("NaN,b,y\n1,5,3.1\n4,2,9\n2,1,4.9\n3,3,7\n")
    out = _bestsubset("select", "--input", str(path), "--predictors", "NaN,b",
                      "--responders", "y", "--k", "1", "--format", "csv")
    assert out.splitlines()[-1].split(",")[2] == "NaN"


def test_an_affine_copy_wins_with_omega_sq_zero(tmp_path):
    """A responder that is an exact affine copy of x0 correlates with it at
    1.0000000000000002: the range rule lands that on 1.0, and the copy
    wins with omega^2 = 0."""
    x = np.random.default_rng(3).standard_normal((30, 3))
    path = _csv(tmp_path / "affine.csv", np.column_stack((x, 3 * x[:, 0] - 2)))
    out = _bestsubset("select", "--input", path, "--predictors", "0-2", "--responders", "3",
                      "--k", "1", "--format", "csv")
    assert out.splitlines()[-1].split(",")[2:4] == ["0", "0.0"]


@pytest.fixture(scope="module")
def refused_csvs(tmp_path_factory):
    """The tables the refused commands read, by name."""
    folder = tmp_path_factory.mktemp("refused")
    paths = {name: folder / f"{name}.csv" for name in ("small", "unparsable", "latin1")}
    paths["small"].write_text("a,b,y\n1,2,3\n4,5,7\n2,1,0\n")
    paths["unparsable"].write_text("a,b\n1,2\nx,4\n")
    paths["latin1"].write_bytes(b"Gr\xf6\xdfe,y\n1,2\n3,5\n4,4\n")
    x = np.random.default_rng(0).standard_normal((20, 4))
    x[:, 2] *= 1e200
    paths["variance"] = _csv(folder / "variance.csv", x)
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("args, status, error", [
    ("select --d 60 --n 6 --m 2 --k 2 --limit -1", 2, "--limit must be at least 0, got -1"),
    ("select --input {unparsable} --predictors 0 --responders 1 --k 1", 3,
     "cannot parse 'x' as a number (row 3, column 1)"),
    # a file that is not UTF-8 is a parse error too
    ("select --input {latin1} --predictors 0 --responders 1 --k 1", 3,
     "{latin1}: byte 0xf6 at offset 2 is not UTF-8 (row 1)"),
    # a column range is checked against the table before it is expanded
    ("select --input {small} --predictors 0-999999999999 --responders 2 --k 1", 2,
     "--predictors: column index 3 out of range 0..2"),
    # a name no header holds is one exact line, with no trailing blank
    ("select --input {small} --predictors zz --responders 2 --k 1", 2,
     "--predictors: cannot resolve 'zz'"),
    # a predictor whose variance overflows is exit 11 in the correlation
    # model, with no numpy warning before the error
    ("select --input {variance} --predictors 0-2 --responders 3 --k 1", 11,
     "column 2 has a variance that overflows float64"),
    # count-ops refuses --d below --k + 2 before it counts anything, and
    # bench before any scan
    ("count-ops --k 40 --d 40", 2, "--d must be at least 42, got 40"),
    ("bench --d 3 --n 2 --k 2 --m 1", 2, "--d must be at least 4, got 3"),
    # select and verify refuse a size past n before drawing their table
    ("select --d 1000000000000 --n 4 --m 1 --k 5", 7, "subset size k=5 not in 1..4"),
    ("verify --d 1000000000000 --n 4 --m 1 --k 5", 7, "subset size k=5 not in 1..4"),
])
def test_a_refused_command_exits_with_its_status(refused_csvs, args, status, error):
    """The error's exit status, nothing on stdout, and its one line on
    stderr, with no numpy warning before it."""
    done = _run(*(arg.format(**refused_csvs) for arg in args.split()))
    assert done.returncode == status
    assert done.stdout == b""
    assert done.stderr.decode() == f"error: {error.format(**refused_csvs)}\n"
