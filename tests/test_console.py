"""The command line as a user runs it: each command in its own process,
``python -m bestsubset.cli``, where a numpy DeprecationWarning or
RuntimeWarning fails the command (``PYTHONWARNINGS=error``)."""

import json
import os
import pathlib
import random
import subprocess
import sys

import bestsubset

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _bestsubset(*args):
    """``bestsubset *args``'s stdout; it must exit 0 with nothing on stderr.
    BLAS starts its own threads, so a fork in a process with threads
    warns (Python 3.12+) unless ingest keeps that warning quiet."""
    src = str(pathlib.Path(bestsubset.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    env["PYTHONWARNINGS"] = "error"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "bestsubset.cli", *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


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
