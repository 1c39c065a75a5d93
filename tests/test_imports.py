"""Each command imports only the modules it runs, and the package's public
names load from their submodules on first use."""

import os
import pathlib
import subprocess
import sys

import pytest

import bestsubset

# the least-squares baseline, the op counter and the exact arithmetic
# only the op counter uses
_BASELINES = {"bestsubset.hat", "bestsubset.opcount", "fractions", "decimal"}


def _python(*args):
    """Run ``python ARGS`` on this package in a fresh interpreter; return
    its stderr, which ``-X importtime`` fills with one line per module
    imported, named after the last ``|``."""
    src = str(pathlib.Path(bestsubset.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-X", "importtime", *args], check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    return {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()
            if line.startswith("import time:")}


_SMALL = ["--d", "60", "--n", "6", "--m", "2", "--k", "2"]


@pytest.mark.parametrize("argv, absent, present", [
    (["select", *_SMALL, "--method", "cond-uncorrelation"], _BASELINES, set()),
    (["select", *_SMALL, "--method", "algorithm1"], _BASELINES, set()),
    (["verify", *_SMALL], {"bestsubset.opcount", "fractions"}, {"bestsubset.hat"}),
    (["count-ops", "--k", "2"], set(), {"bestsubset.opcount", "fractions"}),
], ids=["select-cond", "select-algorithm1", "verify", "count-ops"])
def test_a_command_imports_only_what_it_runs(argv, absent, present):
    modules = _python("-m", "bestsubset.cli", *argv)
    assert {"bestsubset.search", "bestsubset.ingest"} <= modules
    assert not absent & modules
    assert present <= modules


def test_public_names_load_on_first_use():
    assert not {m for m in _python("-c", "import bestsubset")
                if m.startswith("bestsubset.")}
    # the benchmark's set-up child imports two submodules by name
    assert {"bestsubset.cli", "bestsubset.stats"} <= _python(
        "-c", "from bestsubset import cli, stats; cli.ingest_csv, stats.pearson")


def test_every_public_name_resolves():
    for name in bestsubset.__all__:
        assert getattr(bestsubset, name) is not None, name
    star = {}
    exec("from bestsubset import *", star)
    assert set(bestsubset.__all__) <= star.keys()
    assert star["select_best"] is bestsubset.search.select_best
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(bestsubset, "no_such_name")
