"""CSV ingestion, report rendering and command line behaviour."""

import contextlib
import csv
import gc
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bestsubset import cli, ingest, opcount, synthetic_observations
from bestsubset.errors import (
    ArityMismatchError,
    BestSubsetError,
    InternalNumericError,
    NonFiniteValueError,
    ParseError,
    SingularMatrixError,
    UnknownMethodError,
    VerificationFailure,
)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def planted_csv(tmp_path, seed=3, d=40):
    """Five predictors and one responder built from columns 0 and 2 only."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, 5))
    y = 2.0 * x[:, 0] - 1.5 * x[:, 2] + 0.05 * rng.normal(size=d)
    header = "a,b,c,e,f,y"
    lines = [header]
    for i in range(d):
        lines.append(",".join(repr(float(v)) for v in (*x[i], y[i])))
    return write_csv(tmp_path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_with_header(tmp_path):
    path = write_csv(tmp_path, "x1,x2,y\n1,2,3\n4,5,6\n7,8,10\n")
    data, names = cli.ingest_csv(path)
    assert names == ["x1", "x2", "y"]
    assert data.d == 3 and data.p == 3
    assert data.values[2, 2] == 10.0


def test_ingest_without_header(tmp_path):
    path = write_csv(tmp_path, "1,2\n3,4\n5,6\n")
    data, names = cli.ingest_csv(path)
    assert names is None
    assert data.d == 3 and data.p == 2


def test_ingest_quoted_fields(tmp_path):
    path = write_csv(tmp_path, '"col, one",y\n" 1 ",2\n3,4\n')
    data, names = cli.ingest_csv(path)
    assert names == ["col, one", "y"]
    assert data.values[0, 0] == 1.0


def test_ingest_blank_cell_position(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,2\n3,\n5,6\n")
    with pytest.raises(ParseError) as err:
        cli.ingest_csv(path)
    assert err.value.row == 3 and err.value.column == 2


def test_ingest_bad_token_position(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,2\n3,4\nfive,6\n")
    with pytest.raises(ParseError) as err:
        cli.ingest_csv(path)
    assert err.value.row == 4 and err.value.column == 1


def test_ingest_ragged_row(tmp_path):
    path = write_csv(tmp_path, "a,b,c\n1,2,3\n4,5\n")
    with pytest.raises(ArityMismatchError) as err:
        cli.ingest_csv(path)
    assert err.value.row == 3


def test_ingest_non_finite(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,2\n3,inf\n")
    with pytest.raises(NonFiniteValueError) as err:
        cli.ingest_csv(path)
    assert err.value.row == 3 and err.value.column == 2


def test_ingest_nan_in_first_row_is_not_a_header(tmp_path):
    path = write_csv(tmp_path, "nan,2\n3,4\n")
    with pytest.raises(NonFiniteValueError):
        cli.ingest_csv(path)


@pytest.mark.parametrize("header", ["Nan,b,y", "inf,x,y", "x1,Infinity,y"])
def test_ingest_header_may_name_a_column_nan_or_inf(tmp_path, header):
    """A first record is a header if any cell fails to parse, whatever
    the cells before it: ``Nan,b,y`` was refused on its first cell (exit
    5), while ``x1,Infinity,y`` read as a header."""
    path = write_csv(tmp_path, header + "\n1,2,3\n4,5,7\n2,1,0\n")
    for read in (ingest._ingest_fast, ingest._ingest_reference):
        data, names = read(path)
        assert names == header.split(",")
        assert data.values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 7.0], [2.0, 1.0, 0.0]]


def test_ingest_too_few_rows(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,2\n")
    with pytest.raises(ParseError):
        cli.ingest_csv(path)
    with pytest.raises(ParseError):
        cli.ingest_csv(write_csv(tmp_path, "", name="empty.csv"))


def _bom_csv(tmp_path, text):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    return str(path)


def test_byte_order_mark_before_a_header_is_ignored(tmp_path, capsys):
    """A UTF-8 byte-order mark used to stick to the first name, so
    ``--predictors x0,x1`` could not resolve 'x0' (exit 2)."""
    path = _bom_csv(tmp_path, "x0,x1,y\n1,2,3\n4,5,7\n2,1,0\n")
    code, out = run_cli(capsys, ["select", "--input", path, "--predictors", "x0,x1",
                                 "--responders", "y", "--k", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["d"] == 3
    assert report["records"][0]["subset"] == ["x1"]


def test_byte_order_mark_before_data_is_ignored(tmp_path, capsys):
    """With no header, the mark made the first data row a header of names
    such as '\\ufeff1' and dropped that row without a word."""
    path = _bom_csv(tmp_path, "1,2,3\n4,5,7\n2,1,0\n5,3,1\n")
    code, out = run_cli(capsys, ["select", "--input", path, "--predictors", "0,1",
                                 "--responders", "2", "--k", "1"])
    assert code == 0
    assert json.loads(out)["d"] == 4
    data, names = cli.ingest_csv(path)
    assert names is None
    assert data.values[0].tolist() == [1.0, 2.0, 3.0]


def _ingest_outcome(reader, path):
    """What a parser makes of a file: its table and names, or its error."""
    try:
        data, names = reader(path)
    except ParseError as exc:
        return (type(exc), str(exc), exc.row, exc.column, cli.exit_code_for(exc))
    return (data.values.shape, data.values.tobytes(), names)


_ODD_CELLS = ("1_000", "\u0661", "nan", "inf", "1e400", "", '"1"', '"1,5"', "#1")

# a finite cell longer than csv.field_size_limit() (131072 characters)
_LONG_CELL = "1." + "0" * 140000


@st.composite
def _csv_texts(draw):
    """Small CSV texts: header or none, mixed line endings, odd cells."""
    width = draw(st.integers(1, 3))
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-99, 99).map(str),
    )
    pad = st.sampled_from(["", " ", "  ", "\t"])
    rows = [[draw(pad) + draw(number) + draw(pad) for _ in range(width)]
            for _ in range(draw(st.integers(0, 5)))]
    if draw(st.booleans()):
        names = st.sampled_from(["a", " b ", "x1", '"q,1"', "2"])
        rows.insert(0, [draw(names) for _ in range(width)])
    lines = [",".join(row) for row in rows]
    for kind in draw(st.lists(st.sampled_from(
            ["cell", "trailing comma", "ragged", "whitespace line", "blank"]),
            max_size=2)):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "cell":
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_ODD_CELLS))
            lines[i] = ",".join(cells)
        elif kind == "trailing comma":
            lines[i] += ","
        elif kind == "ragged":
            lines[i] = lines[i].rpartition(",")[0] if "," in lines[i] else lines[i] + ",1"
        elif kind == "whitespace line":
            lines.insert(i, "  ")
        else:
            lines.insert(i, "")
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(line + eol for line in lines)


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ingest") / "case.csv"

    def write(text):
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return str(path)
    return write


_INGEST_EXAMPLES = (
    "a,b\n1_000,2\n3,4\n",
    "a,b\n\u0661,2\n3,4\n",
    "a,b\n1,2\nnan,4\n",
    "a,b\n1,2\n3,inf\n",
    "a,b\n1,2\n1e400,4\n",
    "a,b\n1,\n3,4\n",
    'a,b\n"1",2\n3,4\n',
    'a,b\n"1,5",2\n3,4\n',
    "a,b\n#1,2\n3,4\n",
    "a,b\n#1,2\n3,4\n5,6\n",
    "1,2#3\n4,5\n6,7\n",
    '"a\n1\n2\n',
    "a,b\n1,2,\n3,4,\n",
    "a,b\n1,2\n3\n",
    "a,b\n1,2\n  \n3,4\n",
    "1\n  \n3\n",
    "\r\n1,2\r\n\r\n 3 ,4\r\n",
    "a,b\r1,2\r\r3,4\r",
    "a,b,c\n1,2\n3,4\n",
    "1,2\n3,4\n",
    "\n\n",
    f"a,b,y\n{_LONG_CELL},2,3\n1_000,5,6\n",
    f"{_LONG_CELL},2\n3,4\n5,6\n",
    "\ufeffa,b\n1,2\n3,4\n",
    "\ufeff1,2\n3,4\n5,6\n",
    # cut in three ranges (see test_split_ingest_matches_reference_parser):
    # a quoted first record running on over lines that read as numbers
    '"a\n1\n2\n3\n4\n5\n',
    # a header longer than half the file
    "a_long_header_name,b_long_header_name\n1,2\n3,4\n",
    # the second cut's target falls between a CR and its LF
    "a,b\r\n10,2\r\n3,4\r\n",
    "a,b\r1,2\r3,4\r5,6\r",
    # a blank line starts the second range
    "1,2\n3,4\n\n5,6\n7,8\n",
    # what the C parser refuses or reads as non-finite, in the last range only
    "a,b\n1,2\n3,4\n5,6\nnan,8\n",
    "a,b\n1,2\n3,4\n5,6\n1_000,8\n",
    "a,b\n1,2\n3,4\n5,6\n7\n",
    "\ufeffa,b\n1,2\n3,4\n5,6\n",
    # quoted headers: the reader's first record ends where it stopped
    '"a\nb",c\n1,2\n3,4\n5,6\n',
    '\ufeff"a","b"\n1,2\n3,4\n5,6\n',
    '"a","b"\r\n1,2\r\n3,4\r\n5,6\r\n',
    '\n\r\n"a","b"\n1,2\n3,4\n5,6\n',
    # a stray quote opens a cell that runs on over the following lines
    'a"b,"c\n1,2\n3,4\n',
    'a"b,"c\n1",2\n3,4,5\n6,7,8\n9,10,11\n',
)


def _ingest_property(test):
    """``test(csv_file, text)`` over generated texts and every example."""
    for text in _INGEST_EXAMPLES:
        test = example(text)(test)
    return settings(derandomize=True, max_examples=300, deadline=None,
                    database=None)(given(_csv_texts())(test))


def _check_against_reference(path):
    expected = _ingest_outcome(ingest._ingest_reference, path)
    if ingest._ingest_fast(path) is not None:  # None hands over
        assert _ingest_outcome(ingest._ingest_fast, path) == expected
    assert _ingest_outcome(cli.ingest_csv, path) == expected


@contextlib.contextmanager
def _ranges(parts, part_bytes=None):
    """Ingest cuts a file in at most ``parts`` ranges (a CPU each) and one
    per ``part_bytes`` bytes (the module's own bound by default)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_cpus", lambda: parts)
        if part_bytes is not None:
            mp.setattr(ingest, "PARSE_PART_BYTES", part_bytes)
        yield


@_ingest_property
def test_ingest_fast_path_matches_reference_parser(csv_file, text):
    _check_against_reference(csv_file(text))


@_ingest_property
def test_split_ingest_matches_reference_parser(csv_file, text):
    # every file of 3 bytes or more with a line feed after its first
    # record is cut in up to three ranges, two of them forked parsers
    with _ranges(3, part_bytes=1):
        _check_against_reference(csv_file(text))


@pytest.mark.parametrize("text, forks_allowed", [
    ("a,b\n1,2\n3,4\n5,6\n7,8\n", 2),
    ("a,b\n1,x\n3,4\n5,6\n7,8\n", 2),
    ("a,b\n1,2\n3,4\n5,6\n7,x\n", 2),
    ("a,b\n1,2\n3,4\n5,6\n7,8\n", 0),
    ("a,b\n1,2\n3,4\n5,6\n7,8\n", 1),
], ids=["success", "fails-in-first-range", "fails-in-a-child", "fork-fails",
        "second-fork-fails"])
def test_no_parser_outlives_ingest(tmp_path, monkeypatch, text, forks_allowed):
    path = write_csv(tmp_path, text)
    forks = []
    real_fork = os.fork

    def counted_fork():
        if len(forks) == forks_allowed:
            raise OSError("no more processes")
        pid = real_fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    # Python 3.12+ warns on a fork in a process with threads
    waiting = threading.Event()
    thread = threading.Thread(target=waiting.wait)
    thread.start()
    try:
        fds = sorted(os.listdir("/dev/fd"))
        with warnings.catch_warnings(record=True) as caught, _ranges(3, part_bytes=1):
            warnings.simplefilter("always")
            outcome = _ingest_outcome(cli.ingest_csv, path)
        assert sorted(os.listdir("/dev/fd")) == fds  # every pipe was closed
    finally:
        waiting.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert not caught
    assert outcome == _ingest_outcome(ingest._ingest_reference, path)
    assert len(forks) == forks_allowed
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


# a child killed mid-write leaves a short stream: no head, or fewer rows
# than its head announces
@pytest.mark.parametrize("stream", [b"", np.array([2, 2]).tobytes() + bytes(24)],
                         ids=["no-head", "short-rows"])
def test_a_parser_that_ended_early_hands_over(stream):
    with pytest.raises(ValueError):
        ingest._append(np.zeros((1, 2)), 2, io.BytesIO(stream))


def test_a_cut_never_parts_a_cr_lf(tmp_path):
    """Where the 64 KiB chunk that ``_cuts`` scans for a line end ends in
    the CR of a CR LF, the line ends after the LF, and the cut lies there."""
    cr = 140_007  # the half-way cut is sought from byte cr - 65535
    text = b"a,b\r\n1," + b"0" * (cr - 7) + b"\r\n1," + b"0" * (cr - 131_074) + b"\r\n"
    path = tmp_path / "crlf.csv"
    path.write_bytes(text)
    assert text[cr:cr + 2] == b"\r\n" and len(text) // 2 - 1 + 65_535 == cr
    with _ranges(2, part_bytes=1), open(path, "rb") as fh:
        assert ingest._cuts(fh, 5, len(text)) == [5, cr + 2, len(text)]


# a quoted header is cut after as a plain one is, and CR-only line ends
# as line feeds are
@pytest.mark.parametrize("quote, parts, eol",
                         [("", 1, "\n"), ('"', 1, "\n"), ("", 2, "\n"), ('"', 2, "\n"),
                          ("", 2, "\r")],
                         ids=["plain", "quoted", "plain-split", "quoted-split", "cr-split"])
def test_ingest_wide_table_is_bit_identical_and_lean(tmp_path, monkeypatch, quote, parts, eol):
    rng = np.random.default_rng(7)
    table = (rng.standard_normal((2000, 302)) * 10.0 ** rng.uniform(-1, 2, 302)
             + rng.uniform(-1e3, 1e3, 302))
    lines = [",".join(quote + name + quote
                      for name in [f"x{j}" for j in range(300)] + ["y0", "y1"])]
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    path = write_csv(tmp_path, eol.join(lines) + eol)
    del lines
    forks = []
    fork_parser = ingest._fork_parser
    monkeypatch.setattr(ingest, "_fork_parser",
                        lambda *args: forks.append(args) or fork_parser(*args))
    with _ranges(parts):
        tracemalloc.start()
        try:
            data, names = cli.ingest_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(forks) == parts - 1  # 11 MB: a range per CPU
    ref, ref_names = ingest._ingest_reference(path)
    assert data.values.tobytes() == ref.values.tobytes() == table.tobytes()
    assert names == ref_names == [f"x{j}" for j in range(300)] + ["y0", "y1"]
    # the parsed array is the matrix's own: no second copy of the table
    assert not data.values.flags.writeable
    assert peak < 1.5 * data.values.nbytes


@pytest.mark.parametrize("command", ["select", "verify"])
def test_commands_ingest_through_the_cli_name(tmp_path, monkeypatch, capsys, command):
    """The benchmark times ingest by wrapping ``cli.ingest_csv``, and its
    set-up child calls that name: both reach the ingest module's function,
    and each command reads its file through it exactly once."""
    assert cli.ingest_csv is ingest.ingest_csv
    path = planted_csv(tmp_path)
    calls = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return ingest.ingest_csv(*args, **kwargs)

    monkeypatch.setattr(cli, "ingest_csv", recorder)
    code, out = run_cli(capsys, [command, "--input", path, "--predictors", "a,b,c,e,f",
                                 "--responders", "y", "--k", "2"])
    assert code == 0 and json.loads(out)["d"] == 40
    assert calls == [((path,), {})]


# ---------------------------------------------------------------------------
# column specs
# ---------------------------------------------------------------------------

def test_column_spec_names_indices_ranges():
    names = ["a", "b", "c", "d", "y"]
    assert cli.parse_column_spec("a,c", names, 5, "t") == [0, 2]
    assert cli.parse_column_spec("0,3", names, 5, "t") == [0, 3]
    assert cli.parse_column_spec("1-3", names, 5, "t") == [1, 2, 3]
    assert cli.parse_column_spec("y,0-1", names, 5, "t") == [4, 0, 1]


def test_column_spec_errors():
    names = ["a", "b", "c"]
    with pytest.raises(ValueError):
        cli.parse_column_spec("zz", names, 3, "t")
    with pytest.raises(ValueError):
        cli.parse_column_spec("a", None, 3, "t")  # names need a header
    with pytest.raises(ValueError):
        cli.parse_column_spec("0,0", names, 3, "t")
    with pytest.raises(ValueError):
        cli.parse_column_spec("5", names, 3, "t")
    with pytest.raises(ValueError):
        cli.parse_column_spec(",", names, 3, "t")
    # a reversed range is an error naming the token, not silently empty
    for spec in ("0,2-1", "2-1"):
        with pytest.raises(ValueError, match="'2-1'"):
            cli.parse_column_spec(spec, names, 3, "t")


@pytest.mark.parametrize("flag", ["--predictors", "--responders"])
@pytest.mark.parametrize("spec, message", [
    ("0-999999999999", "column index 3 out of range 0..2"),
    ("0-3", "column index 3 out of range 0..2"),
    ("5-9", "column index 5 out of range 0..2"),
    ("0-5,zzz", "cannot resolve 'zzz'"),
    ("²", "cannot resolve '²'"),
    ("0-²", "cannot resolve '0-²'"),
])
def test_a_range_is_checked_before_it_is_expanded(tmp_path, capsys, flag, spec, message):
    """A range ran to its end before any index was compared with p, so a
    huge one ended in a MemoryError traceback. And ``str.isdigit`` let
    '²' through to ``int``, whose error named no flag."""
    path = write_csv(tmp_path, "1,2,3\n4,5,7\n2,1,0\n")
    flags = {"--predictors": "0", "--responders": "2", flag: spec}
    code = cli.main(["select", "--input", path, "--predictors", flags["--predictors"],
                     "--responders", flags["--responders"], "--k", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}: {message}")


@pytest.mark.parametrize("table, message", [
    ("a,b,y\n1,2,3\n4,5,7\n2,1,0\n", "cannot resolve '{}'"),
    ("1,2,3\n4,5,7\n2,1,0\n", "cannot resolve '{}' (no header row, so only indices work)"),
], ids=["header", "no-header"])
@pytest.mark.parametrize("spec", ["zz", "²"])
def test_an_unresolved_spec_is_one_exact_line(tmp_path, capsys, table, message, spec):
    """The whole message, to the end of its line: with a header it ended
    in a blank, the space before a no-header hint that was empty there."""
    path = write_csv(tmp_path, table)
    code = cli.main(["select", "--input", path, "--predictors", spec,
                     "--responders", "2", "--k", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: --predictors: {message.format(spec)}\n"


@pytest.mark.parametrize("cmd", ["select", "verify"])
@pytest.mark.parametrize("given", [[], ["--d", "50", "--n", "4"], ["--predictors", "0"]])
def test_an_instance_needs_a_file_or_its_whole_shape(capsys, cmd, given):
    """Without --input, a synthetic instance needs all of --d, --n and --m."""
    code = cli.main([cmd, *given, "--k", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: either --input or all of --d/--n/--m are required\n"


def test_duplicate_label_in_a_spec_is_an_error(tmp_path, capsys):
    """With the header a,a,c,y, ``--predictors a,c`` silently used the
    first 'a' (column 0), and ``1,c`` reported column 1 under the same
    label: the report could not say which column won. Naming a duplicated
    label now exits 2 and names its columns; indices still resolve, and
    duplicate labels that no spec names still load."""
    path = write_csv(tmp_path, "a,a,c,y\n1,2,3,4\n4,1,6,7\n2,8,1,0\n5,3,3,1\n")
    code = cli.main(["select", "--input", path, "--predictors", "a,c",
                     "--responders", "y", "--k", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "'a' labels columns [0, 1]" in err
    code, out = run_cli(capsys, ["select", "--input", path, "--predictors", "1,c",
                                 "--responders", "y", "--k", "1"])
    assert code == 0
    assert json.loads(out)["n"] == 2
    assert cli.parse_column_spec("0-1,c", ["a", "a", "c", "y"], 4, "t") == [0, 1, 2]


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_select_json_finds_planted_subset(tmp_path, capsys):
    path = planted_csv(tmp_path)
    code, out = run_cli(capsys, [
        "select", "--input", path, "--predictors", "a,b,c,e,f",
        "--responders", "y", "--k", "2",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 2
    assert report["command"] == "select"
    assert "threads" not in report
    rec = report["records"][0]
    assert rec["subset"] == ["a", "c"]
    assert rec["responder"] == "y"
    assert 0.0 < rec["mse"] < 0.01
    assert rec["r_squared"] > 0.99
    assert rec["beta0"] == pytest.approx(0.0, abs=0.05)
    assert rec["betas"][0] == pytest.approx(2.0, abs=0.05)
    assert rec["betas"][1] == pytest.approx(-1.5, abs=0.05)


def test_select_sweep_reports_every_k(tmp_path, capsys):
    path = planted_csv(tmp_path)
    code, out = run_cli(capsys, [
        "select", "--input", path, "--predictors", "0-4",
        "--responders", "5", "--k", "3", "--sweep",
    ])
    assert code == 0
    report = json.loads(out)
    assert [r["k"] for r in report["records"]] == [1, 2, 3]
    assert report["records"][1]["subset"] == ["a", "c"]
    mses = [r["mse"] for r in report["records"]]
    assert mses[0] >= mses[1] >= mses[2]


def test_select_csv_and_text_formats(tmp_path, capsys):
    path = planted_csv(tmp_path)
    base = ["select", "--input", path, "--predictors", "0-4",
            "--responders", "5", "--k", "2"]
    code, out = run_cli(capsys, base + ["--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k,responder,subset,")
    assert "a;c" in lines[1]
    code, out = run_cli(capsys, base + ["--format", "text"])
    assert code == 0
    assert "responder y" in out and "[a, c]" in out


def test_select_synthetic_instance(capsys):
    code, out = run_cli(capsys, [
        "select", "--d", "30", "--n", "5", "--m", "2", "--seed", "7", "--k", "2",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["d"] == 30 and report["n"] == 5 and report["m"] == 2
    assert len(report["records"]) == 2
    assert report["records"][0]["subsets_evaluated"] == 10


def strip_wall_time(text):
    return "\n".join(l for l in text.splitlines() if "wall_time_s" not in l)


def test_select_output_deterministic_across_runs(tmp_path, capsys):
    path = planted_csv(tmp_path, seed=11)
    base = ["select", "--input", path, "--predictors", "0-4",
            "--responders", "5", "--k", "2"]
    outs = []
    for extra in ([], [], ["--method", "algorithm1"]):
        code, out = run_cli(capsys, base + extra)
        assert code == 0
        outs.append(out)
    # same invocation twice: byte-identical apart from the wall clock
    assert strip_wall_time(outs[0]) == strip_wall_time(outs[1])
    # a different scoring route still lands on the same subset
    a = json.loads(outs[0])
    b = json.loads(outs[2])
    assert a["records"][0]["subset"] == b["records"][0]["subset"]


# ---------------------------------------------------------------------------
# verify / bench / count-ops
# ---------------------------------------------------------------------------

def test_verify_passes_on_clean_instance(tmp_path, capsys):
    path = planted_csv(tmp_path, seed=5)
    code, out = run_cli(capsys, [
        "verify", "--input", path, "--predictors", "0-4",
        "--responders", "5", "--k", "2",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    check = report["checks"][0]
    assert check["subsets_agree"] and check["mse_agree"]
    assert set(check["subsets"]) == {"cond-uncorrelation", "algorithm1",
                                     "hat-a", "hat-b"}


def test_verify_passes_on_responders_in_tiny_units(tmp_path, capsys):
    """Responders scaled by 1e-6 have MSEs near 1e-12, inside the absolute
    tie window, and hat-a/hat-b picked (0, 1, 2) for every responder when
    their windows compared the MSE (exit 10); they compare omega^2 now."""
    x = synthetic_observations(1000, 15, seed=7).values.copy()
    x[:, 10:] *= 1e-6
    path = tmp_path / "tiny.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in x.tolist()))
    code, out = run_cli(capsys, [
        "verify", "--input", str(path), "--predictors", "0-9",
        "--responders", "10-14", "--k", "3",
    ])
    assert code == 0
    assert all(check["subsets_agree"] for check in json.loads(out)["checks"])


def test_verify_failure_exit_code(monkeypatch, capsys):
    def fake(data, names, pred, resp, k, limit):
        return {"schema_version": 2, "command": "verify", "checks": [],
                "pass": False, "k": k, "d": data.d, "n": len(pred),
                "m": len(resp), "methods": list(cli.METHODS)}, False
    monkeypatch.setattr(cli, "run_verify", fake)
    code, out = run_cli(capsys, [
        "verify", "--d", "20", "--n", "4", "--m", "1", "--k", "2",
    ])
    assert code == 10


def _float_rejects(label):
    try:
        float(label.strip())
    except ValueError:
        return True
    return False


_LABEL_BODY = "".join(
    ",".join(repr(float(v)) for v in row) + "\n"
    for row in np.random.default_rng(4).normal(size=(20, 4)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"))
       .filter(_float_rejects)
       .filter(lambda label: label.strip() != "1-3"))  # would name the predictors
@example("a,1")
@example("a\rb")
def test_csv_reports_quote_labels_with_commas(csv_file, label):
    """Any header label reaches its own cell of the select and verify CSV."""
    header = io.StringIO()
    # fully quoted: a writer ending rows in LF leaves a bare CR unquoted
    csv.writer(header, quoting=csv.QUOTE_ALL, lineterminator="\n").writerow(
        [label, "b", "c", "y"])
    path = csv_file(header.getvalue() + _LABEL_BODY)
    for command, column in (("select", 1), ("verify", 0)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, "--input", path, "--predictors", "1-3",
                             "--responders", "0", "--k", "1", "--format", "csv"])
        assert code == 0
        table = list(csv.reader(io.StringIO(out.getvalue(), newline="")))
        assert {len(row) for row in table} == {len(table[0])}
        assert table[1][column] == label.strip()


@pytest.mark.parametrize("command", ["select", "verify", "bench"])
def test_threads_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--d", "20", "--n", "4", "--m", "1", "--k", "2",
                  "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_bench_smoke(capsys):
    code, out = run_cli(capsys, [
        "bench", "--d", "60", "--n", "6", "--k", "2", "--m", "2",
        "--format", "json",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["subsets"] == 15
    assert report["winners_agree"] is True
    assert {t["method"] for t in report["timings"]} == set(cli.METHODS)
    assert all(row["exact_match"] for row in report["counts"])
    assert set(report["speedup_vs_hat_b"]) == set(cli.METHODS)
    ops = {r["method"]: r["adds_measured"] + r["muls_measured"] + r["divs_measured"]
           for r in report["counts"]}
    assert report["op_ratio_vs_hat_b"] == {
        "cond-uncorrelation": ops["hat-b"] / ops["alg2"],
        "algorithm1": ops["hat-b"] / ops["alg1"],
        "hat-a": ops["hat-b"] / ops["hat-a"],
        "hat-b": 1.0,
    }
    assert report["op_ratio_vs_hat_b"]["cond-uncorrelation"] > 1.0
    code, out = run_cli(capsys, [
        "bench", "--d", "60", "--n", "6", "--k", "2", "--m", "2",
        "--format", "csv",
    ])
    assert code == 0
    assert out.splitlines()[0] == "method,wall_s,per_subset_s,op_ratio_vs_hat_b"
    code, out = run_cli(capsys, [
        "bench", "--d", "60", "--n", "6", "--k", "2", "--m", "2",
    ])
    assert code == 0
    assert "op ratio vs hat-b: cond-uncorrelation" in out


def test_count_ops_formats(capsys):
    code, out = run_cli(capsys, ["count-ops", "--k", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("method,k,d,m,")
    assert len(lines) == 1 + 3 * len(opcount.COUNT_METHODS)
    code, out = run_cli(capsys, ["count-ops", "--k", "2", "--m", "2"])
    assert code == 0
    assert "alg2" in out and "hat-b" in out


def test_count_ops_matches_the_golden_table(capsys):
    """The measured and predicted counts are integers, so the table does
    not depend on the platform or the BLAS: any change to a counted
    kernel or a closed form shows up here."""
    code, out = run_cli(capsys, ["count-ops", "--k", "8", "--m", "5", "--d", "30",
                                 "--format", "csv"])
    assert code == 0
    assert out == (pathlib.Path(__file__).parent / "golden" /
                   "count_ops_k8_m5_d30.csv").read_text()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_missing_file(capsys):
    code = cli.main(["select", "--input", "/nonexistent/x.csv",
                     "--predictors", "0", "--responders", "1", "--k", "1"])
    assert code == 2


def test_exit_code_config_error(tmp_path, capsys):
    # --input without column specs
    path = write_csv(tmp_path, "1,2\n3,4\n5,6\n")
    code = cli.main(["select", "--input", path, "--k", "1"])
    assert code == 2
    # a count table over no subset size or no responder count is empty
    for argv, flag in ((["--k", "0"], "--k"), (["--m", "0", "--format", "csv"], "--m"),
                       (["--k", "-2", "--format", "json"], "--k")):
        code = cli.main(["count-ops", *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and flag in err
    # a negative pair limit is a bad flag, not a limit every search exceeds
    for cmd in ("select", "verify", "bench"):
        code = cli.main([cmd, "--d", "60", "--n", "6", "--m", "2", "--k", "2",
                         "--limit", "-1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: --limit must be at least 0, got -1\n"
    # synthetic data needs a seed numpy accepts, 2 rows, a predictor and a
    # responder; the message names the flag, not numpy's complaint
    synthetic = {"--seed": "0", "--d": "60", "--n": "6", "--m": "2"}
    for cmd, flag, value, low in (("select", "--seed", "-3", 0), ("bench", "--seed", "-1", 0),
                                  ("select", "--d", "-5", 2), ("verify", "--d", "1", 2),
                                  ("select", "--n", "0", 1), ("bench", "--m", "0", 1)):
        argv = [a for f, v in {**synthetic, flag: value}.items() for a in (f, v)]
        code = cli.main([cmd, *argv, "--k", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be at least {low}, got {value}\n"
    # with --input the generator's flags are unused, so they are not checked
    code = cli.main(["select", "--input", path, "--predictors", "0", "--responders", "1",
                     "--k", "1", "--seed", "-3", "--d", "-5", "--format", "text"])
    assert code == 0


def test_exit_code_parse(tmp_path, capsys):
    path = write_csv(tmp_path, "a,b\n1,2\nx,4\n")
    code = cli.main(["select", "--input", path, "--predictors", "0",
                     "--responders", "1", "--k", "1"])
    assert code == 3
    # a cell csv.reader refuses is a parse error at its record, not a crash
    for text, row in ((f"a,b,y\n{_LONG_CELL},2,3\n1_000,5,6\n", 2),
                      (f"{_LONG_CELL},2\n3,4\n5,6\n", 1)):
        path = write_csv(tmp_path, text, name=f"long{row}.csv")
        code = cli.main(["select", "--input", path, "--predictors", "0",
                         "--responders", "1", "--k", "1"])
        assert code == 3
        assert f"(row {row})" in capsys.readouterr().err


# a Latin-1 header (its first bad byte at offset 2, row 1), and a bad byte
# in a data cell after a blank line (offset 15; the blank line is not a row)
@pytest.mark.parametrize("raw, offset, row", [
    (b"Gr\xf6\xdfe,y\n1,2\n3,5\n4,4\n", 2, 1),
    (b"a,y\n1,2\n\n3,5\n4,\xe94\n", 15, 4),
], ids=["header", "data-cell"])
@pytest.mark.parametrize("parts", [1, 2, 3])
def test_a_file_that_is_not_utf8_exits_3(tmp_path, capsys, raw, offset, row, parts):
    """It exited 2 (usage) with the decoder's message, whose position
    counts from the decoder's own chunk, and named no row."""
    path = tmp_path / "latin1.csv"
    path.write_bytes(raw)
    with _ranges(parts, part_bytes=1):
        code = cli.main(["select", "--input", str(path), "--predictors", "0",
                         "--responders", "1", "--k", "1"])
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: {path}: byte 0x{raw[offset]:02x} at offset {offset} is not UTF-8"
        f" (row {row})\n")


def test_exit_code_arity(tmp_path, capsys):
    path = write_csv(tmp_path, "a,b\n1,2\n3\n")
    code = cli.main(["select", "--input", path, "--predictors", "0",
                     "--responders", "1", "--k", "1"])
    assert code == 4


def test_exit_code_non_finite(tmp_path, capsys):
    path = write_csv(tmp_path, "a,b\n1,2\n3,nan\n")
    code = cli.main(["select", "--input", path, "--predictors", "0",
                     "--responders", "1", "--k", "1"])
    assert code == 5


def test_exit_code_zero_variance(tmp_path, capsys):
    path = write_csv(tmp_path, "a,b,y\n1,7,2\n2,7,4\n3,7,6\n4,7,9\n")
    code = cli.main(["select", "--input", path, "--predictors", "a,b",
                     "--responders", "y", "--k", "1"])
    assert code == 6


def test_exit_code_invalid_sparsity(capsys):
    code = cli.main(["select", "--d", "20", "--n", "4", "--m", "1", "--k", "5"])
    assert code == 7


def test_exit_code_no_valid_subset(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.normal(size=12)
    rows = ["a,b,y"] + [
        f"{float(v)!r},{float(v)!r},{float(rng.normal())!r}" for v in x
    ]
    path = write_csv(tmp_path, "\n".join(rows) + "\n")
    code = cli.main(["select", "--input", path, "--predictors", "a,b",
                     "--responders", "y", "--k", "2"])
    assert code == 8


def test_exit_code_limit(capsys):
    code = cli.main(["select", "--d", "20", "--n", "8", "--m", "2",
                     "--k", "3", "--limit", "10"])
    assert code == 13


@pytest.mark.parametrize("k, total", [(4, 6195), (5, 21699)])
def test_sweep_limit_caps_every_size_together(capsys, k, total):
    """--limit caps a sweep's pairs over all its sizes, checked before any
    scan: both sweeps below score under 10,000 pairs at each size, and
    k = 4 finished with 12,390 scored when each size was checked alone."""
    argv = ["select", "--d", "60", "--n", "20", "--m", "2", "--k", str(k), "--sweep"]
    assert cli.main(argv + ["--limit", "10000"]) == 13
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {total} subsets of sizes 1..{k} x 2 responders = "
                   f"{2 * total} scored pairs exceeds the limit of 10000; "
                   "raise --limit to proceed\n")
    assert cli.main(argv + ["--limit", str(2 * total)]) == 0
    out, _ = capsys.readouterr()
    assert [r["k"] for r in json.loads(out)["records"]] == sorted(list(range(1, k + 1)) * 2)


@pytest.mark.parametrize("argv, subsets, over, limit", [
    (["verify", "--d", "60", "--n", "10", "--m", "2", "--k", "3"], 120, 300, 960),
    (["bench", "--d", "60", "--n", "8", "--k", "3", "--m", "2"], 56, 120, 448),
])
def test_limit_caps_every_method_together(capsys, argv, subsets, over, limit):
    """verify and bench run all four methods, and --limit caps their pairs
    together, checked before any scan: each method alone scores under
    the lower limit, which verify and bench passed when each method was
    checked alone."""
    assert cli.main(argv + ["--limit", str(over)]) == 13
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {subsets} subsets x 2 responders x 4 methods = {limit} "
                   f"scored pairs exceeds the limit of {over}; raise --limit to proceed\n")
    assert cli.main(argv + ["--limit", str(limit)]) == 0
    capsys.readouterr()


_PAST_N = "subset size k=5 not in 1..4"
_PAST_D = "k=4 exceeds d-1=3; centering makes such fits singular"


@pytest.mark.parametrize("argv, message", [
    (["select", "--d", "60", "--n", "4", "--m", "2", "--k", "6", "--sweep"], _PAST_N),
    (["select", "--d", "4", "--n", "6", "--m", "1", "--k", "5", "--sweep"], _PAST_D),
    (["verify", "--d", "60", "--n", "4", "--m", "2", "--k", "5"], _PAST_N),
    (["verify", "--d", "4", "--n", "6", "--m", "1", "--k", "4"], _PAST_D),
    (["bench", "--d", "60", "--n", "4", "--m", "2", "--k", "5"], _PAST_N),
    (["select", "--d", "60", "--n", "4", "--m", "2", "--k", "0", "--sweep"],
     "subset size k=0 not in 1..4"),
])
def test_sweep_checks_every_size_before_any_scan(monkeypatch, capsys, argv, message):
    """A request past n or d - 1 fails before its first scan, with the
    message of its first bad size: a sweep scored k = 1..4, then exited 7
    and discarded their reports, and a sweep to k = 0 ran no scan and
    crashed on its empty report (exit 1). verify and bench run their four
    methods through the same check; a bench request past d - 1 is refused
    before it, by bench's own least --d of --k + 2."""
    calls = []
    real = cli.select_best
    monkeypatch.setattr(cli, "select_best",
                        lambda *args, **kwargs: calls.append(args[3]) or real(*args, **kwargs))
    assert cli.main(argv) == 7
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert calls == []


def test_refused_bench_draws_no_instance(monkeypatch, capsys):
    """bench draws its synthetic table only once its request passes, so a
    refused request at d = 10**12 exits with its own message."""
    monkeypatch.setattr(cli, "synthetic_observations",
                        lambda *args, **kwargs: pytest.fail("drew a synthetic table"))
    for n, code in (("6", 7), ("60", 13)):
        assert cli.main(["bench", "--d", str(10**12), "--n", n, "--k", "7", "--m", "1"]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("command", ["select", "verify"])
def test_refused_select_and_verify_draw_no_instance(monkeypatch, capsys, command):
    """select and verify, like bench, draw their synthetic table only once
    the request passes: at d = 10**12 a size past n exited 1 with numpy's
    allocation error ("Unable to allocate 36.4 TiB") before the check ran."""
    monkeypatch.setattr(cli, "synthetic_observations",
                        lambda *args, **kwargs: pytest.fail("drew a synthetic table"))
    assert cli.main([command, "--d", str(10**12), "--n", "4", "--m", "1", "--k", "5"]) == 7
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {_PAST_N}\n"


def test_count_ops_refuses_too_few_rows_before_any_count(monkeypatch, capsys):
    """count-ops needs --d of at least --k + 2 for every fit it counts:
    ``--k 60 --d 60`` counted k = 1..58 for seconds, then exited 2."""
    calls = []
    monkeypatch.setattr(opcount, "measure_counts", lambda *args, **kwargs: calls.append(args))
    for argv, least in ((["--k", "60", "--d", "60"], 62), (["--k", "3", "--d", "4"], 5)):
        assert cli.main(["count-ops", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --d must be at least {least}, got {argv[-1]}\n"
    assert calls == []


def test_bench_refuses_too_few_rows_before_any_scan(monkeypatch, capsys):
    """bench counts operations at d rows as count-ops does, so it needs
    --d of at least --k + 2 too: ``--d 3 --k 2`` ran all four scans, then
    exited 2 from the count table, and ``--d 5 --k 4`` exited 7."""
    monkeypatch.setattr(cli, "select_best",
                        lambda *args, **kwargs: pytest.fail("ran a scan"))
    for d, n, k, least in (("3", "2", "2", 4), ("5", "2", "4", 6)):
        assert cli.main(["bench", "--d", d, "--n", n, "--k", k, "--m", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --d must be at least {least}, got {d}\n"


def test_exit_code_map_covers_remaining_errors():
    assert cli.exit_code_for(SingularMatrixError(0, 0.0)) == 9
    assert cli.exit_code_for(VerificationFailure("x")) == 10
    assert cli.exit_code_for(InternalNumericError("x")) == 11
    assert cli.exit_code_for(UnknownMethodError("x")) == 12
    assert cli.exit_code_for(RuntimeError("x")) == 2
    # subclasses resolve before their parents
    assert cli.exit_code_for(NonFiniteValueError("x")) == 5
    assert cli.exit_code_for(ArityMismatchError("x")) == 4
    assert cli.exit_code_for(ParseError("x")) == 3


def test_every_error_class_declares_its_own_distinct_exit_code():
    classes, todo = [], [BestSubsetError]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    assert len(classes) == 12
    for cls in classes:
        assert "exit_code" in vars(cls), cls.__name__
    codes = [cls.exit_code for cls in classes]
    assert len(set(codes)) == len(codes)
    assert 0 not in codes
    assert cli.exit_code_for(BestSubsetError("x")) == 2
    for exc in (ValueError("x"), OSError("x"), RuntimeError("x")):
        assert cli.exit_code_for(exc) == 2


# ---------------------------------------------------------------------------
# program entry
# ---------------------------------------------------------------------------

def test_a_closed_stdout_is_one_error_line(monkeypatch, capsys):
    """With stdout closed (``>&-``) the report's write raised an
    AttributeError traceback and exited 1."""
    monkeypatch.setattr(sys, "stdout", None)
    code = cli.main(["select", "--d", "60", "--n", "6", "--m", "2", "--k", "2"])
    assert code == 2
    assert capsys.readouterr().err == "error: stdout is closed\n"


def _child(argv, prelude="", **kwargs):
    """Run one command through the program entry in a fresh interpreter:
    ``python -m bestsubset.cli ARGV``, or with ``prelude``, Python code run
    first, ``cli.run(ARGV)`` after it."""
    src = str(pathlib.Path(cli.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.update(kwargs.pop("env", {}))
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    if prelude:
        code = f"import sys\nfrom bestsubset import cli\n{prelude}\nsys.exit(cli.run({argv!r}))"
        cmd = [sys.executable, "-c", code]
    else:
        cmd = [sys.executable, "-m", "bestsubset.cli", *argv]
    return subprocess.run(cmd, env=env, **kwargs)


def _masked(out):
    return re.sub(r'(wall_time_s"?(: |=))[-+.\de]+', r"\1*", out)


# run_verify answers a failed check, as test_verify_failure_exit_code's
# fake does, in the child and in process alike
_FAILED_VERIFY = (
    "cli.run_verify = lambda data, names, pred, resp, k, limit: ({'checks': [], "
    "'pass': False, 'k': k, 'd': data.d, 'n': len(pred), 'm': len(resp)}, False)")

_MANY = ["--d", "200", "--n", "20", "--m", "2000", "--k", "2"]


@pytest.mark.parametrize("argv, prelude, status", [
    (["select", *_MANY, "--format", "json"], "", 0),
    (["select", *_MANY, "--format", "csv"], "", 0),
    (["select", *_MANY, "--format", "text"], "", 0),
    (["verify", "--d", "200", "--n", "8", "--m", "3", "--k", "2"], "", 0),
    (["count-ops", "--k", "3", "--m", "2", "--format", "csv"], "", 0),
    (["select", "--d", "60", "--n", "6", "--m", "2", "--k", "2", "--limit", "-1"], "", 2),
    (["select", "--input", "{unparsable}", "--predictors", "0", "--responders", "1",
      "--k", "1"], "", 3),
    (["select", "--d", "20", "--n", "4", "--m", "1", "--k", "5"], "", 7),
    (["verify", "--d", "20", "--n", "4", "--m", "1", "--k", "2"], _FAILED_VERIFY, 10),
], ids=["select-json", "select-csv", "select-text", "verify", "count-ops",
        "exit-2", "exit-3", "exit-7", "exit-10"])
def test_the_program_entry_reports_as_main_does(tmp_path, monkeypatch, capsys,
                                               argv, prelude, status):
    """``python -m bestsubset.cli`` exits through ``cli.run``, which freezes
    the collector after the report: the report arrives whole, even past a
    pipe buffer (select at m = 2000), with the status and bytes of
    in-process ``cli.main`` but for the wall time."""
    unparsable = write_csv(tmp_path, "a,b\n1,2\nx,4\n")
    argv = [a.format(unparsable=unparsable) for a in argv]
    child = _child(argv, prelude)
    if prelude:
        monkeypatch.setattr(cli, "run_verify", cli.run_verify)  # restored after
        exec(prelude, {"cli": cli})
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (child.returncode, code) == (status, status)
    assert _masked(child.stdout.decode()) == _masked(out)
    assert child.stderr.decode() == err
    if argv[:1] == ["select"] and status == 0:
        assert len(child.stdout) > 65536


def test_the_program_entry_still_flushes_and_runs_atexit():
    """Only the collections of shutdown are skipped: atexit handlers run,
    and a buffered report that cannot be flushed still exits 120."""
    prelude = "import atexit\natexit.register(lambda: print('atexit ran', file=sys.stderr))"
    argv = ["select", "--d", "60", "--n", "6", "--m", "2", "--k", "2"]
    child = _child(argv, prelude)
    assert child.returncode == 0 and child.stderr == b"atexit ran\n"
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "w") as full:
        child = _child(argv, prelude, stdout=full, env={"PYTHONUNBUFFERED": ""})
    assert child.returncode == 120
    assert b"atexit ran" in child.stderr
    assert b"No space left on device" in child.stderr


def test_main_leaves_the_collector_as_it_found_it(capsys):
    """Tests, the benchmark's traced commands and library callers run
    ``main`` in process; only ``run`` freezes."""
    before = gc.isenabled(), gc.get_freeze_count()
    for argv in (["select", "--d", "60", "--n", "6", "--m", "2", "--k", "2"],
                 ["select", "--d", "20", "--n", "4", "--m", "1", "--k", "5"],
                 ["count-ops", "--k", "2"]):
        cli.main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    capsys.readouterr()


def test_run_freezes_the_collector_after_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(gc.get_freeze_count()) or 7)
    try:
        assert cli.run(["select"]) == 7
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert calls == [0]
