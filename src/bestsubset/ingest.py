"""CSV ingest: one table of observations, with its column names.

:func:`ingest_csv` is the one entry point. It reads the first non-blank
record by ``csv.reader``, as the reference reads it, over the file's lines
pulled one at a time, and that record ends after the bytes of the lines
the reader pulled (see :func:`_first_record`). The data rows are read by
numpy's C parser (``np.loadtxt``), streamed from the file. Every cell it
parses, ``float`` parses to the same double, so a file it accepts gets the
reference parser's values.

A file of at least twice ``PARSE_PART_BYTES`` is cut into byte ranges, at
most one per available CPU and one per ``PARSE_PART_BYTES``, each ending
at a line end after the first record (see :func:`_cuts`); a file with no
line end after its first record is read as one range. Every range is
read by ``np.loadtxt`` as UTF-8: the first here, from the byte after the
first record, or after a leading BOM when that record is data; each later
one in a forked child, whose rows are read into the same array, grown in
place, so the table is still held once.

Every failure has one policy: the whole file is handed to the per-cell
reference parser, :func:`_ingest_reference`, whenever the fast path cannot
vouch for the result. That is when the file holds fewer than 2 data rows
or rows of the wrong width, numpy refuses a cell (``1_000``, non-ASCII
digits, quotes, empty cells, ragged rows), a value is non-finite, a range
fails, here or in a child, or the OS refuses a pipe or a process. The
reference parser then produces the result, or the error with its message,
position and exit code, exactly as it would alone. One file reads only by
the fast path: a data cell longer than ``csv.field_size_limit()``
characters, which ``csv.reader`` refuses (the reference raises ParseError
there).
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import signal
import warnings

import numpy as np

from .errors import ArityMismatchError, NonFiniteValueError, ParseError
from .stats import ObservationMatrix

# CSV ingest parses a file in line-aligned byte ranges of at least this
# many bytes, one forked parser per available CPU (see _ingest_fast)
PARSE_PART_BYTES = 1 << 20


def ingest_csv(path: str):
    """Read an RFC-4180-style CSV into an ObservationMatrix.

    Each cell is a number in Python ``float`` syntax, surrounding
    whitespace allowed; fully blank lines and a leading UTF-8 byte-order
    mark are ignored. The first non-blank record is a header supplying
    column names if any of its cells fails to parse as a number, even
    beside a ``nan``; otherwise every record is data (see :func:`_header`).
    Returns (matrix, names) with names None when there was no header.
    Row/column positions in errors are 1-based, count the header row and
    skip blank lines.

    How the file is parsed, and when the reference parser takes over, is
    stated once in this module's docstring.
    """
    fast = _ingest_fast(path)
    return fast if fast is not None else _ingest_reference(path)


def _parse_cell(cell, rownum, colnum):
    """One cell as a finite float, or the ParseError that locates it."""
    text = cell.strip()
    if not text:
        raise ParseError("empty cell", row=rownum, column=colnum)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse {cell!r} as a number",
                         row=rownum, column=colnum) from None
    if not math.isfinite(value):
        raise NonFiniteValueError(f"non-finite value {cell!r}",
                                  row=rownum, column=colnum)
    return value


def _header(record):
    """The first record's names, or None when it is data.

    The record is a header if any of its cells does not parse, so a
    name may read ``nan`` or ``inf``. Only when every cell parses is the
    NonFiniteValueError of its first non-finite cell raised.
    """
    try:
        list(map(float, record))  # fails where _parse_cell's float(text) fails
    except ValueError:
        return [c.strip() for c in record]
    for j, cell in enumerate(record):
        _parse_cell(cell, 1, j + 1)
    return None


def _cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def _first_record(fh, start):
    """The first non-blank record ``csv.reader`` reads from the text
    ``fh``, which begins at byte ``start``, or None; and the offset of the
    byte after it: ``start`` plus the encoded lengths of the lines the
    reader pulled (after a CR, ``fh.tell()`` is a decoder cookie, not an
    offset)."""
    def lines():
        nonlocal start
        for line in fh:
            start += len(line.encode())
            yield line
    return next(filter(None, csv.reader(lines())), None), start


def _cuts(fh, start, size):
    """Offsets ``[start, c1, ..., size]`` cutting the file's bytes into
    ranges of about equal size, at most one per available CPU and one per
    ``PARSE_PART_BYTES``: each cut lies just after a line end (a line
    feed, or a carriage return no line feed follows) at or after byte
    ``start``, which ends the first record."""
    parts = min(_cpus(), size // PARSE_PART_BYTES)
    cuts = [start]
    for i in range(1, parts):
        pos = max(size * i // parts - 1, start)
        fh.seek(pos)
        while (chunk := fh.read(1 << 16)) and not (end := re.search(rb"\r\n?|\n", chunk)):
            pos += len(chunk)  # a line longer than the chunk
        if not chunk:
            break
        cut = pos + end.end()
        if cut - pos == len(chunk) and chunk.endswith(b"\r") and fh.read(1) == b"\n":
            cut += 1  # a CR LF across the chunk's edge
        if cuts[-1] < cut < size:
            cuts.append(cut)
    return cuts + [size]


class _Range(io.FileIO):
    """A file read from byte ``start`` as if it ended at byte ``end``."""

    def __init__(self, path, start, end):
        super().__init__(path, "rb")
        self.seek(start)
        self._end = end

    def readinto(self, buf):
        return super().readinto(memoryview(buf)[:max(self._end - self.tell(), 0)])


def _open_range(path, start, end):
    """Bytes ``[start, end)`` of ``path`` as UTF-8 text, as ``open`` reads it."""
    return io.TextIOWrapper(io.BufferedReader(_Range(path, start, end)),
                            encoding="utf-8", newline="")


def _loadtxt(fh):
    """The rows numpy's C parser reads from ``fh``, as a 2-D array."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows
        return np.loadtxt(fh, dtype=np.float64, delimiter=",",
                          comments=None, ndmin=2)


def _fork_parser(path, start, end):
    """A child reading bytes ``[start, end)``, which begin a line and lie
    after the first record, with numpy's C parser, as ``(pid, buffered
    read end of its pipe)``: it writes ``(rows, width)`` and then the
    rows' float64 bytes. Where ``os.pipe`` or ``os.fork`` raises
    OSError, what was opened is closed and the error propagates."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork in a process with threads (such
            # as BLAS's); the child only parses, writes and exits
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with _open_range(path, start, end) as fh:
                values = _loadtxt(fh)
            with open(w, "wb") as out:
                out.write(np.array(values.shape, dtype=np.int64).tobytes())
                out.write(values.data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _append(values, width, pipe):
    """``values`` grown in place by the rows a child writes to ``pipe``,
    or ValueError when it ended early or its rows are not ``width`` wide."""
    head = np.empty(2, dtype=np.int64)
    if pipe.readinto(head) < head.nbytes:
        raise ValueError("a parser ended early")
    rows, cols = head.tolist()
    if rows and cols != width:
        raise ValueError("a range has rows of another width")
    start = values.shape[0]
    if rows:
        # realloc (mremap for a large table), so the table is held once;
        # no view of ``values`` exists yet
        values.resize((start + rows, width), refcheck=False)
        if pipe.readinto(values[start:]) < values[start:].nbytes:
            raise ValueError("a parser ended early")
    return values


def _ingest_fast(path: str):
    """``ingest_csv``'s result via ``np.loadtxt``, or None to hand over.

    The first byte range is read here; every later one by a forked
    child, whose rows are appended after it (see :func:`_cuts`). Every
    child is killed, if still running, and reaped here, whatever the
    outcome: a child succeeded when the parent read all its bytes."""
    children = {}  # pid -> buffered read end of its pipe, in range order
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            start = 3 if fh.read(3) == b"\xef\xbb\xbf" else 0  # after a BOM
            with _open_range(path, start, size) as text:
                first, end = _first_record(text, start)
            if first is None:
                return None
            try:
                names = _header(first)
            except NonFiniteValueError:
                return None
            cuts = _cuts(fh, end, size)
        for begin, stop in zip(cuts[1:-1], cuts[2:]):
            try:
                pid, pipe = _fork_parser(path, begin, stop)
            except OSError:  # no pipe or process to be had
                return None
            children[pid] = pipe
        # numpy reads the first record too when it is data
        with _open_range(path, start if names is None else end, cuts[1]) as fh:
            values = _loadtxt(fh)
        if values.shape[0] and values.shape[1] != len(first):
            return None
        for pipe in children.values():
            values = _append(values, len(first), pipe)
    except (ValueError, csv.Error):  # a cell numpy refuses, undecodable text
        return None
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    try:
        return ObservationMatrix._adopt(values), names
    except ValueError:  # fewer than 2 rows, or a non-finite value
        return None


def _records(path, fh):
    """The non-blank records ``csv.reader`` reads from ``fh``; where it
    stops, the ParseError of the row it stopped in."""
    raw = []
    try:
        for row in filter(None, csv.reader(fh)):  # skip fully blank lines
            raw.append(row)
    except csv.Error as exc:  # e.g. a cell beyond csv.field_size_limit()
        raise ParseError(f"{path}: {exc}", row=len(raw) + 1) from None
    return raw


def _ingest_reference(path: str):
    """``ingest_csv`` one cell at a time through ``float``: the reference.

    A file that is not UTF-8 raises ParseError at its first invalid byte,
    named by its absolute offset (the decoder's position counts from its
    own chunk) and by its row: the records before the byte, then its own,
    which a stand-in for the byte keeps non-blank."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            raw = _records(path, fh)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            start = exc.start
        before = io.StringIO(data[:start].decode("utf-8-sig") + "?", newline="")
        raise ParseError(f"{path}: byte 0x{data[start]:02x} at offset {start} is not UTF-8",
                         row=len(_records(path, before))) from None
    if not raw:
        raise ParseError(f"{path}: file contains no data")

    names = _header(raw[0])
    start = 0 if names is None else 1
    width = len(raw[start]) if start < len(raw) else len(raw[0])
    rows = []
    for i in range(start, len(raw)):
        row = raw[i]
        if len(row) != width:
            raise ArityMismatchError(
                f"expected {width} cells, found {len(row)}", row=i + 1)
        rows.append([_parse_cell(c, i + 1, j + 1) for j, c in enumerate(row)])
    if names is not None and len(names) != width:
        raise ArityMismatchError(
            f"header has {len(names)} names but rows have {width} cells", row=1)
    if len(rows) < 2:
        raise ParseError(f"{path}: need at least 2 data rows, found {len(rows)}")
    try:
        return ObservationMatrix(rows), names
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
