"""Span recorder, and the traced CLI child that uses it.

A span is one call across a module boundary: name, start, end, the span
that caused it and the id of the command it belongs to. Spans are kept in
memory and written out once, when the command ends.

Run as a script, this file is one traced CLI command::

    python perfbench/spans.py SPANS.json RUN_ID select --input data.csv ...

It installs span wrappers around the public functions each module hands
to the next, then calls ``bestsubset.cli.main`` with the remaining
arguments, so the command follows the same path as
``python -m bestsubset.cli`` and prints the same report.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


class SpanRecorder:
    """Spans of one traced command, kept in memory until ``write``."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "run": self.run_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, counts=None):
        """Replace ``module.attr`` by a version that runs inside a span.

        ``counts(args, kwargs, result)`` may return attributes to store
        on the span, so counts are taken where the work happens.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counts is not None:
                    rec["attrs"].update(counts(args, kwargs, result))
                return result

        setattr(module, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def own_seconds(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Seconds each span spent outside its child spans, by (run, id).

    Spans of one run nest strictly (one thread), so the children of a
    span cover disjoint parts of its interval.
    """
    own = {(s["run"], s["id"]): s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[(s["run"], s["parent"])] -= s["end"] - s["start"]
    return own


def _select_counts(args, kwargs, results):
    k = args[3] if len(args) > 3 else kwargs["k"]
    method = kwargs.get("method", args[4] if len(args) > 4 else "cond-uncorrelation")
    first = results[0]
    return {"k": k, "method": method,
            "skipped": first.skipped_singular,
            "subsets": first.skipped_singular + first.subsets_evaluated}


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    rec = SpanRecorder(run_id)
    with rec.span("cli.import"):
        from bestsubset import cli, hat, search
    rec.wrap(cli, "ingest_csv", "cli.ingest")
    rec.wrap(cli, "render_json", "cli.render")
    rec.wrap(cli, "select_best", "search.select", counts=_select_counts)
    rec.wrap(search, "build_correlation_model", "stats.model")
    rec.wrap(search, "coefficients_from_correlations", "kernels.coeff")
    rec.wrap(hat, "gram_products", "hat.gram")
    rec.wrap(hat, "fit_single", "hat.fit_single")
    try:
        with rec.span("cli.main"):
            code = cli.main(cli_argv)
            sys.stdout.flush()
    finally:
        rec.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
