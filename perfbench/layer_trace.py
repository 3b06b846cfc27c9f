"""Run one `abcmax` command in this process and print its accounting as JSON.

    PYTHONPATH=src python3 perfbench/layer_trace.py [--trace] verify all --n-range 4..8 --jobs 1

The CLI's report, which it prints on stdout, is captured and returned in the
JSON line together with the exit code, the wall time of `abcmax.cli.main`
and the CPU time of this process and of the worker processes it reaped.

With --trace, every layer entry point that `abcmax.verifier` imports is
first replaced, in that module only, by a wrapper that counts calls and
wall time; generators are timed per item.  Calls made inside forked pool
workers run the wrappers too, but their counts stay in the workers: the
trace covers the parent process only.  An entry point that the verifier no
longer imports is listed under `missing`.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

LAYERS = {
    "enumeration": (
        "connected_graph_list", "connected_graphs", "expand_seed", "subtree_seeds",
        "are_isomorphic",
    ),
    "connectivity": ("edge_connectivity", "vertex_connectivity"),
    "coloring": ("is_k_colorable", "chromatic_number"),
    "invariants": ("abc_index", "abc_index_decimal"),
    "graphs": ("encode_graph6", "decode_graph6"),
}
# entry points that produce graphs: lists count their length, streams per item
GRAPH_LISTS = ("connected_graph_list", "subtree_seeds")
GRAPH_STREAMS = ("connected_graphs", "expand_seed")


class Record:
    __slots__ = ("calls", "s", "graphs")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.graphs = 0


def _wrap_call(fn, rec: Record):
    def wrapped(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.s += perf_counter() - t0
            rec.calls += 1
    return wrapped


def _wrap_list(fn, rec: Record):
    # an lru_cache hit hands back graphs built earlier; count only fresh builds
    cache_info = getattr(fn, "cache_info", None)

    def wrapped(*args, **kwargs):
        misses = cache_info().misses if cache_info else None
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        rec.s += perf_counter() - t0
        rec.calls += 1
        if cache_info is None or cache_info().misses != misses:
            rec.graphs += len(out)
        return out
    return wrapped


def _wrap_stream(fn, rec: Record):
    def wrapped(*args, **kwargs):
        rec.calls += 1
        it = iter(fn(*args, **kwargs))
        while True:
            t0 = perf_counter()
            try:
                g = next(it)
            except StopIteration:
                rec.s += perf_counter() - t0
                return
            rec.s += perf_counter() - t0
            rec.graphs += 1
            yield g
    return wrapped


def install(module) -> tuple[dict[str, Record], list[str]]:
    """Wrap the entry points `module` imports; return the records and the
    names of the layer entry points it no longer has."""
    records, missing = {}, []
    for layer, names in LAYERS.items():
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                missing.append(f"{layer}.{name}")
                continue
            rec = records[name] = Record()
            wrap = _wrap_list if name in GRAPH_LISTS else \
                _wrap_stream if name in GRAPH_STREAMS else _wrap_call
            setattr(module, name, wrap(fn, rec))
    return records, missing


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    trace = bool(argv) and argv[0] == "--trace"
    cli_args = argv[1:] if trace else argv
    import abcmax.cli
    import abcmax.verifier

    records, missing = install(abcmax.verifier) if trace else ({}, [])
    report = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(report):
        code = abcmax.cli.main(cli_args)
    wall = perf_counter() - t0
    print(json.dumps({
        "exit_code": code,
        "report": report.getvalue(),
        "wall_s": wall,
        "parent_cpu_s": _cpu(resource.getrusage(resource.RUSAGE_SELF)),
        "worker_cpu_s": _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)),
        "trace": {name: {"calls": r.calls, "s": r.s, "graphs": r.graphs}
                  for name, r in records.items()},
        "missing": missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
