"""The benchmark counts a tampered report as a failed campaign.

    python3 -m pytest perfbench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from abcmax import Graph, decode_graph6, encode_graph6  # noqa: E402
from check import load_golden  # noqa: E402
from run import WORKLOADS, Bench  # noqa: E402

SEED = 3


def _report() -> dict:
    """A correct `verify all --n-range 4..8 --jobs 1` report, rebuilt from the golden cells."""
    golden = load_golden("battery-4-8")
    monotonicity = {"campaign": "monotonicity", "cell_class": "must-match", "matches": True,
                    "seed": SEED, "trials": 10000, "violations": []}
    return {
        "campaign": "all",
        "cells": copy.deepcopy(golden["cells"]) + [monotonicity],
        "parameters": {"jobs": 1, "seed": SEED},
        "totals": {"graphs_scanned": golden["graphs_scanned"]},
    }


def _relabel(g6: str) -> str:
    """The same graph with its vertex order reversed."""
    g = decode_graph6(g6)
    n = g.n
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if g.rows[u] >> v & 1:
                rows[n - 1 - u] |= 1 << (n - 1 - v)
    return encode_graph6(Graph(n, tuple(rows)))


def _first(report: dict, pred) -> dict:
    return next(c for c in report["cells"] if pred(c))


def _flip_verdict(r):
    cell = _first(r, lambda c: c.get("verdict") == "confirmed")
    cell["verdict"] = "refuted"


def _drop_maximizer(r):
    _first(r, lambda c: len(c.get("maximizers") or []) == 1)["maximizers"] = []


def _swap_maximizer(r):
    a = _first(r, lambda c: len(c.get("maximizers") or []) == 1)
    b = _first(r, lambda c: len(c.get("maximizers") or []) == 1 and c["maximizers"] != a["maximizers"]
               and c["n"] == a["n"])
    a["maximizers"], b["maximizers"] = b["maximizers"], a["maximizers"]


def _drop_cell(r):
    r["cells"].pop(0)


def _miscount(r):
    r["totals"]["graphs_scanned"] -= 1


def _break_monotonicity(r):
    _first(r, lambda c: c["campaign"] == "monotonicity")["violations"] = [{"gain": 0.0}]


def _nudge_max_value(r):
    _first(r, lambda c: c.get("max_value"))["max_value"] *= 1 + 1e-6


def _bench() -> Bench:
    return Bench(ROOT, SEED)


def test_correct_report_passes():
    bench = _bench()
    assert bench.check(WORKLOADS["battery-4-8"], 0, "", json.dumps(_report())) is not None
    assert (bench.attempted, bench.failed) == (1, 0)


def test_relabelled_maximizers_pass():
    report = _report()
    relabelled = 0
    for cell in report["cells"]:
        if cell.get("maximizers"):
            new = [_relabel(s) for s in cell["maximizers"]]
            relabelled += new != cell["maximizers"]
            cell["maximizers"] = new
    assert relabelled
    bench = _bench()
    assert bench.check(WORKLOADS["battery-4-8"], 0, "", json.dumps(report)) is not None


@pytest.mark.parametrize("tamper", [
    _flip_verdict, _drop_maximizer, _swap_maximizer, _drop_cell, _miscount,
    _break_monotonicity, _nudge_max_value,
])
def test_tampered_report_counts_as_failed(tamper):
    report = _report()
    tamper(report)
    bench = _bench()
    assert bench.check(WORKLOADS["battery-4-8"], 0, "", json.dumps(report)) is None
    assert (bench.attempted, bench.failed) == (1, 1)


def test_nonzero_exit_counts_as_failed():
    bench = _bench()
    assert bench.check(WORKLOADS["battery-4-8"], 1, "boom", json.dumps(_report())) is None
    assert (bench.attempted, bench.failed) == (1, 1)
