"""Correctness check for one `abcmax verify` report against a golden file.

A golden file holds the `cells` a campaign produced, minus the seed-driven
monotonicity cell, plus the expected `graphs_scanned`.  Graphs are compared
by `canonical_form`, computed on both sides at check time, so a change of
which isomorphic representative the enumerator emits does not count as a
failure; floats are compared with a tight relative tolerance.

Write a golden file from a trusted report:

    PYTHONPATH=src python3 perfbench/check.py REPORT.json > perfbench/golden/NAME.json
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-9
ABS_TOL = 1e-12
SEEDED_CAMPAIGNS = ("monotonicity",)


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def golden_from_report(report: dict) -> dict:
    cells = [c for c in report["cells"] if c.get("campaign") not in SEEDED_CAMPAIGNS]
    return {"graphs_scanned": report["totals"]["graphs_scanned"], "cells": cells}


def _cell_key(cell: dict) -> tuple:
    return (cell.get("campaign"), cell.get("kind"), cell.get("n"), cell.get("value"))


class Checker:
    """Compares reports to golden cells; canonical forms are memoised."""

    def __init__(self):
        from abcmax import canonical_form, decode_graph6

        self._canonical_form = canonical_form
        self._decode = decode_graph6
        self._memo: dict[str, str] = {}

    def canon(self, g6: str) -> str:
        if g6 not in self._memo:
            self._memo[g6] = self._canonical_form(self._decode(g6)).hex()
        return self._memo[g6]

    def normalise(self, cell: dict) -> dict:
        out = dict(cell)
        if out.get("maximizers") is not None:
            out["maximizers"] = sorted(self.canon(s) for s in out["maximizers"])
        if out.get("predicted") is not None:
            out["predicted"] = self.canon(out["predicted"])
        if out.get("near_ties") is not None:
            out["near_ties"] = sorted(
                ({**t, "g6": self.canon(t["g6"])} for t in out["near_ties"]),
                key=lambda t: (t["g6"], t["value"]),
            )
        return out

    def problems(self, report: dict, golden: dict, *, jobs: int, seed=None) -> list[str]:
        """Every way `report` differs from `golden`; empty when it is correct."""
        out = []
        scanned = report.get("totals", {}).get("graphs_scanned")
        if scanned != golden["graphs_scanned"]:
            out.append(f"graphs_scanned {scanned} != {golden['graphs_scanned']}")
        params = report.get("parameters", {})
        if params.get("jobs") != jobs:
            out.append(f"parameters.jobs {params.get('jobs')} != {jobs}")
        cells = report.get("cells", [])
        for cell in cells:
            if cell.get("cell_class") == "must-match" and cell.get("matches") is not True:
                out.append(f"must-match failure {_cell_key(cell)}")
        seeded = [c for c in cells if c.get("campaign") in SEEDED_CAMPAIGNS]
        if seed is not None:
            if len(seeded) != 1 or seeded[0].get("seed") != seed or seeded[0].get("violations"):
                out.append(f"monotonicity cell missing, unseeded or violated (seed {seed})")
        elif seeded:
            out.append("unexpected monotonicity cell")
        got = {_cell_key(c): c for c in cells if c.get("campaign") not in SEEDED_CAMPAIGNS}
        want = {_cell_key(c): c for c in golden["cells"]}
        if len(got) != len(cells) - len(seeded):
            out.append("duplicate cell keys")
        for key in sorted(want.keys() - got.keys(), key=repr):
            out.append(f"missing cell {key}")
        for key in sorted(got.keys() - want.keys(), key=repr):
            out.append(f"unexpected cell {key}")
        for key in sorted(want.keys() & got.keys(), key=repr):
            diff = _first_difference(self.normalise(want[key]), self.normalise(got[key]))
            if diff is not None:
                out.append(f"cell {key}: {diff}")
        return out


def _first_difference(want, got, path: str = ""):
    if isinstance(want, float) or isinstance(got, float):
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (want, got))
        if numbers and math.isclose(want, got, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return None
        return f"{path or '.'}: {got!r} != {want!r}"
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return f"{path or '.'}: keys {sorted(got)} != {sorted(want)}"
        for k in sorted(want):
            diff = _first_difference(want[k], got[k], f"{path}.{k}")
            if diff is not None:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return f"{path or '.'}: length {len(got)} != {len(want)}"
        for i, (w, g) in enumerate(zip(want, got)):
            diff = _first_difference(w, g, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    if type(want) is not type(got) or want != got:
        return f"{path or '.'}: {got!r} != {want!r}"
    return None


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: check.py REPORT.json  (prints the golden form on stdout)")
    print(json.dumps(golden_from_report(json.loads(Path(sys.argv[1]).read_text())), indent=1, sort_keys=True))
