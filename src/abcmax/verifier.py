"""Exhaustive extremal campaigns over the connected-graph streams.

Each (n, constraint) cell scans every connected graph of order n satisfying
the constraint, tracks the ABC maximum together with everything within
epsilon of it, re-evaluates the near-tie set at 40 significant decimals, and
only then declares a unique maximizer or a genuine tie.

A scan of order n has one path.  Its tasks are the canonical-parent
subtrees rooted at the cached classes of order min(n, SEED_DEPTH); each
task streams its subtree through every cell of the order and returns one
partial per cell, and the partials are folded into the cells in task order.
Worker count only decides where the tasks run: in this process, or in a
fork pool when jobs > 1 and n > SEED_DEPTH.  The fold is an associative,
commutative reduction, so worker count never changes a result field.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from decimal import Decimal
from multiprocessing import get_context
from typing import Iterable, Optional, Sequence

from . import bounds
from .coloring import chromatic_number, is_k_colorable
from .connectivity import edge_connectivity, vertex_connectivity
from .enumeration import are_isomorphic, check_order, connected_graph_list, expand_seed
from .graphs import (
    Graph,
    add_edge,
    bridge_cliques_graph,
    complete_graph,
    decode_graph6,
    encode_graph6,
    is_connected,
    kn_k_graph,
    turan_graph,
)
from .invariants import abc_index, abc_index_decimal

SCHEMA_VERSION = "1"
DEFAULT_EPSILON = 1e-9
STRICT_GAP_TOL = 1e-12
TIE_DIGITS = 40
TIE_TOL = Decimal("1e-20")
SEED_DEPTH = 7  # order of the subtree roots a scan is split into

CONSTRAINT_KINDS = ("edge_connectivity_eq", "vertex_connectivity_eq", "chromatic_eq", "none")


@dataclass(frozen=True)
class ConstraintSpec:
    kind: str
    value: Optional[int] = None

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "none":
            if self.value is not None:
                raise ValueError("'none' constraint takes no value")
        elif self.kind == "chromatic_eq":
            if self.value is None or self.value < 2:
                raise ValueError(f"chromatic constraint needs value >= 2, got {self.value}")
        elif self.value is None or self.value < 1:
            raise ValueError(f"connectivity constraint needs value >= 1, got {self.value}")


def predicted_graph(n: int, c: ConstraintSpec) -> Optional[Graph]:
    """The family member expected to win the cell, when one is defined."""
    if c.kind == "none":
        return complete_graph(n)
    if c.kind in ("edge_connectivity_eq", "vertex_connectivity_eq"):
        if 1 <= c.value <= n - 2:
            return kn_k_graph(n, c.value)
        if c.value == n - 1:
            return complete_graph(n)
        return None
    if c.kind == "chromatic_eq" and 2 <= c.value <= n:
        return turan_graph(n, c.value)
    return None


def cell_class(n: int, c: ConstraintSpec) -> str:
    """'must-match' where the extremal structure is settled, else 'evidence'."""
    if c.kind == "edge_connectivity_eq":
        if c.value == 1 or c.value == n - 1:
            return "must-match"
        return "must-match" if n >= 6 else "evidence"
    if c.kind == "chromatic_eq":
        if c.value == 2:
            return "must-match"
        return "must-match" if n % c.value == 0 else "evidence"
    return "must-match"


def cell_bound(n: int, c: ConstraintSpec):
    """Closed-form cap for the cell's maximum, where one applies."""
    if c.kind in ("edge_connectivity_eq", "vertex_connectivity_eq"):
        if n >= 6 and 1 <= c.value <= n - 2:
            return "edge_connectivity_bound", bounds.edge_connectivity_bound(n, c.value)
    elif c.kind == "chromatic_eq":
        if c.value == 2:
            return "bipartite_bound", bounds.bipartite_bound(n)
        if n % c.value == 0:
            return "chromatic_bound", bounds.chromatic_bound(n, c.value)
    elif c.kind == "none" and n >= 2:
        return "complete_graph_abc", n * math.sqrt(2 * n - 4) / 2
    return None, None


@dataclass
class ExtremalResult:
    n: int
    constraint: ConstraintSpec
    scanned: int
    max_value: Optional[float]
    maximizers: list[str]
    predicted: Optional[str]
    matches: Optional[bool]
    near_ties: list[dict]
    runner_up_gap: Optional[float]
    cell_class: str
    verdict: Optional[str]
    bound_name: Optional[str]
    bound: Optional[float]
    reverified: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "campaign": _KIND_TO_CAMPAIGN[self.constraint.kind],
            "n": self.n,
            "kind": self.constraint.kind,
            "value": self.constraint.value,
            "cell_class": self.cell_class,
            "scanned": self.scanned,
            "max_value": self.max_value,
            "maximizers": self.maximizers,
            "predicted": self.predicted,
            "matches": self.matches,
            "verdict": self.verdict,
            "near_ties": self.near_ties,
            "runner_up_gap": self.runner_up_gap,
            "bound_name": self.bound_name,
            "bound": self.bound,
            "reverified": self.reverified,
        }


_KIND_TO_CAMPAIGN = {
    "edge_connectivity_eq": "edge-conn",
    "vertex_connectivity_eq": "vertex-conn",
    "chromatic_eq": "chromatic",
    "none": "max",
}


class _Accum:
    """Streaming (max, near-max set, runner-up) reduction for one cell."""

    __slots__ = ("scanned", "best", "cands", "runner_up")

    def __init__(self):
        self.scanned = 0
        self.best: Optional[float] = None
        self.cands: list[tuple[float, str]] = []
        self.runner_up: Optional[float] = None

    def add(self, value: float, g6: str, eps: float) -> None:
        self.scanned += 1
        if self.best is None or value > self.best:
            self.best = value
            kept = []
            for v, s in self.cands:
                if v > value - eps:
                    kept.append((v, s))
                elif self.runner_up is None or v > self.runner_up:
                    self.runner_up = v
            self.cands = kept
            self.cands.append((value, g6))
        elif value > self.best - eps:
            self.cands.append((value, g6))
        elif self.runner_up is None or value > self.runner_up:
            self.runner_up = value

    def merge(self, other: "_Accum", eps: float) -> None:
        """Fold in the partial of a disjoint stream, as if its graphs had been
        added here; its runner-up lies eps below its best, so it stays one."""
        scanned = self.scanned + other.scanned
        for v, s in other.cands:
            self.add(v, s, eps)
        self.scanned = scanned
        if other.runner_up is not None and (self.runner_up is None or other.runner_up > self.runner_up):
            self.runner_up = other.runner_up


def _scan_kernel(graphs: Iterable[Graph], constraints: Sequence[ConstraintSpec], eps: float):
    """Evaluate every constraint cell over a stream; shared per-graph metrics."""
    accums = [_Accum() for _ in constraints]
    edge_cells = [(i, c.value) for i, c in enumerate(constraints) if c.kind == "edge_connectivity_eq"]
    vertex_cells = [(i, c.value) for i, c in enumerate(constraints) if c.kind == "vertex_connectivity_eq"]
    chrom_cells = [(i, c.value) for i, c in enumerate(constraints) if c.kind == "chromatic_eq"]
    none_cells = [i for i, c in enumerate(constraints) if c.kind == "none"]
    chrom_values = sorted({v for _, v in chrom_cells})
    single_chrom = chrom_values[0] if len(chrom_values) == 1 else None
    min_edge_k = min((v for _, v in edge_cells), default=None)
    min_vertex_k = min((v for _, v in vertex_cells), default=None)

    streamed = 0
    for g in graphs:
        streamed += 1
        matched: list[int] = list(none_cells)
        min_deg = min(r.bit_count() for r in g.rows) if (edge_cells or vertex_cells) else 0
        if edge_cells and min_deg >= min_edge_k:
            lam = edge_connectivity(g)
            matched.extend(i for i, k in edge_cells if k == lam)
        if vertex_cells and min_deg >= min_vertex_k:
            kap = vertex_connectivity(g)
            matched.extend(i for i, k in vertex_cells if k == kap)
        if chrom_cells:
            if single_chrom is not None:
                # fixed target colour count: decide rather than compute chi
                c = single_chrom
                if is_k_colorable(g, c) and not is_k_colorable(g, c - 1):
                    matched.extend(i for i, _ in chrom_cells)
            else:
                chi = chromatic_number(g).chi
                matched.extend(i for i, v in chrom_cells if v == chi)
        if matched:
            value = abc_index(g)
            g6 = encode_graph6(g)
            for i in matched:
                accums[i].add(value, g6, eps)
    return accums, streamed


def _scan_subtree(task):
    rows, n, constraints, eps = task
    return _scan_kernel(expand_seed(rows, n), constraints, eps)


def _subtree_partials(tasks: list, jobs: int, pooled: bool):
    """Each task's (partials, streamed), in task order."""
    if not pooled:
        yield from map(_scan_subtree, tasks)
        return
    with get_context("fork").Pool(processes=jobs) as pool:
        yield from pool.imap(_scan_subtree, tasks, chunksize=max(1, len(tasks) // (jobs * 8)))


def _scan_cells(
    n: int,
    constraints: Sequence[ConstraintSpec],
    eps: float,
    jobs: int,
    allow_long: bool,
) -> tuple[list["ExtremalResult"], int]:
    check_order(n, allow_long)
    tasks = [(g.rows, n, constraints, eps) for g in connected_graph_list(min(n, SEED_DEPTH))]
    accums = [_Accum() for _ in constraints]
    streamed = 0
    # fold each subtree's partials in as it arrives rather than holding them all
    for parts, count in _subtree_partials(tasks, jobs, jobs > 1 and n > SEED_DEPTH):
        streamed += count
        for a, p in zip(accums, parts):
            a.merge(p, eps)
    results = [_finalize_cell(n, c, a, eps) for c, a in zip(constraints, accums)]
    return results, streamed


def _reverify(g: Graph, c: ConstraintSpec) -> bool:
    if c.kind == "edge_connectivity_eq":
        return edge_connectivity(g) == c.value
    if c.kind == "vertex_connectivity_eq":
        return vertex_connectivity(g) == c.value
    if c.kind == "chromatic_eq":
        return chromatic_number(g).chi == c.value
    return is_connected(g)


def _finalize_cell(n: int, c: ConstraintSpec, accum: _Accum, eps: float) -> ExtremalResult:
    klass = cell_class(n, c)
    bname, bval = cell_bound(n, c)
    pred = predicted_graph(n, c)
    pred_g6 = encode_graph6(pred) if pred is not None else None
    if accum.scanned == 0:
        return ExtremalResult(
            n, c, 0, None, [], pred_g6, None, [], None, klass,
            None if klass == "must-match" else "vacuous", bname, bval, None,
        )
    decimals = {g6: abc_index_decimal(decode_graph6(g6), TIE_DIGITS) for _, g6 in accum.cands}
    vmax = max(decimals.values())
    maximizers = sorted(g6 for g6, d in decimals.items() if vmax - d <= TIE_TOL)
    near = [
        {"g6": g6, "value": float(d), "gap": float(vmax - d)}
        for g6, d in decimals.items()
        if vmax - d > TIE_TOL
    ]
    near.sort(key=lambda e: (e["gap"], e["g6"]))
    runner_values = [e["value"] for e in near]
    if accum.runner_up is not None:
        runner_values.append(accum.runner_up)
    runner_up_gap = accum.best - max(runner_values) if runner_values else None
    matches: Optional[bool] = None
    if pred is not None:
        matches = len(maximizers) == 1 and are_isomorphic(decode_graph6(maximizers[0]), pred)
    reverified = all(_reverify(decode_graph6(g6), c) for g6 in maximizers)
    verdict = None
    if klass == "evidence":
        verdict = "confirmed" if matches else "refuted"
    return ExtremalResult(
        n, c, accum.scanned, accum.best, maximizers, pred_g6, matches, near,
        runner_up_gap, klass, verdict, bname, bval, reverified,
    )


def find_maximizer(
    n: int,
    constraint: ConstraintSpec,
    epsilon: float = DEFAULT_EPSILON,
    jobs: int = 1,
    allow_long: bool = False,
) -> ExtremalResult:
    """Scan one (n, constraint) cell exhaustively."""
    results, _ = _scan_cells(n, [constraint], epsilon, jobs, allow_long)
    return results[0]


@dataclass
class Report:
    campaign: str
    parameters: dict
    cells: list[dict]
    totals: dict
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "campaign": self.campaign,
            "cells": self.cells,
            "parameters": self.parameters,
            "schema_version": self.schema_version,
            "totals": self.totals,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        return cls(
            campaign=data["campaign"],
            parameters=data["parameters"],
            cells=data["cells"],
            totals=data["totals"],
            schema_version=data["schema_version"],
        )

    CSV_COLUMNS = [
        "campaign", "kind", "n", "value", "cell_class", "scanned", "max_value",
        "matches", "verdict", "runner_up_gap", "bound", "predicted", "maximizers",
        "near_tie_count", "min_gain", "violation_count", "trials", "comparisons",
    ]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for cell in self.cells:
            row = {**cell, "maximizers": ";".join(cell.get("maximizers") or [])}
            if "near_ties" in cell:
                row["near_tie_count"] = len(cell["near_ties"])
            if "violations" in cell:
                row["violation_count"] = len(cell["violations"])
            writer.writerow([row.get(col) for col in self.CSV_COLUMNS])
        return out.getvalue()

    def must_match_failures(self) -> list[dict]:
        return [
            c for c in self.cells
            if c.get("cell_class") == "must-match" and c.get("matches") is not True
        ]


_CAMPAIGN_TO_KIND = {campaign: kind for kind, campaign in _KIND_TO_CAMPAIGN.items()}


def _campaign_values(campaign: str, n: int, values) -> list[Optional[int]]:
    if campaign == "max":
        return [None]
    if values is not None:
        vals = list(values)
    elif campaign == "chromatic":
        vals = list(range(2, n + 1))
    else:
        vals = list(range(1, n - 1))
    if campaign == "chromatic":
        return [v for v in vals if 2 <= v <= n]
    return [v for v in vals if 1 <= v <= n - 1]


def _scan_campaigns(campaigns: Sequence[str], n_values: Sequence[int], values, epsilon: float,
                    jobs: int, allow_long: bool) -> tuple[list[dict], int]:
    """Cells of every campaign, campaign-major, from one scan per order.  The
    graphs-scanned count is summed over campaigns, as if each had its own scan."""
    for n in n_values:
        check_order(n, allow_long)
    cells: list[dict] = []
    graphs_scanned = 0
    for n in n_values:
        constraints = [
            ConstraintSpec(_CAMPAIGN_TO_KIND[campaign], v)
            for campaign in campaigns
            for v in _campaign_values(campaign, n, values)
        ]
        if not constraints:
            continue
        results, streamed = _scan_cells(n, constraints, epsilon, jobs, allow_long)
        graphs_scanned += streamed * len({c.kind for c in constraints})
        cells.extend(r.to_dict() for r in results)
    cells.sort(key=lambda cell: campaigns.index(cell["campaign"]))
    return cells, graphs_scanned


def run_campaign(
    campaign: str,
    n_values: Iterable[int],
    values: Optional[Iterable[int]] = None,
    *,
    epsilon: float = DEFAULT_EPSILON,
    jobs: int = 1,
    allow_long: bool = False,
) -> Report:
    """One ExtremalResult cell per (n, value); cells of equal n share a scan.

    A selection that gives no cell at any order raises ValueError.
    """
    if campaign not in _CAMPAIGN_TO_KIND:
        raise ValueError(f"unknown campaign {campaign!r}")
    t0 = time.monotonic()
    value_list = list(values) if values is not None else None
    ns = sorted(set(n_values))
    cells, graphs_scanned = _scan_campaigns(
        (campaign,), ns, value_list, epsilon, jobs, allow_long)
    if not cells:
        selection = "" if value_list is None else f" for value(s) {value_list}"
        raise ValueError(f"no order in {ns} admits {campaign} cells{selection}")
    params = {
        "campaign": campaign,
        "n_values": ns,
        "values": value_list,
        "epsilon": epsilon,
        "jobs": jobs,
        "allow_long": allow_long,
    }
    totals = {
        "cells": len(cells),
        "graphs_scanned": graphs_scanned,
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    return Report(campaign, params, cells, totals)


def _random_connected(rng: random.Random, n: int) -> Graph:
    if n <= 7:
        classes = connected_graph_list(n)
        return classes[rng.randrange(len(classes))]
    while True:
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        g = Graph(n, tuple(rows))
        if is_connected(g):
            return g


def verify_monotonicity(trials: int, n_max: int, seed: int) -> Report:
    """Random connected graph + random missing edge; adding it must raise ABC.

    Small orders draw uniformly over isomorphism classes; larger orders use
    edge-probability 1/2 with connectivity rejection.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 3 <= n_max <= 64:
        raise ValueError(f"n_max must be in 3..64, got {n_max}")
    t0 = time.monotonic()
    rng = random.Random(seed)
    min_gain = None
    min_witness = None
    violations = []
    for _ in range(trials):
        while True:
            n = rng.randint(3, n_max)
            g = _random_connected(rng, n)
            if g.edge_count() < n * (n - 1) // 2:
                break
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        u, v = non_edges[rng.randrange(len(non_edges))]
        gain = abc_index(add_edge(g, u, v)) - abc_index(g)
        if min_gain is None or gain < min_gain:
            min_gain = gain
            min_witness = {"g6": encode_graph6(g), "u": u, "v": v, "gain": gain}
        if gain <= STRICT_GAP_TOL:
            violations.append({"g6": encode_graph6(g), "u": u, "v": v, "gain": gain})
    cell = {
        "campaign": "monotonicity",
        "cell_class": "must-match",
        "trials": trials,
        "n_max": n_max,
        "seed": seed,
        "model": "uniform over isomorphism classes for n<=7; "
                 "edge probability 1/2 with connectivity rejection for n>=8",
        "min_gain": min_gain,
        "min_gain_witness": min_witness,
        "violations": violations,
        "matches": not violations,
    }
    params = {"campaign": "monotonicity", "trials": trials, "n_max": n_max, "seed": seed}
    totals = {"cells": 1, "trials": trials, "wall_time_s": round(time.monotonic() - t0, 3)}
    return Report("monotonicity", params, [cell], totals)


def verify_bridge_rewrite(n_max: int) -> Report:
    """Shrinking the small side of a bridged clique pair must raise ABC, every
    step down to the pendant-clique endpoint of the chain."""
    if n_max < 6:
        raise ValueError(f"n_max must be >= 6, got {n_max}")
    t0 = time.monotonic()
    memo: dict[tuple[int, int], float] = {}

    def bridge_abc(x: int, y: int) -> float:
        key = (x, y)
        if key not in memo:
            memo[key] = abc_index(bridge_cliques_graph(x, y))
        return memo[key]

    cells = []
    for n in range(6, n_max + 1):
        gains = []
        violations = []
        for x in range(2, n // 2 + 1):
            gain = bridge_abc(x - 1, n - x + 1) - bridge_abc(x, n - x)
            gains.append(gain)
            if gain <= STRICT_GAP_TOL:
                violations.append({"n": n, "x": x, "gain": gain})
        chain_end = bridge_cliques_graph(1, n - 1)
        if n <= 12:
            chain_end_matches = are_isomorphic(chain_end, kn_k_graph(n, 1))
        else:
            knk = kn_k_graph(n, 1)
            chain_end_matches = (
                sorted(chain_end.degrees()) == sorted(knk.degrees())
                and chain_end.edge_count() == knk.edge_count()
            )
        cells.append({
            "campaign": "bridge",
            "cell_class": "must-match",
            "n": n,
            "comparisons": len(gains),
            "min_gain": min(gains),
            "violations": violations,
            "chain_end_matches": chain_end_matches,
            "matches": not violations and chain_end_matches,
        })
    params = {"campaign": "bridge", "n_max": n_max}
    totals = {
        "cells": len(cells),
        "comparisons": sum(c["comparisons"] for c in cells),
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    return Report("bridge", params, cells, totals)


def run_full_battery(
    n_lo: int,
    n_hi: int,
    *,
    epsilon: float = DEFAULT_EPSILON,
    jobs: int = 1,
    seed: int = 0,
    trials: int = 10000,
    bridge_n_max: int = 100,
    allow_long: bool = False,
) -> Report:
    """Every campaign at once: connectivity and chromatic scans over the
    n-range plus the monotonicity and bridge-rewrite property runs."""
    t0 = time.monotonic()
    ns = list(range(max(3, n_lo), n_hi + 1))
    if not ns:
        raise ValueError(f"n-range {n_lo}..{n_hi} has no order >= 3 to scan")
    check_order(n_hi, allow_long)
    # the property runs go first so that their argument errors come before any scan
    properties = verify_monotonicity(trials, 12, seed).cells
    properties += verify_bridge_rewrite(bridge_n_max).cells
    cells, graphs_scanned = _scan_campaigns(
        ("edge-conn", "vertex-conn", "chromatic"), ns, None, epsilon, jobs, allow_long)
    cells += properties
    params = {
        "campaign": "all",
        "n_range": [n_lo, n_hi],
        "epsilon": epsilon,
        "jobs": jobs,
        "seed": seed,
        "trials": trials,
        "bridge_n_max": bridge_n_max,
        "allow_long": allow_long,
    }
    totals = {
        "cells": len(cells),
        "graphs_scanned": graphs_scanned,
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    return Report("all", params, cells, totals)
