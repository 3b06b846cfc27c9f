"""Exhaustive extremal campaigns over the connected-graph streams.

Each (n, constraint) cell, the constraint being lambda = k, kappa = k or
chi = k, scans every connected graph of order n satisfying the constraint,
tracks the ABC maximum together with everything within the fixed window
EPSILON of it, re-evaluates that near-tie set at 40 significant decimals,
and only then declares a unique maximizer or a genuine tie.

A scan of order n has one path.  Its tasks are the canonical-parent
subtrees rooted at the cached classes of order min(n - 1, SEED_DEPTH), one
task each.  A task, `_scan_kernel` with its root's rows, names its order
and root; the process that runs it walks the root's subtree down to the
parents of order n - 1, decides the children of each through every cell of
the order and returns one partial per cell, and the partials are folded
into the cells in task order.  The fold is an associative, commutative
reduction, so worker count never changes a result field.

The kernel holds each parent g while it decides g's children h = g + z.  It
builds g's state once for all of them (`_Parent`: lambda with a minimum
edge cut's side, kappa with the components of g - X for every minimum
separator X, chi with a colouring; only what the cells need) and decides
each child from it by the lemmas in the `connectivity` and `coloring`
docstrings.  Those decide every child's kappa; a lambda flow or a
colouring search runs only where the lemmas leave a child undecided.  They
cover K_1 too, so no graph is decided from scratch.

Worker count only decides where the work runs.  A campaign is one ordered
list of tasks: the battery's property runs, then the tasks of each order.
`_results` runs them here with one worker.  With m = min(jobs, number of
tasks) workers, forked after the class lists are built, worker w runs the
tasks w, w + m, ... that it inherits and sends each result down its own
pipe.  This process takes the results in task order either way, the
property reports first, so a failed property run stops the campaign before
any fold, and a dead worker or an interrupt ends it with an error.  Each
public entry point checks the order cap and its arguments once, before any
fork or work.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pickle
import random
import signal
import time
from contextlib import closing
from dataclasses import asdict, dataclass
from decimal import Decimal
from itertools import islice
from typing import Iterable, Optional, Sequence

from . import bounds
from .coloring import chromatic_number, is_k_colorable
from .connectivity import edge_connectivity, edge_cut_side, separator_parts, vertex_connectivity
from .enumeration import are_isomorphic, check_order, connected_graph_list, expand_seed
from .graphs import (
    MAX_VERTICES,
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
EPSILON = 1e-9  # near-tie window; everything within it is re-checked by abc_index_decimal
TIE_TOL = Decimal("1e-20")
SEED_DEPTH = 7  # deepest order of a task's root
MONOTONICITY_N_MAX = 12  # largest order the battery's monotonicity trials draw
BRIDGE_N_MAX = 100  # largest order the battery's bridge-rewrite run checks

_KIND_TO_CAMPAIGN = {
    "edge_connectivity_eq": "edge-conn",
    "vertex_connectivity_eq": "vertex-conn",
    "chromatic_eq": "chromatic",
}
CONSTRAINT_KINDS = tuple(_KIND_TO_CAMPAIGN)
_CAMPAIGN_TO_KIND = {campaign: kind for kind, campaign in _KIND_TO_CAMPAIGN.items()}


@dataclass(frozen=True)
class ConstraintSpec:
    kind: str
    value: int

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "chromatic_eq":
            if self.value is None or self.value < 2:
                raise ValueError(f"chromatic constraint needs value >= 2, got {self.value}")
        elif self.value is None or self.value < 1:
            raise ValueError(f"connectivity constraint needs value >= 1, got {self.value}")


def _cell_rule(n: int, c: ConstraintSpec) -> tuple[str, Optional[Graph], Optional[str], Optional[float]]:
    """What is settled about the cell (n, c) before its scan, as
    (cell_class, predicted, bound_name, bound):

    - cell_class: 'must-match' where the maximizer is settled (chi = 2 or
      chi | n; kappa = k; lambda = k at k = 1, at k = n - 1 or from order
      6), so the scan must reproduce `predicted`; 'evidence' where the
      statement is open, so the cell gets a confirmed/refuted verdict;
    - predicted: the family member expected to win (K_n(k), K_n at
      k = n - 1, or the Turan graph T(n, k)), None where none is defined;
    - bound_name and bound: the closed-form cap on the cell's maximum and
      its value, both None where no cap applies.
    """
    k = c.value
    if c.kind == "chromatic_eq":
        pred = turan_graph(n, k) if k <= n else None
        if k == 2:
            return "must-match", pred, "bipartite_bound", bounds.bipartite_bound(n)
        if n % k == 0:
            return "must-match", pred, "chromatic_bound", bounds.chromatic_bound(n, k)
        return "evidence", pred, None, None
    pred = kn_k_graph(n, k) if k <= n - 2 else complete_graph(n) if k == n - 1 else None
    settled = c.kind == "vertex_connectivity_eq" or k in (1, n - 1) or n >= 6
    klass = "must-match" if settled else "evidence"
    if n >= 6 and k <= n - 2:
        return klass, pred, "edge_connectivity_bound", bounds.edge_connectivity_bound(n, k)
    return klass, pred, None, None


class _Accum:
    """Streaming (max, near-max set, runner-up) reduction for one cell."""

    __slots__ = ("scanned", "best", "cands", "runner_up")

    def __init__(self):
        self.scanned = 0
        self.best: Optional[float] = None
        self.cands: list[tuple[float, str]] = []
        self.runner_up: Optional[float] = None

    def add(self, value: float, g6: str) -> None:
        self.scanned += 1
        if self.best is None or value > self.best:
            self.best = value
            kept = []
            for v, s in self.cands:
                if v > value - EPSILON:
                    kept.append((v, s))
                elif self.runner_up is None or v > self.runner_up:
                    self.runner_up = v
            self.cands = kept
            self.cands.append((value, g6))
        elif value > self.best - EPSILON:
            self.cands.append((value, g6))
        elif self.runner_up is None or value > self.runner_up:
            self.runner_up = value

    def merge(self, other: "_Accum") -> None:
        """Fold in the partial of a disjoint stream, as if its graphs had been
        added here; its runner-up lies EPSILON below its best, so it stays one."""
        scanned = self.scanned + other.scanned
        for v, s in other.cands:
            self.add(v, s)
        self.scanned = scanned
        if other.runner_up is not None and (self.runner_up is None or other.runner_up > self.runner_up):
            self.runner_up = other.runner_up


class _Parent:
    """What the cells need of a connected parent g to decide each child
    h = g + z, z being h's last vertex, by the lemmas in the `connectivity`
    and `coloring` docstrings.  Only the parts asked for are built: lambda
    and the source side of a minimum edge cut, kappa and the components that
    g's minimum separators leave, chi and its colour classes.  K_1's lambda
    is read here as unbounded, not as the 0 of `edge_connectivity`."""

    __slots__ = ("lam", "side", "kap", "parts", "chi", "classes")

    def __init__(self, g: Graph, edge: bool, vertex: bool, chrom: bool):
        if edge:  # K_1 has no edge cut, so every cut of K_2 is z's star
            self.lam, self.side = edge_cut_side(g) if g.n > 1 else (math.inf, 0)
        if vertex:
            self.kap = vertex_connectivity(g)
            self.parts = separator_parts(g, self.kap)
        if chrom:
            coloring = chromatic_number(g)
            self.chi = coloring.chi
            self.classes = [0] * coloring.chi
            for v, c in enumerate(coloring.witness):
                self.classes[c] |= 1 << v

    def edge_connectivity(self, h: Graph) -> int:
        """lambda(h); a flow runs only when the lemma's two bounds differ."""
        sub = h.rows[-1]
        s = sub.bit_count()
        lo = min(self.lam, s)
        hi = min(s, self.lam + min((sub & self.side).bit_count(), (sub & ~self.side).bit_count()))
        return lo if lo == hi else edge_connectivity(h)

    def vertex_connectivity(self, h: Graph) -> int:
        """kappa(h), by the lemma's two cases; no flow runs."""
        sub = h.rows[-1]
        s = sub.bit_count()
        if s <= self.kap:
            return s
        return self.kap if any(not sub & c for c in self.parts) else self.kap + 1

    def chromatic_number(self, h: Graph) -> int:
        """chi(h); a colouring search runs only when z sees every colour."""
        sub = h.rows[-1]
        chi = self.chi
        if sum(1 for c in self.classes if sub & c) < chi or is_k_colorable(h, chi):
            return chi
        return chi + 1


def _scan_kernel(rows: tuple[int, ...], n: int, constraints: Sequence[ConstraintSpec]):
    """The partials of every constraint cell over the order-n graphs in the
    subtree rooted at `rows`, and the count of graphs streamed.  Each parent
    of order n - 1 in the subtree is held, with its state built once, while
    its children are decided."""
    accums = [_Accum() for _ in constraints]
    edge_cells = [(i, c.value) for i, c in enumerate(constraints) if c.kind == "edge_connectivity_eq"]
    vertex_cells = [(i, c.value) for i, c in enumerate(constraints) if c.kind == "vertex_connectivity_eq"]
    chrom_cells = [(i, c.value) for i, c in enumerate(constraints) if c.kind == "chromatic_eq"]
    chi_lo = min((v for _, v in chrom_cells), default=None)
    chi_hi = max((v for _, v in chrom_cells), default=None)
    min_edge_k = min((v for _, v in edge_cells), default=None)

    wanted = (bool(edge_cells), bool(vertex_cells), bool(chrom_cells))
    streamed = 0
    for g in expand_seed(rows, n - 1):
        parent = _Parent(g, *wanted)
        for h in expand_seed(g.rows, n):
            streamed += 1
            matched: list[int] = []
            if edge_cells and min(r.bit_count() for r in h.rows) >= min_edge_k:  # lambda <= delta
                lam = parent.edge_connectivity(h)
                matched.extend(i for i, k in edge_cells if k == lam)
            if vertex_cells:
                kap = parent.vertex_connectivity(h)
                matched.extend(i for i, k in vertex_cells if k == kap)
            if chrom_cells and chi_lo - 1 <= parent.chi <= chi_hi:  # chi(h) is chi(g) or one more
                chi = parent.chromatic_number(h)
                matched.extend(i for i, v in chrom_cells if v == chi)
            if matched:
                value = abc_index(h)
                g6 = encode_graph6(h)
                for i in matched:
                    accums[i].add(value, g6)
    return accums, streamed


def _scan_cells(n: int, constraints: Sequence[ConstraintSpec], partials) -> tuple[list[dict], int]:
    """Every cell of order n, folded from the (accums, streamed) partials of
    its tasks in task order."""
    accums = [_Accum() for _ in constraints]
    streamed = 0
    # fold each task's partials in as it arrives rather than holding them all
    for parts, count in partials:
        streamed += count
        for a, p in zip(accums, parts):
            a.merge(p)
    return [_finalize_cell(n, c, a) for c, a in zip(constraints, accums)], streamed


def _reverify(g: Graph, c: ConstraintSpec) -> bool:
    if c.kind == "edge_connectivity_eq":
        return edge_connectivity(g) == c.value
    if c.kind == "vertex_connectivity_eq":
        return vertex_connectivity(g) == c.value
    return chromatic_number(g).chi == c.value


def _finalize_cell(n: int, c: ConstraintSpec, accum: _Accum) -> dict:
    """The report cell of one (n, constraint) scan."""
    klass, pred, bname, bval = _cell_rule(n, c)
    maximizers: list[str] = []
    near: list[dict] = []
    runner_up_gap = matches = reverified = None
    verdict = None if klass == "must-match" else "vacuous"
    if accum.scanned:  # an empty cell has no match, so a must-match one fails
        decimals = {g6: abc_index_decimal(decode_graph6(g6)) for _, g6 in accum.cands}
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
        if pred is not None:
            matches = len(maximizers) == 1 and are_isomorphic(decode_graph6(maximizers[0]), pred)
        reverified = all(_reverify(decode_graph6(g6), c) for g6 in maximizers)
        if klass == "evidence":
            verdict = "confirmed" if matches else "refuted"
    return {
        "campaign": _KIND_TO_CAMPAIGN[c.kind],
        "n": n,
        "kind": c.kind,
        "value": c.value,
        "cell_class": klass,
        "scanned": accum.scanned,
        "max_value": accum.best,
        "maximizers": maximizers,
        "predicted": encode_graph6(pred) if pred is not None else None,
        "matches": matches,
        "verdict": verdict,
        "near_ties": near,
        "runner_up_gap": runner_up_gap,
        "bound_name": bname,
        "bound": bval,
        "reverified": reverified,
    }


@dataclass
class Report:
    campaign: str
    parameters: dict
    cells: list[dict]
    totals: dict
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls(**json.loads(text))

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


def _report(campaign: str, params: dict, cells: list[dict], t0: float, **counts) -> Report:
    """The report of a run begun at monotonic time t0; `counts` join its totals."""
    totals = {"cells": len(cells), **counts, "wall_time_s": round(time.monotonic() - t0, 3)}
    return Report(campaign, params, cells, totals)


def _campaign_values(campaign: str, n: int, values) -> list[int]:
    """The admitted values among `values`: chi in 2..n, lambda and kappa in
    1..n - 1.  By default a connectivity campaign leaves out n - 1, whose
    only graph is K_n."""
    lo, hi = (2, n) if campaign == "chromatic" else (1, n - 1)
    if values is None:
        values = range(lo, hi + 1 if campaign == "chromatic" else hi)
    return [v for v in values if lo <= v <= hi]


def _results(tasks: Sequence[tuple], workers: int):
    """The results of the (function, *args) `tasks`, in task order.  One
    worker runs them here; worker w of more runs tasks[w::workers] in a fork
    and pickles each result, or the task's exception, to its own pipe.  Here
    that exception is raised again, and a pipe that ends early raises
    RuntimeError.  Every worker is killed by SIGKILL, which no handler holds
    off, and reaped on the way out, on an error or an interrupt too."""
    if workers < 2:
        for fn, *args in tasks:
            yield fn(*args)
        return
    pids, pipes = [], []
    try:
        for w in range(workers):
            r, wfd = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            pid = os.fork()
            if pid == 0:
                try:
                    # no read end stays open here, so a write fails once the parent is gone
                    for pipe in pipes:
                        pipe.close()
                    with os.fdopen(wfd, "wb") as out:
                        for fn, *args in tasks[w::workers]:
                            try:
                                result = fn(*args)
                            except Exception as exc:
                                result = exc
                            out.write(pickle.dumps(result))
                            out.flush()
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(wfd)
        for i in range(len(tasks)):
            try:
                result = pickle.load(pipes[i % workers])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker {pids[i % workers]} ended before task {i}") from None
            if isinstance(result, Exception):
                raise result
            yield result
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _scan_campaigns(campaigns: Sequence[str], n_values: Sequence[int], values,
                    jobs: int, properties=()) -> tuple[list[dict], int]:
    """Cells of every campaign, campaign-major, from one scan per order, a
    `_scan_kernel` task per root, then the cells of the `properties` runs,
    given as (function, *args) tasks.  The graphs-scanned count is summed
    over campaigns, as if each had its own scan.  `jobs` is checked here,
    the order cap and the runs' arguments by the caller."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = list(properties)
    orders = []
    for n in n_values:
        constraints = [
            ConstraintSpec(_CAMPAIGN_TO_KIND[campaign], v)
            for campaign in campaigns
            for v in _campaign_values(campaign, n, values)
        ]
        if constraints:
            roots = connected_graph_list(min(n - 1, SEED_DEPTH))
            tasks += [(_scan_kernel, g.rows, n, constraints) for g in roots]
            orders.append((n, constraints, len(roots)))
    # the workers, forked after the class lists are built, inherit them and the
    # tasks; the results come in task order, and leaving the block ends them
    with closing(_results(tasks, min(jobs, len(tasks)))) as results:
        property_cells = [c for report in islice(results, len(properties)) for c in report.cells]
        cells: list[dict] = []
        graphs_scanned = 0
        for n, constraints, count in orders:
            found, streamed = _scan_cells(n, constraints, islice(results, count))
            graphs_scanned += streamed * len({c.kind for c in constraints})
            cells.extend(found)
    cells.sort(key=lambda cell: campaigns.index(cell["campaign"]))
    return cells + property_cells, graphs_scanned


def run_campaign(
    campaign: str,
    n_values: Iterable[int],
    values: Optional[Iterable[int]] = None,
    *,
    jobs: int = 1,
    allow_long: bool = False,
) -> Report:
    """One cell per (n, value); cells of equal n share a scan.

    This is the library's way to scan cells.  A selection that gives no cell
    at any order raises ValueError.
    """
    if campaign not in _CAMPAIGN_TO_KIND:
        raise ValueError(f"unknown campaign {campaign!r}")
    t0 = time.monotonic()
    value_list = list(values) if values is not None else None
    ns = sorted(set(n_values))
    for n in ns:
        check_order(n, allow_long)
    cells, graphs_scanned = _scan_campaigns((campaign,), ns, value_list, jobs)
    if not cells:
        selection = "" if value_list is None else f" for value(s) {value_list}"
        raise ValueError(f"no order in {ns} admits {campaign} cells{selection}")
    params = {
        "campaign": campaign,
        "n_values": ns,
        "values": value_list,
        "epsilon": EPSILON,
        "jobs": jobs,
        "allow_long": allow_long,
    }
    return _report(campaign, params, cells, t0, graphs_scanned=graphs_scanned)


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


def _check_monotonicity_args(trials: int, n_max: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 3 <= n_max <= 64:
        raise ValueError(f"n_max must be in 3..64, got {n_max}")


def verify_monotonicity(trials: int, n_max: int, seed: int) -> Report:
    """Random connected graph + random missing edge; adding it must raise ABC.

    Small orders draw uniformly over isomorphism classes; larger orders use
    edge-probability 1/2 with connectivity rejection.
    """
    _check_monotonicity_args(trials, n_max)
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
        if gain <= bounds.STRICT_GAP_TOL:
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
    return _report("monotonicity", params, [cell], t0, trials=trials)


def verify_bridge_rewrite(n_max: int) -> Report:
    """Shrinking the small side of a bridged clique pair must raise ABC, every
    step down to the pendant-clique endpoint of the chain.

    The endpoint K_1 bridged to K_{n-1} is recognised by its degree sequence,
    which is exact: a graph with K_n(1)'s degrees (1, n-2, ..., n-2, n-1)
    is K_n(1).  Its degree-(n-1) vertex u sees every vertex, so the pendant
    vertex hangs on u; each of the other n-2 vertices then has n-3
    neighbours besides u, none of them the pendant one, so they are pairwise
    adjacent and form K_{n-1} with u."""
    if not 6 <= n_max <= MAX_VERTICES:
        raise ValueError(f"n_max must be in 6..{MAX_VERTICES}, got {n_max}")
    t0 = time.monotonic()
    cells = []
    for n in range(6, n_max + 1):
        abc = {x: abc_index(bridge_cliques_graph(x, n - x)) for x in range(1, n // 2 + 1)}
        gains = {x: abc[x - 1] - abc[x] for x in abc if x > 1}
        violations = [{"n": n, "x": x, "gain": gain} for x, gain in gains.items()
                      if gain <= bounds.STRICT_GAP_TOL]
        chain_end_matches = (sorted(bridge_cliques_graph(1, n - 1).degrees())
                             == sorted(kn_k_graph(n, 1).degrees()))
        cells.append({
            "campaign": "bridge",
            "cell_class": "must-match",
            "n": n,
            "comparisons": len(gains),
            "min_gain": min(gains.values()),
            "violations": violations,
            "chain_end_matches": chain_end_matches,
            "matches": not violations and chain_end_matches,
        })
    params = {"campaign": "bridge", "n_max": n_max}
    return _report("bridge", params, cells, t0, comparisons=sum(c["comparisons"] for c in cells))


def run_full_battery(
    n_lo: int,
    n_hi: int,
    *,
    jobs: int = 1,
    seed: int = 0,
    trials: int = 10000,
    allow_long: bool = False,
) -> Report:
    """Every campaign at once: connectivity and chromatic scans over the
    n-range plus the monotonicity and bridge-rewrite property runs."""
    t0 = time.monotonic()
    ns = list(range(max(3, n_lo), n_hi + 1))
    if not ns:
        raise ValueError(f"n-range {n_lo}..{n_hi} has no order >= 3 to scan")
    check_order(n_hi, allow_long)
    _check_monotonicity_args(trials, MONOTONICITY_N_MAX)
    cells, graphs_scanned = _scan_campaigns(
        ("edge-conn", "vertex-conn", "chromatic"), ns, None, jobs,
        [(verify_monotonicity, trials, MONOTONICITY_N_MAX, seed),
         (verify_bridge_rewrite, BRIDGE_N_MAX)])
    params = {
        "campaign": "all",
        "n_range": [n_lo, n_hi],
        "epsilon": EPSILON,
        "jobs": jobs,
        "seed": seed,
        "trials": trials,
        "bridge_n_max": BRIDGE_N_MAX,
        "allow_long": allow_long,
    }
    return _report("all", params, cells, t0, graphs_scanned=graphs_scanned)
