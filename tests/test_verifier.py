import csv
import io
import math
import os
import pickle
import random
import signal
import subprocess
import sys
import textwrap
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest

from abcmax import bounds, verifier
from abcmax.cli import main
from abcmax.coloring import chromatic_number
from abcmax.connectivity import (
    edge_connectivity,
    edge_cut_side,
    separator_parts,
    vertex_connectivity,
)
from abcmax.enumeration import are_isomorphic, connected_graph_list, expand_seed
from abcmax.invariants import abc_index, abc_index_decimal
from abcmax.graphs import (
    Graph,
    _bits,
    complete_graph,
    decode_graph6,
    encode_graph6,
    is_connected,
    kn_k_graph,
    turan_graph,
)
from abcmax.verifier import (
    ConstraintSpec,
    Report,
    run_campaign,
    run_full_battery,
    verify_bridge_rewrite,
    verify_monotonicity,
)


class TestConstraintSpec:
    def test_validation(self):
        ConstraintSpec("edge_connectivity_eq", 1)
        ConstraintSpec("chromatic_eq", 2)
        with pytest.raises(ValueError):
            ConstraintSpec("edge_connectivity_eq", 0)
        with pytest.raises(ValueError):
            ConstraintSpec("vertex_connectivity_eq", None)
        with pytest.raises(ValueError):
            ConstraintSpec("chromatic_eq", 1)
        for kind in ("none", "girth_eq"):
            with pytest.raises(ValueError):
                ConstraintSpec(kind, 3)

    def test_predictions(self):
        def predicted_graph(n, c):
            return verifier._cell_rule(n, c)[1]

        assert are_isomorphic(
            predicted_graph(6, ConstraintSpec("edge_connectivity_eq", 3)), kn_k_graph(6, 3))
        assert predicted_graph(6, ConstraintSpec("edge_connectivity_eq", 5)) == complete_graph(6)
        assert predicted_graph(6, ConstraintSpec("chromatic_eq", 3)) == turan_graph(6, 3)
        assert predicted_graph(6, ConstraintSpec("edge_connectivity_eq", 6)) is None
        assert predicted_graph(6, ConstraintSpec("chromatic_eq", 7)) is None

    def test_cell_classes(self):
        def cell_class(n, c):
            return verifier._cell_rule(n, c)[0]

        assert cell_class(5, ConstraintSpec("edge_connectivity_eq", 1)) == "must-match"
        assert cell_class(5, ConstraintSpec("edge_connectivity_eq", 2)) == "evidence"
        assert cell_class(6, ConstraintSpec("edge_connectivity_eq", 2)) == "must-match"
        assert cell_class(7, ConstraintSpec("chromatic_eq", 3)) == "evidence"
        assert cell_class(6, ConstraintSpec("chromatic_eq", 3)) == "must-match"
        assert cell_class(7, ConstraintSpec("chromatic_eq", 2)) == "must-match"
        assert cell_class(7, ConstraintSpec("vertex_connectivity_eq", 3)) == "must-match"

    @pytest.mark.parametrize("n, kind, value, klass, bound_name, bound", [
        (5, "edge_connectivity_eq", 2, "evidence", None, None),
        (6, "edge_connectivity_eq", 4, "must-match", "edge_connectivity_bound",
         bounds.edge_connectivity_bound(6, 4)),
        (6, "vertex_connectivity_eq", 4, "must-match", "edge_connectivity_bound",
         bounds.edge_connectivity_bound(6, 4)),
        (6, "edge_connectivity_eq", 5, "must-match", None, None),
        (7, "chromatic_eq", 2, "must-match", "bipartite_bound", bounds.bipartite_bound(7)),
        (9, "chromatic_eq", 3, "must-match", "chromatic_bound", bounds.chromatic_bound(9, 3)),
        (7, "chromatic_eq", 3, "evidence", None, None),
        # lambda = n admits no graph; only a hand-built cell reaches it
        (6, "edge_connectivity_eq", 6, "must-match", None, None),
        (5, "edge_connectivity_eq", 5, "evidence", None, None),
    ])
    def test_cell_bounds(self, n, kind, value, klass, bound_name, bound):
        rule = verifier._cell_rule(n, ConstraintSpec(kind, value))
        assert (rule[0], rule[2], rule[3]) == (klass, bound_name, bound)


def one_cell(campaign: str, n: int, value: int) -> dict:
    cell, = run_campaign(campaign, [n], [value]).cells
    return cell


class TestFindMaximizer:
    """The maximizer of one cell, as `run_campaign` reports it."""

    def test_n5_lambda1(self):
        r = one_cell("edge-conn", 5, 1)
        assert r["scanned"] == 10
        assert r["max_value"] == pytest.approx(4.802517076888147, abs=1e-12)
        assert len(r["maximizers"]) == 1
        assert are_isomorphic(decode_graph6(r["maximizers"][0]), kn_k_graph(5, 1))
        assert r["matches"] is True
        assert r["runner_up_gap"] is not None and r["runner_up_gap"] > 1e-9
        assert r["reverified"] is True

    def test_n6_lambda3_equals_bound(self):
        r = one_cell("edge-conn", 6, 3)
        assert r["matches"] is True
        assert r["max_value"] == pytest.approx(7.756443176504305, abs=1e-12)
        assert r["bound"] == pytest.approx(r["max_value"], abs=1e-9)

    def test_n6_chromatic3(self):
        r = one_cell("chromatic", 6, 3)
        assert r["matches"] is True
        assert r["max_value"] == pytest.approx(3 * math.sqrt(6), abs=1e-12)
        assert are_isomorphic(decode_graph6(r["maximizers"][0]), turan_graph(6, 3))

    def test_n6_unconstrained_is_complete(self):
        # the chromatic cells partition the connected class; the best of them is K_6
        cells = [one_cell("chromatic", 6, v) for v in range(2, 7)]
        assert sum(r["scanned"] for r in cells) == 112
        best = max(cells, key=lambda r: r["max_value"])
        assert best["value"] == 6 and best["matches"] is True
        assert are_isomorphic(decode_graph6(best["maximizers"][0]), complete_graph(6))

    def test_unsatisfiable_cell_reports_empty(self):
        # no connected graph on 4 vertices has edge connectivity 5, so
        # run_campaign refuses the value; a cell left empty is reported as
        # such, and a must-match one fails
        with pytest.raises(ValueError, match="no order"):
            run_campaign("edge-conn", [4], [5])
        r = verifier._finalize_cell(4, ConstraintSpec("edge_connectivity_eq", 5), verifier._Accum())
        assert r["scanned"] == 0
        assert r["max_value"] is None
        assert r["maximizers"] == []
        assert r["cell_class"] == "evidence" and r["verdict"] == "vacuous"
        empty = verifier._finalize_cell(4, ConstraintSpec("vertex_connectivity_eq", 5),
                                        verifier._Accum())
        assert empty["cell_class"] == "must-match" and empty["matches"] is None
        assert Report("vertex-conn", {}, [empty], {}).must_match_failures() == [empty]

    def test_evidence_cell_has_verdict(self):
        r = one_cell("chromatic", 7, 3)
        assert r["cell_class"] == "evidence"
        assert r["verdict"] in ("confirmed", "refuted")
        assert r["maximizers"]


class TestCampaigns:
    def test_edge_conn_k1_small_range(self):
        rep = run_campaign("edge-conn", range(4, 8), [1])
        assert len(rep.cells) == 4
        assert all(c["matches"] is True for c in rep.cells)
        assert not rep.must_match_failures()

    def test_all_k_cells_share_one_scan(self):
        rep = run_campaign("edge-conn", [6])
        values = [c["value"] for c in rep.cells]
        assert values == [1, 2, 3, 4]
        assert all(c["matches"] is True for c in rep.cells)
        # one enumeration pass for the order
        assert rep.totals["graphs_scanned"] == 112

    def test_small_n_k2_is_evidence(self):
        rep = run_campaign("edge-conn", [5], [2])
        cell = rep.cells[0]
        assert cell["cell_class"] == "evidence"
        assert cell["verdict"] in ("confirmed", "refuted")

    def test_empty_range(self):
        with pytest.raises(ValueError):
            run_campaign("chromatic", [])
        with pytest.raises(ValueError):
            run_campaign("edge-conn", [1, 2])

    def test_values_without_cells_rejected(self):
        with pytest.raises(ValueError):
            run_campaign("edge-conn", [4, 5], [99])
        with pytest.raises(ValueError):
            run_campaign("chromatic", [5], [0])

    def test_unknown_campaign(self):
        with pytest.raises(ValueError):
            run_campaign("girth", [5])


class TestMonotonicity:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_monotonicity(0, 8, 1)
        with pytest.raises(ValueError):
            verify_monotonicity(10, 2, 1)

    def test_small_run_clean(self):
        rep = verify_monotonicity(300, 9, seed=42)
        cell = rep.cells[0]
        assert cell["matches"] is True
        assert cell["violations"] == []
        assert cell["min_gain"] > 1e-12
        assert cell["min_gain_witness"]["g6"]

    def test_reproducible(self):
        a = verify_monotonicity(100, 8, seed=7).cells
        b = verify_monotonicity(100, 8, seed=7).cells
        assert a == b


class TestBridgeRewrite:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            verify_bridge_rewrite(5)

    def test_small_run(self):
        rep = verify_bridge_rewrite(14)
        assert len(rep.cells) == 9
        for cell in rep.cells:
            assert cell["matches"] is True
            assert cell["min_gain"] > 1e-12
            assert cell["chain_end_matches"] is True

    def test_chain_end_degrees_determine_kn1(self):
        # the bridge run's chain-end check compares degree sequences only
        for n in range(3, 9):
            knk = kn_k_graph(n, 1)
            degrees = sorted(knk.degrees())
            same = [g for g in connected_graph_list(n) if sorted(g.degrees()) == degrees]
            assert len(same) == 1 and are_isomorphic(same[0], knk)


class TestReports:
    def test_json_round_trip_is_fixed_point(self):
        rep = run_campaign("edge-conn", [5], [1])
        text = rep.to_json()
        again = Report.from_json(text)
        assert again.to_json() == text
        assert again.cells == rep.cells

    def test_csv_shape(self):
        rep = run_campaign("edge-conn", [5])
        csv_text = rep.to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith("campaign,kind,n,value")
        assert len(lines) == 1 + len(rep.cells)
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        assert [int(r["n"]) for r in rows] == [c["n"] for c in rep.cells]
        assert [r["maximizers"].split(";") for r in rows] == [c["maximizers"] for c in rep.cells]

    def test_maximizer_g6_round_trips(self):
        rep = run_campaign("chromatic", [6], [3])
        for cell in rep.cells:
            for g6 in cell["maximizers"]:
                assert decode_graph6(g6).n == cell["n"]

    def test_full_battery_small(self, monkeypatch):
        monkeypatch.setattr(verifier, "BRIDGE_N_MAX", 8)
        rep = run_full_battery(4, 5, trials=50, seed=3)
        assert rep.campaign == "all"
        campaigns = {c["campaign"] for c in rep.cells}
        assert campaigns == {"edge-conn", "vertex-conn", "chromatic", "monotonicity", "bridge"}
        assert not rep.must_match_failures()


class TestAccum:
    def test_folded_partials_equal_one_stream(self, monkeypatch):
        monkeypatch.setattr(verifier, "EPSILON", 0.5)  # a wide window keeps many near-ties
        rng = random.Random(5)
        for _ in range(300):
            items = [(rng.choice([rng.uniform(0, 3), float(rng.randint(0, 3))]), f"g{i}")
                     for i in range(rng.randint(0, 12))]
            whole = verifier._Accum()
            for v, s in items:
                whole.add(v, s)
            cuts = sorted(rng.choices(range(len(items) + 1), k=3))
            folded = verifier._Accum()
            for lo, hi in zip([0] + cuts, cuts + [len(items)]):
                part = verifier._Accum()
                for v, s in items[lo:hi]:
                    part.add(v, s)
                folded.merge(pickle.loads(pickle.dumps(part)))  # as from a forked worker
            assert (folded.scanned, folded.best, sorted(folded.cands), folded.runner_up) == \
                (whole.scanned, whole.best, sorted(whole.cands), whole.runner_up)


class TestTieRule:
    """Candidates whose 40-digit values differ by at most TIE_TOL are tied."""

    CELL = ConstraintSpec("vertex_connectivity_eq", 2)

    def test_gap_above_tie_tol_is_a_near_tie(self, monkeypatch):
        best = encode_graph6(kn_k_graph(6, 2))
        other = "Er`G"
        top = abc_index_decimal(kn_k_graph(6, 2))
        monkeypatch.setattr(verifier, "abc_index_decimal",
                            lambda g: top - (Decimal("1e-15") if encode_graph6(g) == other else 0))
        accum = verifier._Accum()
        for g6 in (best, other):
            accum.add(5.0, g6)  # one float value: only the Decimal re-check parts them
        cell = verifier._finalize_cell(6, self.CELL, accum)
        assert cell["maximizers"] == [best]
        assert cell["matches"] is True
        assert [(e["g6"], e["gap"]) for e in cell["near_ties"]] == [(other, 1e-15)]

    def test_equal_degree_pair_multisets_tie(self):
        # two non-isomorphic graphs with one multiset of edge degree pairs have
        # equal ABC values, so neither is the unique maximizer
        pair = ("Er`G", "E{OW")
        g, h = (decode_graph6(g6) for g6 in pair)
        assert not are_isomorphic(g, h)
        assert abc_index_decimal(g) == abc_index_decimal(h)
        accum = verifier._Accum()
        for g6, graph in zip(pair, (g, h)):
            accum.add(abc_index(graph), g6)
        cell = verifier._finalize_cell(6, self.CELL, accum)
        assert cell["maximizers"] == sorted(pair)
        assert cell["near_ties"] == []
        assert cell["matches"] is False


class TestChromaticCells:
    def test_cell_counts_match_chromatic_number(self, monkeypatch):
        states = []
        real_parent = verifier._Parent

        def recording_parent(g, *wanted):
            states.append(g.n)
            return real_parent(g, *wanted)

        monkeypatch.setattr(verifier, "_Parent", recording_parent)
        for n in range(2, 8):
            parents = connected_graph_list(n - 1)
            classes = connected_graph_list(n)
            chis = Counter(chromatic_number(g).chi for g in classes)
            for window in ({2}, {3}, {4, 5}, set(range(2, n + 1)), {n}):
                states.clear()
                cells = [ConstraintSpec("chromatic_eq", v) for v in sorted(window)]
                accums, streamed = verifier._scan_kernel(parents, n, cells)
                assert streamed == len(classes)
                assert [a.scanned for a in accums] == [chis[c.value] for c in cells]
                # K_1 gets no state: K_2's chi comes from scratch
                assert states == ([] if n == 2 else [n - 1] * len(parents))


KINDS = ("edge_connectivity_eq", "vertex_connectivity_eq", "chromatic_eq")


def inherited_values(parent, h: Graph) -> list:
    """(lambda, kappa, chi) of h as decided from its parent's state."""
    return [parent.edge_connectivity(h), parent.vertex_connectivity(h),
            parent.chromatic_number(h)]


def scratch_values(h: Graph) -> list:
    return [edge_connectivity(h), vertex_connectivity(h), chromatic_number(h).chi]


def child(g: Graph, sub: int) -> Graph:
    rows = [r | ((sub >> v) & 1) << g.n for v, r in enumerate(g.rows)]
    return Graph(g.n + 1, tuple(rows) + (sub,))


def random_graph(rng: random.Random, k: int, p: float) -> Graph:
    return Graph.from_edges(k, [(u, v) for u in range(k) for v in range(u + 1, k)
                                if rng.random() < p])


def random_connected(rng: random.Random, k: int, p: float) -> Graph:
    while not is_connected(g := random_graph(rng, k, p)):
        pass
    return g


def random_pairs(count: int):
    """Seeded (g, h = g + z) pairs, g connected, 2 <= |V(g)| <= 15.  z is
    joined at random, to all of V(g), inside one side of a minimum edge cut,
    to V(g) minus one component that a minimum separator leaves, or to at
    most kappa(g) vertices."""
    rng = random.Random(21)
    modes = ("random", "universal", "edge side", "separator side", "small")
    for i in range(count):
        p = rng.choice((0.2, 0.4, 0.6, 0.85))
        g = random_connected(rng, rng.randint(2, 15), p)
        k = g.n
        full = (1 << k) - 1
        mode = modes[i % len(modes)]
        pool = full
        if mode == "edge side":
            side = edge_cut_side(g)[1]
            pool = rng.choice((side, full & ~side))
        elif mode == "separator side" and (parts := separator_parts(g, vertex_connectivity(g))):
            pool = full & ~rng.choice(parts)
        members = list(_bits(pool))
        if mode == "universal":
            sub = full
        elif mode == "small":
            size = min(len(members), rng.randint(1, max(1, vertex_connectivity(g))))
            sub = sum(1 << v for v in rng.sample(members, size))
        else:
            sub = sum(1 << v for v in members if rng.random() < 0.5)
        while not sub or not is_connected(h := child(g, sub)):
            sub |= 1 << rng.randrange(k)
        yield g, h


class TestParentLemmas:
    """Each child's lambda, kappa and chi decided from its parent's witnesses
    equal the values computed from scratch."""

    def test_every_child_of_every_class_upto_7(self):
        children = 0
        for k in range(2, 8):
            for g in connected_graph_list(k):
                parent = verifier._Parent(g, True, True, True)
                for h in expand_seed(g.rows, k + 1):
                    assert inherited_values(parent, h) == scratch_values(h), h.rows
                    children += 1
        assert children == sum(len(connected_graph_list(n)) for n in range(3, 9))

    def test_random_pairs(self):
        universal = 0
        for g, h in random_pairs(2000):
            parent = verifier._Parent(g, True, True, True)
            assert inherited_values(parent, h) == scratch_values(h), (g.rows, h.rows)
            universal += h.rows[-1] == (1 << g.n) - 1
        assert universal >= 300

    def test_kernel_counts_on_random_parents(self):
        # the kernel's min-degree and chi-window prefilters at orders 9..11: each
        # cell counts the children whose value, from scratch, is the cell's
        rng = random.Random(8)
        for k in (8, 9, 10):
            for _ in range(20):
                g = random_connected(rng, k, 0.5)
                values = Counter()
                for h in expand_seed(g.rows, k + 1):
                    values.update(zip(KINDS, scratch_values(h)))
                for window in (range(1, k + 2), (4, 5)):
                    cells = [ConstraintSpec(kind, v) for kind in KINDS for v in window
                             if v >= 2 or kind != "chromatic_eq"]
                    accums, _ = verifier._scan_kernel([g], k + 1, cells)
                    assert [a.scanned for a in accums] == [values[c.kind, c.value] for c in cells], g.rows


class TestFusedScan:
    CAMPAIGNS = ("edge-conn", "vertex-conn", "chromatic")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_battery_equals_separate_campaigns(self, monkeypatch, jobs):
        monkeypatch.setattr(verifier, "SEED_DEPTH", 4)
        monkeypatch.setattr(verifier, "BRIDGE_N_MAX", 6)
        scans = []
        real_scan_cells = verifier._scan_cells

        def counting_scan_cells(n, *args):
            scans.append(n)
            return real_scan_cells(n, *args)

        monkeypatch.setattr(verifier, "_scan_cells", counting_scan_cells)
        battery = run_full_battery(4, 6, jobs=jobs, trials=20)
        assert scans == [4, 5, 6]
        separate = [run_campaign(c, range(4, 7), jobs=jobs) for c in self.CAMPAIGNS]
        fused = [c for c in battery.cells if c["campaign"] in self.CAMPAIGNS]
        assert fused == [cell for rep in separate for cell in rep.cells]
        assert battery.totals["graphs_scanned"] == sum(
            rep.totals["graphs_scanned"] for rep in separate)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deep_subtrees_equal_flat_stream(self, monkeypatch, jobs):
        # SEED_DEPTH 7 roots each of orders 4..7 at its classes of order
        # n - 1; roots of order 4 split orders 6 and 7 into deeper subtrees,
        # at jobs 2 scanned in forked workers
        monkeypatch.setattr(verifier, "BRIDGE_N_MAX", 6)
        flat = run_full_battery(4, 7, jobs=1, trials=20)
        monkeypatch.setattr(verifier, "SEED_DEPTH", 4)
        deep = run_full_battery(4, 7, jobs=jobs, trials=20)
        assert deep.cells == flat.cells
        assert deep.totals["graphs_scanned"] == flat.totals["graphs_scanned"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_property_run_stops_the_scans(self, monkeypatch, jobs):
        # the property reports are taken before any order's partials, at every
        # worker count, so no order is folded
        def crash(*args):
            raise RuntimeError("boom")

        scanned = []
        real_scan_cells = verifier._scan_cells

        def recording_scan_cells(n, *args):
            result = real_scan_cells(n, *args)
            scanned.append(n)
            return result

        monkeypatch.setattr(verifier, "_random_connected", crash)
        monkeypatch.setattr(verifier, "_scan_cells", recording_scan_cells)
        monkeypatch.setattr(verifier, "BRIDGE_N_MAX", 6)
        with pytest.raises(RuntimeError, match="boom"):
            run_full_battery(4, 8, jobs=jobs, trials=5)
        assert scanned == []

    @staticmethod
    def record_pools(monkeypatch):
        """Make `verifier._results` list the worker counts it forks (those
        above 1) and the tasks it hands to forked workers."""
        forked, sent = [], []
        real_results = verifier._results

        def recording_results(tasks, workers):
            if workers > 1:
                forked.append(workers)
                sent.extend(tasks)
            return real_results(tasks, workers)

        monkeypatch.setattr(verifier, "_results", recording_results)
        return forked, sent

    def test_pool_size_is_derived_from_the_tasks(self, monkeypatch):
        forked, _ = self.record_pools(monkeypatch)
        one_task = run_campaign("chromatic", [3], [3], jobs=4)  # the one class of order 2
        assert forked == []
        assert one_task.cells == run_campaign("chromatic", [3], [3]).cells
        monkeypatch.setattr(verifier, "SEED_DEPTH", 4)
        six_roots = run_campaign("edge-conn", [5], jobs=8)  # the 6 classes of order 4
        assert forked == [6]
        assert six_roots.parameters["jobs"] == 8
        assert six_roots.cells == run_campaign("edge-conn", [5]).cells

    def test_no_task_carries_a_graph(self, monkeypatch):
        # a task names its order and root and holds no graph; the workers
        # inherit the tasks through the fork, and only results cross a pipe
        _, sent = self.record_pools(monkeypatch)
        monkeypatch.setattr(verifier, "SEED_DEPTH", 4)
        monkeypatch.setattr(verifier, "BRIDGE_N_MAX", 6)
        run_full_battery(4, 6, jobs=2, trials=20)
        properties = {verifier.verify_monotonicity, verifier.verify_bridge_rewrite}
        # property runs, then a task per root: the classes of order 3 for
        # order 4, those of order 4 for orders 5 and 6
        assert len(sent) == 2 + 2 + 6 + 6
        for fn, *args in sent:
            for arg in args:
                assert not isinstance(arg, Graph)
                assert not (isinstance(arg, tuple) and any(isinstance(x, Graph) for x in arg))
            assert fn in properties or fn is verifier._scan_subtree
            if fn is verifier._scan_subtree:
                rows, n, _ = args
                assert len(rows) == min(n - 1, verifier.SEED_DEPTH)

    @staticmethod
    def run_crash_script(tmp_path, prelude: str, timeout: float) -> int:
        """Exit status of a child that runs `prelude`, installs a no-op SIGTERM
        handler, makes the battery's first property run raise and runs the
        battery at jobs 2.  The child gets its own process group, so that a
        stuck worker is killed too."""
        script = tmp_path / "crash.py"
        script.write_text(textwrap.dedent(prelude) + textwrap.dedent("""
            import signal
            from abcmax import verifier

            def crash(*args):
                raise RuntimeError("boom")

            signal.signal(signal.SIGTERM, lambda *args: None)
            verifier._random_connected = crash
            verifier.SEED_DEPTH = 4
            try:
                verifier.run_full_battery(4, 5, jobs=2, trials=5)
            except RuntimeError:
                pass
            else:
                raise SystemExit("no error")
        """))
        env = {**os.environ, "PYTHONPATH": str(Path(verifier.__file__).parents[1])}
        proc = subprocess.Popen([sys.executable, str(script)], env=env, start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            return proc.wait(timeout=timeout)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()

    def test_failed_run_ends_workers_under_a_sigterm_handler(self, tmp_path):
        # forked workers inherit the caller's SIGTERM handler (a test runner's,
        # say); leaving `_results` on an error must still end the worker that
        # is busy with the bridge run
        assert self.run_crash_script(tmp_path, "", timeout=60) == 0

    def test_sigterm_before_worker_init_is_held(self, tmp_path):
        # the second worker sleeps 2 s before its first task, under the
        # inherited no-op SIGTERM handler, while the first worker's task
        # fails; the failed run must still end that worker, not wait for it
        late_start = """
            import os
            import time

            real_fork = os.fork
            forks = []

            def late_fork():
                forks.append(real_fork())
                if forks[-1] == 0 and len(forks) == 2:
                    time.sleep(2)
                return forks[-1]

            os.fork = late_fork
        """
        assert self.run_crash_script(tmp_path, late_start, timeout=20) == 0

    def test_bad_trials_fail_before_any_scan(self, monkeypatch, capsys):
        scans = []
        monkeypatch.setattr(verifier, "_scan_cells", lambda n, *args: scans.append(n))
        with pytest.raises(ValueError):
            run_full_battery(4, 5, trials=0)
        assert main(["verify", "all", "--n-range", "4..5", "--trials", "0"]) == 2
        assert "trials" in capsys.readouterr().err
        assert scans == []

    def test_bad_jobs_fail_before_any_work(self, monkeypatch):
        def crash(*args):
            raise AssertionError("work started")

        for name in ("connected_graph_list", "_scan_kernel", "verify_monotonicity",
                     "verify_bridge_rewrite"):
            monkeypatch.setattr(verifier, name, crash)
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            run_campaign("chromatic", [5], [3], jobs=0)
        with pytest.raises(ValueError, match="jobs must be >= 1, got -2"):
            run_full_battery(4, 5, jobs=-2)

    def test_bridge_order_above_graph_cap_fails_before_any_graph(self, monkeypatch, capsys):
        def crash(*args):
            raise AssertionError("graph built")

        monkeypatch.setattr(verifier, "bridge_cliques_graph", crash)
        with pytest.raises(ValueError, match="6..4096, got 4097"):
            verify_bridge_rewrite(4097)
        assert main(["verify", "bridge", "--n-max", "4097"]) == 2
        assert capsys.readouterr().err == "error: n_max must be in 6..4096, got 4097\n"

    def test_seeds_listed_once_per_order(self, monkeypatch):
        # this process reads the root list of each order, min(n - 1,
        # SEED_DEPTH), once, before any task runs; a task walks its root's
        # subtree and reads no list, at any worker count
        monkeypatch.setattr(verifier, "SEED_DEPTH", 4)
        real_list = verifier.connected_graph_list
        for jobs in (1, 2):
            seeded, misses = [], []

            def counting_list(n):
                before = real_list.cache_info().misses
                graphs = real_list(n)
                seeded.append(n)
                misses.append(real_list.cache_info().misses - before)
                return graphs

            monkeypatch.setattr(verifier, "connected_graph_list", counting_list)
            run_campaign("edge-conn", range(3, 7), jobs=jobs)
            assert seeded == [2, 3, 4, 4]
            assert misses[3] == 0

    def test_order_cap_checked_before_any_scan(self, monkeypatch):
        def crash(*args):
            raise RuntimeError("scanned")

        monkeypatch.setattr(verifier, "_scan_kernel", crash)
        with pytest.raises(ValueError, match="order 11"):
            run_campaign("chromatic", [8, 11], [3], jobs=2, allow_long=True)
        with pytest.raises(ValueError, match="order 10"):
            run_campaign("chromatic", [10], [3], jobs=2)

    def test_battery_range_checked_before_property_runs(self, monkeypatch):
        def no_property_run(*args):
            raise AssertionError("property run started")

        monkeypatch.setattr(verifier, "verify_monotonicity", no_property_run)
        with pytest.raises(ValueError, match="no order >= 3"):
            run_full_battery(1, 2, trials=10)
        with pytest.raises(ValueError, match="order 11"):
            run_full_battery(4, 11, allow_long=True)
