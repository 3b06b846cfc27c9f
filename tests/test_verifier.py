import csv
import io
import math
import pickle
import random

import pytest

from abcmax import verifier
from abcmax.cli import main
from abcmax.enumeration import are_isomorphic
from abcmax.graphs import decode_graph6, kn_k_graph, turan_graph, complete_graph
from abcmax.verifier import (
    ConstraintSpec,
    Report,
    cell_class,
    find_maximizer,
    predicted_graph,
    run_campaign,
    run_full_battery,
    verify_bridge_rewrite,
    verify_monotonicity,
)


class TestConstraintSpec:
    def test_validation(self):
        ConstraintSpec("edge_connectivity_eq", 1)
        ConstraintSpec("none")
        with pytest.raises(ValueError):
            ConstraintSpec("edge_connectivity_eq", 0)
        with pytest.raises(ValueError):
            ConstraintSpec("chromatic_eq", 1)
        with pytest.raises(ValueError):
            ConstraintSpec("none", 3)
        with pytest.raises(ValueError):
            ConstraintSpec("girth_eq", 3)

    def test_predictions(self):
        assert are_isomorphic(
            predicted_graph(6, ConstraintSpec("edge_connectivity_eq", 3)), kn_k_graph(6, 3))
        assert predicted_graph(6, ConstraintSpec("edge_connectivity_eq", 5)) == complete_graph(6)
        assert predicted_graph(6, ConstraintSpec("chromatic_eq", 3)) == turan_graph(6, 3)
        assert predicted_graph(6, ConstraintSpec("none")) == complete_graph(6)

    def test_cell_classes(self):
        assert cell_class(5, ConstraintSpec("edge_connectivity_eq", 1)) == "must-match"
        assert cell_class(5, ConstraintSpec("edge_connectivity_eq", 2)) == "evidence"
        assert cell_class(6, ConstraintSpec("edge_connectivity_eq", 2)) == "must-match"
        assert cell_class(7, ConstraintSpec("chromatic_eq", 3)) == "evidence"
        assert cell_class(6, ConstraintSpec("chromatic_eq", 3)) == "must-match"
        assert cell_class(7, ConstraintSpec("chromatic_eq", 2)) == "must-match"
        assert cell_class(7, ConstraintSpec("vertex_connectivity_eq", 3)) == "must-match"


class TestFindMaximizer:
    def test_n5_lambda1(self):
        r = find_maximizer(5, ConstraintSpec("edge_connectivity_eq", 1))
        assert r.scanned == 10
        assert r.max_value == pytest.approx(4.802517076888147, abs=1e-12)
        assert len(r.maximizers) == 1
        assert are_isomorphic(decode_graph6(r.maximizers[0]), kn_k_graph(5, 1))
        assert r.matches is True
        assert r.runner_up_gap is not None and r.runner_up_gap > 1e-9
        assert r.reverified is True

    def test_n6_lambda3_equals_bound(self):
        r = find_maximizer(6, ConstraintSpec("edge_connectivity_eq", 3))
        assert r.matches is True
        assert r.max_value == pytest.approx(7.756443176504305, abs=1e-12)
        assert r.bound == pytest.approx(r.max_value, abs=1e-9)

    def test_n6_chromatic3(self):
        r = find_maximizer(6, ConstraintSpec("chromatic_eq", 3))
        assert r.matches is True
        assert r.max_value == pytest.approx(3 * math.sqrt(6), abs=1e-12)
        assert are_isomorphic(decode_graph6(r.maximizers[0]), turan_graph(6, 3))

    def test_n6_unconstrained_is_complete(self):
        r = find_maximizer(6, ConstraintSpec("none"))
        assert r.scanned == 112
        assert r.matches is True
        assert are_isomorphic(decode_graph6(r.maximizers[0]), complete_graph(6))

    def test_unsatisfiable_cell_reports_empty(self):
        # no connected graph on 4 vertices has chromatic number... they all have
        # some; use edge connectivity 3 at n=4: only K_4, so use value 5 instead
        r = find_maximizer(4, ConstraintSpec("edge_connectivity_eq", 5))
        assert r.scanned == 0
        assert r.max_value is None
        assert r.maximizers == []

    def test_evidence_cell_has_verdict(self):
        r = find_maximizer(7, ConstraintSpec("chromatic_eq", 3))
        assert r.cell_class == "evidence"
        assert r.verdict in ("confirmed", "refuted")
        assert r.maximizers


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

    def test_full_battery_small(self):
        rep = run_full_battery(4, 5, trials=50, bridge_n_max=8, seed=3)
        assert rep.campaign == "all"
        campaigns = {c["campaign"] for c in rep.cells}
        assert campaigns == {"edge-conn", "vertex-conn", "chromatic", "monotonicity", "bridge"}
        assert not rep.must_match_failures()


class TestAccum:
    def test_folded_partials_equal_one_stream(self):
        rng = random.Random(5)
        eps = 0.5
        for _ in range(300):
            items = [(rng.choice([rng.uniform(0, 3), float(rng.randint(0, 3))]), f"g{i}")
                     for i in range(rng.randint(0, 12))]
            whole = verifier._Accum()
            for v, s in items:
                whole.add(v, s, eps)
            cuts = sorted(rng.choices(range(len(items) + 1), k=3))
            folded = verifier._Accum()
            for lo, hi in zip([0] + cuts, cuts + [len(items)]):
                part = verifier._Accum()
                for v, s in items[lo:hi]:
                    part.add(v, s, eps)
                folded.merge(pickle.loads(pickle.dumps(part)), eps)  # as from a pool worker
            assert (folded.scanned, folded.best, sorted(folded.cands), folded.runner_up) == \
                (whole.scanned, whole.best, sorted(whole.cands), whole.runner_up)


class TestFusedScan:
    CAMPAIGNS = ("edge-conn", "vertex-conn", "chromatic")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_battery_equals_separate_campaigns(self, monkeypatch, jobs):
        monkeypatch.setattr(verifier, "SEED_DEPTH", 4)
        scans = []
        real_scan_cells = verifier._scan_cells

        def counting_scan_cells(n, *args):
            scans.append(n)
            return real_scan_cells(n, *args)

        monkeypatch.setattr(verifier, "_scan_cells", counting_scan_cells)
        battery = run_full_battery(4, 6, jobs=jobs, trials=20, bridge_n_max=6)
        assert scans == [4, 5, 6]
        separate = [run_campaign(c, range(4, 7), jobs=jobs) for c in self.CAMPAIGNS]
        fused = [c for c in battery.cells if c["campaign"] in self.CAMPAIGNS]
        assert fused == [cell for rep in separate for cell in rep.cells]
        assert battery.totals["graphs_scanned"] == sum(
            rep.totals["graphs_scanned"] for rep in separate)

    def test_bad_trials_fail_before_any_scan(self, monkeypatch, capsys):
        scans = []
        monkeypatch.setattr(verifier, "_scan_cells", lambda n, *args: scans.append(n))
        with pytest.raises(ValueError):
            run_full_battery(4, 5, trials=0)
        assert main(["verify", "all", "--n-range", "4..5", "--trials", "0"]) == 2
        assert "trials" in capsys.readouterr().err
        assert scans == []

    def test_seeds_listed_once_per_order(self, monkeypatch):
        monkeypatch.setattr(verifier, "SEED_DEPTH", 4)
        real_list = verifier.connected_graph_list
        for jobs in (1, 2):
            seeded = []

            def counting_list(n):
                seeded.append(n)
                return real_list(n)

            monkeypatch.setattr(verifier, "connected_graph_list", counting_list)
            run_campaign("edge-conn", range(3, 7), jobs=jobs)
            assert seeded == [3, 4, 4, 4]

    def test_order_cap_checked_before_any_scan(self, monkeypatch):
        def crash(*args):
            raise RuntimeError("scanned")

        monkeypatch.setattr(verifier, "_scan_kernel", crash)
        with pytest.raises(ValueError, match="order 11"):
            run_campaign("chromatic", [8, 11], [3], jobs=2, allow_long=True)
        with pytest.raises(ValueError, match="order 10"):
            find_maximizer(10, ConstraintSpec("chromatic_eq", 3), jobs=2)

    def test_battery_range_checked_before_property_runs(self, monkeypatch):
        def no_property_run(*args):
            raise AssertionError("property run started")

        monkeypatch.setattr(verifier, "verify_monotonicity", no_property_run)
        with pytest.raises(ValueError, match="no order >= 3"):
            run_full_battery(1, 2, trials=10)
        with pytest.raises(ValueError, match="order 11"):
            run_full_battery(4, 11, allow_long=True)
